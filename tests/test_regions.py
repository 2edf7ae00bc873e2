"""Region engine: deflation, the four inclusion regions, sections, JSON."""

import functools
import gc
import itertools
import json
import math
import re
import tracemalloc
import warnings
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eigenloc.regions
from eigenloc.graphs import GraphMatrixKind, build_matrix, circulant, complete, cycle, petersen
from eigenloc.oracle import complex_eigenvalues, symmetric_eigenvalues
from eigenloc.regions import (
    CassiniOval,
    Disk,
    PointSet,
    RealSection,
    MatrixFacts,
    RegionIntersection,
    RegionUnavailable,
    RegionUnion,
    _DISK,
    _OVAL,
    _normalized_section,
    _table_region,
    brauer_region,
    constant_row_sum,
    deflate,
    gersgorin_region,
    matrix_from_json,
    matrix_to_json,
    real_section,
    region_contains,
    region_from_json,
    region_slack,
    region_slack_grid,
    region_to_json,
    rowsum_brauer_region,
    rowsum_gersgorin_region,
    section_contains,
    stack_least_slacks,
)

from ._reference import charpoly
from .conftest import (
    GAMMA_3X3,
    ROWSUM_3X3,
    count_first_reads,
    match_multisets,
    random_constant_rowsum_matrix,
    random_region,
)

SQRT2 = math.sqrt(2.0)


class TestRowSums:
    def test_fixture_rows_all_sum_to_gamma(self):
        assert np.allclose(ROWSUM_3X3.sum(axis=1), [GAMMA_3X3] * 3)
        assert constant_row_sum(ROWSUM_3X3) == GAMMA_3X3

    def test_identity(self):
        assert constant_row_sum(np.eye(3)) == 1.0 + 0.0j

    def test_laplacian_gamma_is_zero(self):
        lap = build_matrix(cycle(5), GraphMatrixKind.LAPLACIAN)
        assert constant_row_sum(lap) == 0.0 + 0.0j

    def test_non_constant_returns_none(self):
        assert constant_row_sum(np.array([[1.0, 0.0], [0.0, 2.0]])) is None

    def test_a_matrix_near_zero_is_held_to_its_own_magnitude(self):
        # rows that disagree by all they hold once passed a tolerance of
        # 1e-9 (1 + max |row sum|), and gave 2^-40 diag(-1, 0) a row sum
        # -2^-40 with both eigenvalues outside its row-sum regions
        assert constant_row_sum(2.0**-40 * np.diag([-1.0, 0.0])) is None
        tiny = 2.0**-40 * np.diag([-1.0, 0.0, 1.0])
        for builder in (rowsum_gersgorin_region, rowsum_brauer_region):
            with pytest.raises(RegionUnavailable):
                builder(tiny)
        assert constant_row_sum(2.0**-40 * np.eye(3)) == 2.0**-40
        assert constant_row_sum(np.zeros((3, 3))) == 0.0

    def test_rounding_of_large_cancelling_rows_is_still_refused(self):
        # the tolerance is capped at 1e-9 (1 + max |row sum|): rows of a
        # weighted Laplacian with weights near 1e10 sum to zero only up to
        # about 1e-5, which verify's absolute 1e-8 would fail as regions
        rng = np.random.default_rng(7)
        w = np.triu(rng.uniform(0.5e10, 1.5e10, (8, 8)), 1)
        lap = np.diag((w + w.T).sum(axis=1)) - (w + w.T)
        assert np.abs(lap.sum(axis=1)).max() > 1e-8
        assert constant_row_sum(lap) is None


class TestDeflate:
    def test_fixture_first_deflation_exact(self):
        expected = np.array([[1.0, -1.0j], [-1.0, 0.0]])
        assert np.array_equal(deflate(ROWSUM_3X3, 1), expected)

    def test_all_ones_2x2(self):
        out = deflate(np.ones((2, 2)), 1)
        assert out.shape == (1, 1) and out[0, 0] == 0.0

    def test_k3_laplacian_deflates_to_spectrum_3_3(self):
        lap = build_matrix(complete(3), GraphMatrixKind.LAPLACIAN)
        for k in (1, 2, 3):
            coeffs = charpoly(deflate(lap, k))
            # (x - 3)^2 = x^2 - 6x + 9
            assert np.allclose(coeffs, [1, -6, 9], atol=1e-10)

    def test_rejects_non_constant_row_sum(self):
        with pytest.raises(ValueError):
            deflate(np.array([[1.0, 0.0], [0.0, 2.0]]), 1)

    def test_rejects_1x1_and_bad_index(self):
        with pytest.raises(ValueError):
            deflate(np.array([[5.0]]), 1)
        with pytest.raises(ValueError):
            deflate(np.ones((3, 3)), 4)
        # k is taken by the integer rule: an integral float or a numpy
        # integer is its integer; a fraction, a bool, a string or NaN is
        # refused
        for k in (2.0, np.int64(2), np.float64(2.0), np.float32(2.0), np.float16(2.0)):
            assert np.array_equal(deflate(ROWSUM_3X3, k), deflate(ROWSUM_3X3, 2))
        for k in (1.5, 2.5, True, False, "2", math.nan, None, np.True_, np.float32(2.5),
                  np.float16("nan"), np.float64("inf"), -math.inf):
            with pytest.raises(ValueError, match="deflation index must be an integer"):
                deflate(ROWSUM_3X3, k)

    def test_charpoly_factorisation_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            a, gamma = random_constant_rowsum_matrix(rng, n)
            full = charpoly(a)
            for k in range(1, n + 1):
                product = np.polymul([1.0, -gamma], charpoly(deflate(a, k)))
                assert np.max(np.abs(full - product)) <= 1e-8

    def test_deflations_share_spectrum_across_k(self):
        rng = np.random.default_rng(22)
        a, _ = random_constant_rowsum_matrix(rng, 6)
        base = complex_eigenvalues(deflate(a, 1)).values
        for k in range(2, 7):
            match_multisets(base, complex_eigenvalues(deflate(a, k)).values, 1e-8)


class TestClassicalRegions:
    def test_fixture_disks(self):
        region = gersgorin_region(ROWSUM_3X3)
        disks = region.children
        assert [d.center for d in disks] == [1.0 + 0.0j, 2.0 + 1.0j, 1.0j]
        assert [d.radius for d in disks] == pytest.approx([1.0 + SQRT2, 1.0, 3.0])

    def test_diagonal_matrix_disks_have_radius_zero(self):
        region = gersgorin_region(np.diag([1.0, 2.0, 3.0]))
        assert all(d.radius == 0.0 for d in region.children)
        assert [d.center for d in region.children] == [1.0, 2.0, 3.0]

    def test_complete_adjacency_single_effective_disk(self):
        region = gersgorin_region(build_matrix(complete(5), GraphMatrixKind.ADJACENCY))
        assert all(d == Disk(0.0 + 0.0j, 4.0) for d in region.children)

    def test_swap_matrix_brauer_single_oval(self):
        region = brauer_region(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert region.children == (CassiniOval(0.0j, 0.0j, 1.0),)

    def test_fixture_ovals(self):
        ovals = brauer_region(ROWSUM_3X3).children
        r = MatrixFacts(ROWSUM_3X3).deleted_row_sums[0]
        assert np.allclose(r, [1.0 + SQRT2, 1.0, 3.0])
        assert [(o.focus_a, o.focus_b) for o in ovals] == [
            (1.0 + 0.0j, 2.0 + 1.0j),
            (1.0 + 0.0j, 1.0j),
            (2.0 + 1.0j, 1.0j),
        ]
        assert [o.radius_product for o in ovals] == pytest.approx(
            [(1.0 + SQRT2) * 1.0, (1.0 + SQRT2) * 3.0, 3.0]
        )

    def test_diagonal_brauer_degenerates_to_points(self):
        ovals = brauer_region(np.diag([2.0, 5.0])).children
        assert ovals[0].radius_product == 0.0

    def test_brauer_needs_dimension_two(self):
        with pytest.raises(ValueError):
            brauer_region(np.array([[1.0]]))

    def test_brauer_inside_gersgorin_sampled(self):
        rng = np.random.default_rng(30)
        for _ in range(4):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            gers = gersgorin_region(a)
            brau = brauer_region(a)
            pts = rng.uniform(-6, 6, (10_000, 2))
            zs = pts[:, 0] + 1j * pts[:, 1]
            inside_b = region_slack_grid(brau, zs) >= 0
            inside_g = region_slack_grid(gers, zs) >= -1e-12
            assert np.all(inside_g[inside_b])


class TestRowSumRegions:
    def test_fixture_first_component_disks(self):
        region = rowsum_gersgorin_region(ROWSUM_3X3)
        assert isinstance(region, RegionIntersection) and len(region.children) == 3
        first = region.children[0]
        disks = [leaf for leaf in first.children if isinstance(leaf, Disk)]
        assert [d.center for d in disks] == [1.0 + 0.0j, 0.0 + 0.0j]
        assert [d.radius for d in disks] == pytest.approx([1.0, 1.0])
        points = [leaf for leaf in first.children if isinstance(leaf, PointSet)]
        assert points == [PointSet((GAMMA_3X3,))]

    def test_complete_adjacency_region_is_spectrum(self):
        for n in (3, 4, 6):
            a = build_matrix(complete(n), GraphMatrixKind.ADJACENCY)
            section = real_section(rowsum_gersgorin_region(a))
            assert section.intervals == ((-1.0, -1.0),)
            assert section.isolated_points == (float(n - 1),)

    def test_all_ones_2x2_region(self):
        section = real_section(rowsum_gersgorin_region(np.ones((2, 2))))
        assert section.intervals == ((0.0, 0.0),)
        assert section.isolated_points == (2.0,)

    def test_k3_adjacency_rowsum_brauer_is_spectrum(self):
        a = build_matrix(complete(3), GraphMatrixKind.ADJACENCY)
        section = real_section(rowsum_brauer_region(a))
        # zero-product ovals degenerate to their (real) foci
        assert section.isolated_points == (-1.0, 2.0)
        assert section.intervals == ()

    def test_fixture_rowsum_brauer_first_component(self):
        region = rowsum_brauer_region(ROWSUM_3X3)
        first = region.children[0]
        ovals = [leaf for leaf in first.children if isinstance(leaf, CassiniOval)]
        assert len(ovals) == 1
        assert (ovals[0].focus_a, ovals[0].focus_b) == (1.0 + 0.0j, 0.0 + 0.0j)
        assert ovals[0].radius_product == pytest.approx(1.0)

    def test_scalar_matrix_region_is_gamma(self):
        gamma = 1.5 - 0.5j
        section = real_section(rowsum_brauer_region(gamma * np.eye(4)))
        assert section.is_empty()  # gamma is not real
        region = rowsum_brauer_region(np.real(gamma) * np.eye(4))
        section = real_section(region)
        assert section.intervals == ((1.5, 1.5),) or section.isolated_points == (1.5,)

    def test_rowsum_regions_require_constant_row_sum(self):
        bad = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            rowsum_gersgorin_region(bad)
        with pytest.raises(ValueError):
            rowsum_brauer_region(np.diag([1.0, 2.0, 3.0]))

    def test_rowsum_brauer_needs_dimension_three(self):
        with pytest.raises(ValueError):
            rowsum_brauer_region(np.ones((2, 2)))

    # a 1 x 1 matrix always has a constant row sum
    @pytest.mark.parametrize(
        "n, constant", [(1, True)] + [(n, c) for n in (2, 3, 4) for c in (True, False)]
    )
    @pytest.mark.parametrize(
        "builder, least_n, needs_gamma",
        [(gersgorin_region, 1, False), (brauer_region, 2, False),
         (rowsum_gersgorin_region, 2, True), (rowsum_brauer_region, 3, True)],
        ids=["gersgorin", "brauer", "rowsum-gersgorin", "rowsum-brauer"],
    )
    def test_unavailable_exactly_below_dimension_or_without_row_sum(
        self, builder, least_n, needs_gamma, n, constant
    ):
        a, _ = random_constant_rowsum_matrix(np.random.default_rng(n), n)
        if not constant:
            a[0, 0] += 1.0
        if n < least_n or (needs_gamma and not constant):
            with pytest.raises(RegionUnavailable):
                builder(a)
        else:
            builder(a)


class TestContainment:
    def test_disk_boundary_counts_as_inside(self):
        assert region_contains(Disk(0.0j, 1.0), 1.0 + 0.0j)

    def test_gamma_always_in_rowsum_regions(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = int(rng.integers(3, 8))
            a, gamma = random_constant_rowsum_matrix(rng, n)
            assert region_contains(rowsum_gersgorin_region(a), gamma, 1e-9)
            assert region_contains(rowsum_brauer_region(a), gamma, 1e-9)

    def test_fixture_eigenvalues_inside_all_regions(self):
        values = complex_eigenvalues(ROWSUM_3X3).values
        for region in (
            gersgorin_region(ROWSUM_3X3),
            brauer_region(ROWSUM_3X3),
            rowsum_gersgorin_region(ROWSUM_3X3),
            rowsum_brauer_region(ROWSUM_3X3),
        ):
            assert all(region_contains(region, z, 1e-9) for z in values)

    def test_random_matrices_eigenvalues_inside_all_regions(self):
        rng = np.random.default_rng(32)
        for _ in range(8):
            n = int(rng.integers(3, 8))
            a, _ = random_constant_rowsum_matrix(rng, n)
            values = complex_eigenvalues(a).values
            for region in (
                gersgorin_region(a),
                brauer_region(a),
                rowsum_gersgorin_region(a),
                rowsum_brauer_region(a),
            ):
                assert all(region_contains(region, z, 1e-9) for z in values)

    def test_graph_matrix_eigenvalues_inside_rowsum_regions(self):
        for g, kind in (
            (cycle(6), GraphMatrixKind.LAPLACIAN),
            (complete(5), GraphMatrixKind.NORMALIZED_ADJACENCY),
            (cycle(5), GraphMatrixKind.ADJACENCY),
        ):
            m = build_matrix(g, kind)
            values = symmetric_eigenvalues(m).values if kind != kind.NORMALIZED_ADJACENCY else None
            if values is None:
                sym = complex_eigenvalues(m)
                values = [z.real for z in sym.values]
            for region in (rowsum_gersgorin_region(m), rowsum_brauer_region(m)):
                assert all(region_contains(region, complex(v), 1e-9) for v in values)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            region_contains(Disk(0.0j, 1.0), 0.0j, -1.0)
        # both membership helpers take the rule of verify --tol and finite points
        disk, section = Disk(0.0j, 1.0), RealSection(((-1.0, 1.0),), (3.0,))
        for tol in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
                region_contains(disk, 1.0, tol)
            with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
                section_contains(section, 1.0, tol)
        for point in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="point must be finite"):
                section_contains(section, point)
            for z in (point, complex(0.0, point), complex(point, 0.0)):
                with pytest.raises(ValueError, match="point must be finite"):
                    region_contains(disk, z, 1e-9)
        # a real section takes a real point: a complex one on the axis is its
        # real part, any other is refused
        for z, inside in ((1 + 0j, True), (complex(3.0, -0.0), True), (2 + 0j, False),
                          (np.complex128(-1.0), True)):
            assert section_contains(section, z) is inside
        for z in (1 + 1j, 3 - 1e-300j, np.complex64(1 + 1j)):
            with pytest.raises(ValueError, match="a real section takes a real point"):
                section_contains(section, z)
        assert region_contains(disk, 1.0) and section_contains(section, 3.0) and not section_contains(section, 2.0)

    def test_grid_slack_matches_scalar(self):
        rng = np.random.default_rng(33)
        cases = []
        for _ in range(10):
            region = random_region(rng)
            pts = rng.uniform(-4, 4, (64, 2))
            cases.append((region, pts[:, 0] + 1j * pts[:, 1], []))
        # slacks of exactly 0, whose sign counts: -0.0 at gamma, a point leaf
        # (gamma = 3 and 1 here), and +0.0 on a disk's rim (-1/3), also where a
        # point leaf's -0.0 ties with it in a later row (1.0)
        a = np.array([[1.0, 2.0, 0.0], [0.0, 2.0, 1.0], [2.0, 0.0, 1.0]])
        k4 = rowsum_gersgorin_region(build_matrix(complete(4), GraphMatrixKind.NORMALIZED_ADJACENCY))
        nested = RegionUnion((Disk(0j, 1.0), PointSet((1 + 0j,)),
                              RegionIntersection((Disk(2 + 0j, 1.0), Disk(3 + 0j, 1.0))), PointSet((5 + 0j,))))
        cases += [
            (rowsum_gersgorin_region(a), np.array([3.0, 3.0j, 1.0, -2.0]), [-0.0]),
            (k4, np.array([1.0, -1 / 3, 0.5j, 2.0]), [-0.0, 0.0]),
            (nested, np.array([1.0, 5.0, 2.0, 2.5]), [0.0, -0.0, 0.0, 0.5]),
        ]
        for region, zs, zeros in cases:
            grid = region_slack_grid(region, zs.reshape(2, -1))
            assert grid.shape == (2, len(zs) // 2)
            assert region_slack_grid(region, zs).tobytes() == grid.tobytes()
            for z, slack in zip(zs, grid.ravel()):
                assert np.float64(region_slack(region, z)).tobytes() == slack.tobytes()
                assert region_slack_grid(region, z).tobytes() == slack.tobytes()
            assert grid.ravel()[: len(zeros)].tobytes() == np.array(zeros).tobytes()

    def test_empty_intersection_is_nowhere(self):
        empty = RegionIntersection(())
        zs = np.array([0.0, 1.0 + 2.0j, -3.0j])
        assert np.array_equal(region_slack_grid(empty, zs), np.full(3, -np.inf))
        assert region_slack(empty, 0.0) == -math.inf
        assert real_section(empty).is_empty()


class TestRealSection:
    def test_tangent_disk(self):
        section = real_section(Disk(2.0 + 1.0j, 1.0))
        assert section.intervals == ((2.0, 2.0),)

    def test_disk_missing_the_axis(self):
        assert real_section(Disk(0.0 + 2.0j, 1.0)).is_empty()

    @pytest.mark.parametrize("scale", [1e100, 1e200, 1e300, 1e308])
    def test_tangent_disk_at_a_huge_scale(self, scale):
        # r^2 and y^2 both overflow past 1e154, and inf - inf would drop the disk
        assert real_section(Disk(-1.0 - scale * 1j, scale)).intervals == ((-1.0, -1.0),)
        assert real_section(Disk(-1.0 - scale * 1j, 0.5 * scale)).is_empty()

    def test_huge_disks_section_to_their_true_interval(self):
        # r^2 overflows; in units of a power of two near r the half-width is r
        assert real_section(Disk(0.5, 2e300)).intervals == ((0.5 - 2e300, 0.5 + 2e300),)
        # an end past the float range is inf, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert real_section(Disk(1.7e308, 1.7e308)).intervals == ((0.0, math.inf),)
        # (r - |y|)(r + |y|) is finite where r^2 is not
        ((lo, hi),) = real_section(Disk(1e154j, 1.5e154)).intervals
        assert (lo, hi) == (pytest.approx(-math.sqrt(1.25) * 1e154), pytest.approx(math.sqrt(1.25) * 1e154))

    def test_concentric_oval(self):
        section = real_section(CassiniOval(0.0j, 0.0j, 1.0))
        assert len(section.intervals) == 1
        lo, hi = section.intervals[0]
        assert (lo, hi) == (pytest.approx(-1.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))

    def test_two_focus_oval(self):
        section = real_section(CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 1.0))
        assert len(section.intervals) == 1
        lo, hi = section.intervals[0]
        assert lo == pytest.approx(-SQRT2, abs=1e-9)
        assert hi == pytest.approx(SQRT2, abs=1e-9)

    def test_pinched_oval_has_two_lobes(self):
        # p < |a-b|^2 / 4 separates the oval into two loops
        section = real_section(CassiniOval(-2.0 + 0.0j, 2.0 + 0.0j, 1.0))
        assert len(section.intervals) == 2

    def test_zero_product_oval_gives_real_foci(self):
        section = real_section(CassiniOval(1.0 + 0.0j, 2.0 + 1.0j, 0.0))
        assert section.isolated_points == (1.0,)
        # a focus 1e-9 off the axis is judged by slack, -2e-9 at x = 0
        section = real_section(CassiniOval(2, 1e-9j, 0))
        assert section.isolated_points == (2.0,)
        assert all(type(x) is float for x in section.isolated_points)

    def test_far_foci_oval_has_both_components(self):
        # two tiny loops round 0 and 1000, far smaller than any fixed scan step
        section = real_section(CassiniOval(0.0j, 1000.0 + 0.0j, 1.0))
        assert len(section.intervals) == 2
        ends = [x for interval in section.intervals for x in interval]
        expected = [
            500.0 - math.sqrt(250000.0 + 1.0),
            500.0 - math.sqrt(250000.0 - 1.0),
            500.0 + math.sqrt(250000.0 - 1.0),
            500.0 + math.sqrt(250000.0 + 1.0),
        ]
        assert ends == [pytest.approx(x, abs=1e-9) for x in expected]

    @pytest.mark.parametrize(
        "oval, touch",
        [
            (CassiniOval(2.0 + 0.5j, 2.0 + 0.5j, 0.25), 2.0),
            (CassiniOval(-1.0 + 1.0j, 1.0 + 1.0j, 2.0), 0.0),
            (CassiniOval(1000.0j, 1000.0j, 1e6), 0.0),
        ],
    )
    def test_tangent_oval_keeps_touching_point(self, oval, touch):
        section = real_section(oval)
        assert section.intervals == ()
        assert section.isolated_points == (pytest.approx(touch, abs=1e-9),)

    def test_large_near_miss_is_not_a_touch(self):
        # the disk of radius sqrt(1e6 - 1e-6) round 1000j misses 0 by a slack
        # of -1e-6, judged in the oval's own units, not the scaled quartic's
        oval = CassiniOval(1000.0j, 1000.0j, 1e6 - 1e-6)
        assert region_slack(oval, 0.0) < -1e-9
        assert real_section(oval).is_empty()

    @pytest.mark.parametrize("focus, p", [(1e10, 1e-10), (1e200, 1e-100)])
    def test_lobes_narrower_than_focus_rounding_keep_their_foci(self, focus, p):
        # the lobes round +-focus are about p / (2 focus) wide, far below
        # one unit in the last place of the focus, so only the foci remain
        section = real_section(CassiniOval(complex(focus), complex(-focus), p))
        assert section.intervals == ()
        assert section.isolated_points == (-focus, focus)

    def test_huge_oval_does_not_overflow(self):
        # p^2 and the quartic's constant term overflow unless it is scaled
        ((lo, hi),) = real_section(CassiniOval(0.0j, 1.0 + 0.0j, 1e200)).intervals
        assert lo <= 0.0 and 1.0 <= hi
        assert (lo, hi) == (pytest.approx(-1e100), pytest.approx(1e100))

    def test_ovals_past_the_float_range(self):
        # once: foci 2e308 apart sectioned to three NaN points, and a centre
        # a.real + b.real past the float range raised LinAlgError after four
        # numpy warnings (both errors here, as RuntimeWarning is one)
        with pytest.raises(ValueError, match="too far apart"):
            real_section(CassiniOval(1e308 + 0.0j, -1e308 + 0.0j, 1.0))
        section = real_section(CassiniOval(9e307 + 0.0j, 9.5e307 + 0.0j, 1.0))
        assert section == RealSection((), (9e307, 9.5e307))
        assert real_section(CassiniOval(1e308j, 0.0j, 1.0)) == RealSection((), (0.0,))

    def test_ovals_whose_foci_are_too_far_apart_are_refused(self):
        # their slack at a focus was 0 * inf, a NaN that no check could pass
        with pytest.raises(ValueError, match="too far apart"):
            CassiniOval(1e308 + 0.0j, -1e308 + 0.0j, 1.0)
        with pytest.raises(ValueError, match="too far apart"):
            CassiniOval(1.5e308 + 0.0j, 1.5e308j, 1.0)  # finite parts, a hypot past the range
        with pytest.raises(ValueError, match="too far apart"):
            brauer_region(np.diag([1e308, -1e308]))
        with pytest.raises(ValueError, match="too far apart"):
            region_from_json({"oval": {"a": [1e308, 0.0], "b": [-1e308, 0.0], "p": 1.0}})
        with pytest.raises(ValueError, match="too far apart"):  # one deflation row of a row-sum region
            _table_region(np.array([[0.0j, 1.0j], [1e308 + 0.0j, -1e308 + 0.0j]]),
                          np.ones((2, 2)), _OVAL, 0.0j)
        # foci near the float range that are a float distance apart, and disks
        # at any distance, are kept, and a far point's slack is -inf
        assert brauer_region(np.diag([1e308, 1.5e308])).leaves() == (
            CassiniOval(1e308 + 0.0j, 1.5e308 + 0.0j, 0.0),)
        disks = gersgorin_region(np.diag([1e308, -1e308]))
        assert region_slack_grid(disks, [1e308, -1e308]).tolist() == [0.0, 0.0]
        assert region_slack(Disk(1e308 + 0.0j, 1.0), -1e308) == -math.inf
        assert region_slack(CassiniOval(1e308 + 0.0j, 1e308j, 1.0), -1e308) == -math.inf

    def test_products_past_the_float_range_give_no_warning(self, monkeypatch):
        # two finite distances whose product overflows: the slack is -inf and
        # the table operation that forms it is quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert region_slack(CassiniOval(0.0j, 1e200 + 0.0j, 1.0), -1e200) == -math.inf
            with pytest.raises(ValueError, match="must be finite"):  # radius products
                rowsum_brauer_region(np.array([
                    [1e200, -1e200, 0, 0], [-1e200, 1e200, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1],
                ]))
            with pytest.raises(ValueError, match="must be finite"):  # deflated differences
                rowsum_gersgorin_region(np.array([[1e308, -1e308, 0], [-1e308, 1e308, 0], [0, 0, 0]]))
            # the branch-and-bound pass, whose bounds multiply two far distances
            monkeypatch.setattr(eigenloc.regions, "_PASS_ROWS", 1)
            region, points = rowsum_brauer_region(ROWSUM_3X3), np.array([1e200, -1e200j])
            least = _least_slack(ROWSUM_3X3, "rowsum-brauer", points)[0]
            assert least == region_slack_grid(region, points).min()

    def test_small_lobe_off_centre_keeps_its_width(self):
        # the roots near 1 are 4e-8 apart, closer than np.roots resolves
        p = 2.0**-24
        section = real_section(CassiniOval(1.0 + 0.0j, 4.0 + 0.0j, p))
        assert len(section.intervals) == 2
        lo, hi = section.intervals[0]
        assert lo < 1.0 < hi
        assert hi - lo == pytest.approx(2.0 * p / 3.0, rel=1e-6)

    def test_small_disk_far_from_origin(self):
        p = 2.0**-23
        section = real_section(CassiniOval(29.0 + 0.0j, 29.0 + 0.0j, p))
        ((lo, hi),) = section.intervals
        assert lo == pytest.approx(29.0 - math.sqrt(p), abs=1e-12)
        assert hi == pytest.approx(29.0 + math.sqrt(p), abs=1e-12)

    def test_vanishing_lobe_gives_no_spurious_interval(self):
        # np.roots spreads the double root at the left focus to a real pair
        # about 1e-8 apart; x = 0 lies between them but outside the oval
        oval = CassiniOval(-1e-9 + 0.0j, 1.0 + 0.46875j, 1e-64)
        assert region_slack(oval, 0.0) < -1e-9
        assert not section_contains(real_section(oval), 0.0)

    @pytest.mark.parametrize("focus, p, half", [
        (6.99920156889301e-161 + 0.0j, 1.0, 1.0),  # a subnormal curvature at the foci
        (0.0j, 5e-324, math.sqrt(5e-324)),  # a subnormal scale**2
    ])
    def test_subnormal_oval_quantities_do_not_overflow(self, focus, p, half):
        # the RuntimeWarning filter turns an overflow into a failure
        ((lo, hi),) = real_section(CassiniOval(0.0j, focus, p)).intervals
        assert lo == pytest.approx(-half, rel=1e-12) and hi == pytest.approx(half, rel=1e-12)

    @settings(max_examples=300)
    @given(
        a=st.complex_numbers(max_magnitude=50.0),
        b=st.complex_numbers(max_magnitude=50.0),
        p=st.floats(0.0, 1000.0),
        xs=st.lists(st.floats(-200.0, 200.0), max_size=20),
    )
    def test_oval_section_agrees_with_membership(self, a, b, p, xs):
        oval = CassiniOval(a, b, p)
        section = real_section(oval)
        for x in xs + [a.real, b.real]:
            if abs(region_slack(oval, complex(x, 0.0))) > 1e-9:
                assert section_contains(section, x) == region_contains(oval, complex(x, 0.0))

    def test_union_and_intersection_algebra(self):
        union = RegionUnion((Disk(0.0j, 1.0), Disk(1.5 + 0.0j, 1.0)))
        sec = real_section(union)
        assert sec.intervals == ((-1.0, 2.5),)
        inter = RegionIntersection((Disk(0.0j, 1.0), Disk(1.5 + 0.0j, 1.0)))
        sec = real_section(inter)
        assert sec.intervals == ((0.5, 1.0),)

    def test_distinct_isolated_points_stay_distinct(self):
        # points within an absolute 1e-9 of each other were once merged: the
        # section of diag(1e-12, 2e-12, 3e-12) was (1e-12,)
        section = real_section(brauer_region(np.diag([1e-12, 2e-12, 3e-12])))
        assert section == RealSection((), (1e-12, 2e-12, 3e-12))
        section = real_section(brauer_region(np.array([[1e-12, 1e-13], [0.0, 2e-12]])))
        assert 2e-12 in section.isolated_points
        assert real_section(PointSet((1.0, 1.0, 1.0 + 1e-12))) == RealSection((), (1.0, 1.0 + 1e-12))

    def test_point_survives_intersection_only_when_shared(self):
        left = RegionUnion((PointSet((2.0 + 0.0j,)), Disk(0.0j, 1.0)))
        right = RegionUnion((PointSet((2.0 + 0.0j,)), Disk(5.0 + 0.0j, 1.0)))
        sec = real_section(RegionIntersection((left, right)))
        assert sec.isolated_points == (2.0,)
        assert sec.intervals == ()

    def test_sampled_agreement_with_membership(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            region = random_region(rng)
            section = real_section(region)
            xs = rng.uniform(-5, 5, 200)
            for x in xs:
                inside = region_contains(region, complex(x, 0.0))
                in_section = section_contains(section, float(x), 1e-9)
                if inside != in_section:
                    # disagreement may only happen within 1e-9 of a boundary
                    assert abs(region_slack(region, complex(x, 0.0))) <= 1e-6


class TestFixtureContainmentGrid:
    def test_rowsum_region_properly_inside_classical(self):
        gers = gersgorin_region(ROWSUM_3X3)
        refined = rowsum_gersgorin_region(ROWSUM_3X3)
        xs = np.arange(-4.0, 5.0 + 0.025, 0.05)
        grid = xs[None, :] + 1j * xs[:, None]
        inside_refined = region_slack_grid(refined, grid) >= 0
        inside_classical = region_slack_grid(gers, grid) >= -1e-12
        assert np.all(inside_classical[inside_refined])
        strictly_classical = (region_slack_grid(gers, grid) >= 0) & ~inside_refined
        assert strictly_classical.any()


class TestJson:
    def test_region_round_trip_structure(self):
        region = rowsum_brauer_region(ROWSUM_3X3)
        clone = region_from_json(region_to_json(region))
        assert clone == region

    def test_round_trip_membership_sampled(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            region = random_region(rng)
            clone = region_from_json(json.loads(json.dumps(region_to_json(region))))
            pts = rng.uniform(-4, 4, (200, 2))
            zs = pts[:, 0] + 1j * pts[:, 1]
            assert np.array_equal(
                region_slack_grid(region, zs), region_slack_grid(clone, zs)
            )

    def test_matrix_round_trip(self):
        clone = matrix_from_json(matrix_to_json(ROWSUM_3X3))
        assert np.array_equal(clone, ROWSUM_3X3)

    def test_matrix_json_validates_shape(self):
        with pytest.raises(ValueError):
            matrix_from_json(json.dumps({"n": 2, "entries": [[{"re": 1, "im": 0}]]}))

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 1.5, "entries": [[{"re": 1, "im": 0}]]},
            {"n": True, "entries": [[{"re": 1, "im": 0}]]},
            {"n": "1", "entries": [[{"re": 1, "im": 0}]]},
            {"n": 1, "entries": [[5]]},
            {"n": 1, "entries": [[{"re": 1}]]},
            {"n": 1, "entries": [[{"re": [1], "im": 0}]]},
            {"n": 1, "entries": 7},
            {"n": 1, "entries": [[{"re": 10**400, "im": 0}]]},
            {"n": 1, "entries": [[{"re": True, "im": 0}]]},
            {"n": 1, "entries": [[{"re": 1, "im": "2.5"}]]},
        ],
    )
    def test_matrix_json_rejects_malformed(self, obj):
        with pytest.raises(ValueError):
            matrix_from_json(json.dumps(obj))

    def test_region_json_takes_any_real_number(self):
        # a number of another real type, as numpy gives, is read as a float
        disk = region_from_json({"disk": {"center": [0, 0], "radius": np.float64(2.0)}})
        assert disk == Disk(0j, 2.0) and type(disk.radius) is float

    def test_bad_region_node_rejected(self):
        with pytest.raises(ValueError):
            region_from_json({"op": "xor", "children": []})

    @pytest.mark.parametrize(
        "obj",
        [
            {"disk": 1},
            {"disk": {"center": [0, 0]}},
            {"disk": {"center": [0, 0], "radius": "1"}},
            {"disk": {"center": [10**400, 0], "radius": 1}},
            {"oval": {"a": [0, 0], "b": [1, 0], "p": True}},
            {"oval": {"a": [0, 0, 0], "b": [1, 0], "p": 1}},
            {"points": [[1]]},
            {"points": [[math.nan, 0.0]]},
            {"points": 3},
            {"op": "union", "children": 5},
            {"op": "intersection"},
            [],
        ],
    )
    def test_malformed_region_node_rejected(self, obj):
        with pytest.raises(ValueError):
            region_from_json(obj)


def test_constructed_regions_have_depth_at_most_three():
    def depth(region):
        children = getattr(region, "children", None)
        if children is None:
            return 1
        return 1 + max(map(depth, children), default=0)

    rng = np.random.default_rng(36)
    a, _ = random_constant_rowsum_matrix(rng, 5)
    assert depth(gersgorin_region(a)) == 2
    assert depth(brauer_region(a)) == 2
    assert depth(rowsum_gersgorin_region(a)) == 3
    assert depth(rowsum_brauer_region(a)) == 3


def test_disk_rejects_negative_radius():
    with pytest.raises(ValueError):
        Disk(0.0j, -0.5)


def test_oval_rejects_negative_product():
    with pytest.raises(ValueError):
        CassiniOval(0.0j, 0.0j, -1.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_disk_rejects_non_finite_radius(radius):
    with pytest.raises(ValueError):
        Disk(0.0j, radius)


@pytest.mark.parametrize("center", [complex(math.nan, 0.0), complex(0.0, math.inf), math.nan])
def test_disk_rejects_non_finite_centre(center):
    with pytest.raises(ValueError):
        Disk(center, 1.0)


@pytest.mark.parametrize("product", [math.nan, math.inf])
def test_oval_rejects_non_finite_product(product):
    with pytest.raises(ValueError):
        CassiniOval(0.0j, 1.0 + 0.0j, product)


@pytest.mark.parametrize(
    "foci", [(complex(math.nan, 0.0), 1.0j), (0.0j, complex(-math.inf, 0.0))]
)
def test_oval_rejects_non_finite_foci(foci):
    with pytest.raises(ValueError):
        CassiniOval(foci[0], foci[1], 1.0)


@pytest.mark.parametrize("point", [complex(math.nan, 0.0), complex(0.0, -math.inf)])
def test_point_set_rejects_non_finite_points(point):
    with pytest.raises(ValueError):
        PointSet((1.0 + 0.0j, point))


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", '"nan"'])
def test_matrix_json_rejects_non_finite_entries(value):
    text = matrix_to_json(ROWSUM_3X3).replace('"im": 0.0', f'"im": {value}', 1)
    assert text != matrix_to_json(ROWSUM_3X3)
    with pytest.raises(ValueError):
        matrix_from_json(text)


@pytest.mark.parametrize("bad", ["true", '"1"', "10" * 200, "[1]", "null"])
def test_matrix_json_names_a_bad_cell_before_a_non_finite_one(bad):
    # a non-finite entry is named only once every cell is a number
    for nan_at, bad_at in ((0, 1), (1, 0)):
        row = [["1", "0"], ["2", "0"]]
        row[nan_at][0] = "NaN"
        row[bad_at][1] = bad
        cells = ", ".join('{"re": %s, "im": %s}' % tuple(cell) for cell in row)
        text = '{"n": 2, "entries": [[%s], [{"re": 0, "im": 0}, {"re": 0, "im": 0}]]}' % cells
        with pytest.raises(ValueError, match=r"^matrix cells must be \{'re': number, 'im': number\}$"):
            matrix_from_json(text)
    text = '{"n": 1, "entries": [[{"re": 1, "im": NaN}]]}'
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        matrix_from_json(text)


def test_matrix_json_keeps_signed_zeros_and_exact_values():
    text = ('{"n": 2, "entries": [[{"re": -0.0, "im": 0.0}, {"re": 0, "im": -0.0}], '
            '[{"re": 9007199254740993, "im": 0.1}, {"re": -1e308, "im": 5e-324}]]}')
    a = matrix_from_json(text)
    want = [(-0.0, 0.0), (0.0, -0.0), (float(9007199254740993), 0.1), (-1e308, 5e-324)]
    got = [(z.real, z.imag) for z in a.ravel()]
    assert [tuple(map(float.hex, p)) for p in got] == [tuple(map(float.hex, p)) for p in want]


BUILDERS =(gersgorin_region, brauer_region, rowsum_gersgorin_region, rowsum_brauer_region)
METHODS = ("gersgorin", "brauer", "rowsum-gersgorin", "rowsum-brauer")


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize(
    "entry",
    [math.nan, complex(0.0, math.nan), math.inf, -math.inf, 1e308],
    ids=["nan", "nan-imag", "inf", "-inf", "overflow"],
)
def test_builders_reject_non_finite_parameters(builder, entry):
    # constant_row_sum refuses a NaN or infinite entry, but the builders read
    # no refusal of it: they reject these matrices by their parameters; 1e308
    # is finite, and constant_row_sum lets it through, but it overflows the
    # row sums, so the disk radii or oval products would be infinite
    a = build_matrix(cycle(4), GraphMatrixKind.LAPLACIAN).astype(complex)
    a[1, 2] = entry
    if entry == 1e308:
        a = np.full((4, 4), 1e308, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if entry == 1e308:
            assert constant_row_sum(a) is not None
        else:
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                constant_row_sum(a)
        with pytest.raises(ValueError) as info:
            builder(a)
    # the region exists in principle; its parameters are what is wrong
    assert type(info.value) is ValueError


def _table_cases():
    """Constant-row-sum matrices, real and complex, n = 3..12, and the three
    graph matrices of a few graphs."""
    rng = np.random.default_rng(81)
    cases = []
    for n in range(3, 13):
        cases.append(random_constant_rowsum_matrix(rng, n)[0])
        real = rng.standard_normal((n, n))
        real[:, -1] += 1.5 - real.sum(axis=1)
        cases.append(real)
    for g in (cycle(7), complete(6), petersen(), circulant(12, (1, 3, 5))):
        cases += [build_matrix(g, kind) for kind in GraphMatrixKind]
    return cases


def _probe_points(rng, a):
    eigenvalues = np.linalg.eigvals(a)
    scatter = rng.normal(size=(2, 40)) * (1.0 + np.abs(eigenvalues).max())
    return (
        np.concatenate([eigenvalues, scatter[0] + 1j * scatter[1]]),
        # real points: on a real matrix, the path without hypot
        np.concatenate([eigenvalues.real, scatter[0]]),
    )


class TestLeafTable:
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_built_region_matches_its_parsed_tree(self, builder):
        rng = np.random.default_rng(82)
        for a in _table_cases():
            region = builder(a)
            parsed = region_from_json(region_to_json(builder(a)))
            for zs in _probe_points(rng, a):
                built = region_slack_grid(region, zs)
                assert built.tobytes() == region_slack_grid(parsed, zs).tobytes()
                assert region_slack(region, zs[0]) == built[0]
            assert region.leaves() == parsed.leaves()
            assert region.children == parsed.children
            assert region == parsed

    def test_rowsum_leaves_match_python_sums(self):
        # the definition, summed by Python's sum in ascending index order
        for a in _table_cases():
            n = a.shape[0]
            want = [
                [
                    (
                        complex(a[k, k] - a[i, k]),
                        float(sum(abs(a[k, l] - a[i, l]) for l in range(n) if l not in (i, k))),
                    )
                    for k in range(n)
                    if k != i
                ]
                for i in range(n)
            ]
            disks = rowsum_gersgorin_region(a).children
            ovals = rowsum_brauer_region(a).children
            for i in range(n):
                assert [(d.center, d.radius) for d in disks[i].children[:-1]] == want[i]
                got = [(o.focus_a, o.focus_b, o.radius_product) for o in ovals[i].children[:-1]]
                assert got == [
                    (cj, ck, rj * rk) for (cj, rj), (ck, rk) in combinations(want[i], 2)
                ]

    def test_hand_built_union_slack_is_exact(self):
        # a union of every kind of node, nested ones included
        inner = RegionIntersection((Disk(0.5j, 1.0), Disk(-0.5j, 1.0)))
        union = RegionUnion(
            (PointSet((2.0 + 0.0j, 3.0j)), CassiniOval(1.0 + 0.0j, -1.0 + 0.0j, 0.5), inner,
             Disk(4.0 + 0.0j, 0.25), PointSet(()))
        )
        for z in (0.0j, 2.0 + 0.0j, 3.0j, 4.25 + 0.0j, 1.0 + 1.0j, 10.0 + 0.0j):
            want = max(
                -min(abs(z - 2.0), abs(z - 3.0j)),
                0.5 - abs(z - 1.0) * abs(z + 1.0),
                min(1.0 - abs(z - 0.5j), 1.0 - abs(z + 0.5j)),
                0.25 - abs(z - 4.0),
            )
            assert region_slack(union, z) == want
            assert region_slack_grid(union, [z, z])[1] == want
        assert region_slack_grid(RegionUnion(()), [0.0, 1.0]).tolist() == [-math.inf, -math.inf]

    def test_point_slack_is_negative_zero_on_the_point(self):
        # a point leaf's slack is the negated distance; on K_4's adjacency
        # every deflated disk and oval is a point at -1, so gamma = 3 is
        # inside only through the point leaf
        a = build_matrix(complete(4), GraphMatrixKind.ADJACENCY)
        for region in (
            PointSet((3.0 + 0.0j,)),
            RegionUnion((Disk(0.0j, 1.0), PointSet((3.0 + 0.0j,)))),
            rowsum_gersgorin_region(a),
            rowsum_brauer_region(a),
        ):
            assert math.copysign(1.0, region_slack(region, 3.0)) == -1.0


# ---------------------------------------------------------------------------
# the per-leaf loop that the stacked section replaced, kept as its reference


def _reference_leaf_section(leaf, tol):
    if isinstance(leaf, Disk):
        gap = leaf.radius * leaf.radius - leaf.center.imag * leaf.center.imag
        if gap < 0:
            return RealSection((), ())
        half, x = math.sqrt(gap), leaf.center.real
        return RealSection(((x - half, x + half),), ())
    if isinstance(leaf, PointSet):
        return _normalized_section([], [p.real for p in leaf.points if abs(p.imag) <= tol])
    a, b, p = leaf.focus_a, leaf.focus_b, leaf.radius_product
    feet = np.array([a.real, b.real])
    points = [float(x) for x, margin in zip(feet, region_slack_grid(leaf, feet)) if margin >= -tol]
    if p == 0.0:
        return _normalized_section([], points)
    s = 0.5 * (a.real + b.real)
    scale = math.ldexp(1.0, math.frexp(max(abs(a - s), abs(b - s), math.sqrt(p)))[1])
    u, v, p = (a - s) / scale, (b - s) / scale, p / scale / scale
    q = np.polymul(
        [1.0, -2.0 * u.real, u.real * u.real + u.imag * u.imag],
        [1.0, -2.0 * v.real, v.real * v.real + v.imag * v.imag],
    )
    q[-1] -= p * p
    dq = np.polyder(q)
    d2q = np.polyder(dq)

    def spread(y):
        return abs(y - u) * abs(y - v)

    def exact_q(y):
        m = spread(y)
        return m * m - p * p

    def polish(y):
        slope = np.polyval(dq, y)
        return float(y if slope == 0.0 else y - exact_q(y) / slope)

    roots = np.roots(q)
    ends = [polish(y) for y in roots[roots.imag == 0.0].real]
    critical = np.roots(dq)
    for y in critical[critical.imag == 0.0].real:
        y = float(y)
        g, curvature = exact_q(y), float(np.polyval(d2q, y))
        ends.append(y)
        if g * curvature < 0.0:
            half = math.sqrt(-2.0 * g / curvature)
            ends += [y - half, y + half]
        if p - spread(y) >= -tol / scale / scale:
            points.append(s + scale * y)
    ends.sort()
    intervals = [
        (s + scale * left, s + scale * right)
        for left, right in zip(ends, ends[1:])
        if left < right and spread(0.5 * (left + right)) <= p
    ]
    return _normalized_section(intervals, points)


def _reference_section(region, tol=1e-9):
    """Leaf by leaf, unions merged pairwise, intersections as real_section does."""
    if isinstance(region, (Disk, CassiniOval, PointSet)):
        return _reference_leaf_section(region, tol)
    parts = [_reference_section(child, tol) for child in region.children]
    if not parts:
        return RealSection((), ())
    if isinstance(region, RegionUnion):
        return functools.reduce(
            lambda x, y: _normalized_section(
                list(x.intervals) + list(y.intervals),
                list(x.isolated_points) + list(y.isolated_points),
            ),
            parts,
        )
    return functools.reduce(RegionIntersection._section_op, parts)


def _hard_ovals():
    """Ovals that stress the quartic: lemniscates, tangencies, signed zeros,
    coincident and real foci, and every scale."""
    rng = np.random.default_rng(5)
    ovals = [
        CassiniOval(-1 + 0j, 1 + 0j, 1.0),  # a zero constant term: np.roots strips it
        CassiniOval(1j, -1j, 1.0),  # two trailing zeros
        CassiniOval(complex(-0.0, 0.0), complex(0.0, -0.0), 2.0),
        CassiniOval(0j, 0j, 1.0),  # q' = 4 y^3: three stripped zeros
        CassiniOval(-1e-9 + 0j, 1 + 0.46875j, 1e-64),
        CassiniOval(1e200 + 0j, -1e200 + 0j, 1e-100),
        CassiniOval(0j, 1 + 0j, 1e200),
        CassiniOval(1000j, 1000j, 1e6),
    ]
    for k in range(600):
        x, y = rng.normal(size=2)
        scale = 10.0 ** rng.integers(-6, 7)
        a, b = complex(*rng.normal(size=2)) * scale, complex(*rng.normal(size=2)) * scale
        kind = k % 5
        if kind == 0:  # integer real foci
            a, b = complex(int(rng.integers(-4, 5))), complex(int(rng.integers(-4, 5)))
            p = float(rng.integers(0, 10)) / 2
        elif kind == 1:  # mirrored foci, p near the lemniscate's
            a, b = complex(x, y), complex(-x, y) if k % 2 else complex(x, -y)
            p = abs(a - b) ** 2 / 4 * float(rng.choice([1.0, 0.5, 2.0, 1 + 1e-12]))
        elif kind == 2:  # lemniscate through the centre
            p = abs(a - b) ** 2 / 4
        elif kind == 3:  # foci level at height y, tangent to the axis
            a, b = complex(x, y), complex(x + float(rng.integers(0, 2)), y)
            p = y * y * float(rng.choice([1.0, 1 + 1e-15, 1 - 1e-15, 1 + 1e-9]))
        else:
            p = float(rng.random() * scale * scale * rng.choice([1e-6, 1.0, 1e3]))
        ovals.append(CassiniOval(a, b, p))
    return ovals


def _bitwise(section):
    return (
        [(lo.hex(), hi.hex()) for lo, hi in section.intervals],
        [x.hex() for x in section.isolated_points],
    )


def test_stacked_oval_sections_match_the_per_oval_loop_bit_for_bit():
    for oval in _hard_ovals():
        assert _bitwise(real_section(oval)) == _bitwise(_reference_section(oval)), oval


@pytest.mark.parametrize("builder", BUILDERS)
def test_stacked_region_sections_match_the_leaf_loop_bit_for_bit(builder):
    rng = np.random.default_rng(83)
    cases = [a for a in _table_cases() if a.shape[0] <= 10]
    for n in range(3, 9):
        for _ in range(4):
            cases.append(random_constant_rowsum_matrix(rng, n)[0])
            cases.append(2.0 * rng.random((n, n)) - 1.0)
    for a in cases:
        try:
            region = builder(a)
        except RegionUnavailable:
            continue
        assert _bitwise(real_section(region)) == _bitwise(_reference_section(region))
    for _ in range(40):
        region = random_region(rng)
        assert _bitwise(real_section(region)) == _bitwise(_reference_section(region))


def test_sections_hold_every_real_eigenvalue_at_every_scale():
    # diagonal and upper-triangular integer matrices, half given a constant
    # row sum in their last column, scaled by 2^-40, 1 and 2^40: their
    # eigenvalues are their diagonals, exactly, and each builder's section
    # holds each within 1e-8 ||A||_2.  Isolated points within 1e-9 of each
    # other were once merged, and a matrix near zero took a row sum it does
    # not have: 208 of 1,536 sections missed one.  The one miss left is an
    # interval end rounded by 2^-12 at 2^40 past an eigenvalue on its oval,
    # which the absolute 1e-9 of the intersection's point rule does not
    # bridge (an open defect of the near-axis rules at large magnitudes)
    rng = np.random.default_rng(39)
    sections, missed = 0, []
    for n in range(2, 7):
        for draw in range(32):
            a = np.triu(rng.integers(-4, 5, (n, n))).astype(float)
            if draw % 2 == 0:
                a = np.diag(np.diag(a))
            if draw % 4 >= 2:
                a[:, -1] += float(rng.integers(-4, 5)) - a.sum(axis=1)
            for scale in (2.0**-40, 1.0, 2.0**40):
                m = a * scale
                tol = 1e-8 * np.linalg.norm(m, 2)
                for builder in BUILDERS:
                    try:
                        section = real_section(builder(m))
                    except RegionUnavailable:
                        continue
                    sections += 1
                    missed += [(builder.__name__, scale, a.tolist(), x) for x in np.diag(m).tolist()
                               if not section_contains(section, x, tol)]
    assert sections == 1392
    assert missed == [("rowsum_brauer_region", 2.0**40, [[1.0, -4.0, -1.0], [0.0, 0.0, -4.0],
                                                          [0.0, 0.0, -4.0]], 0.0)]


# ---------------------------------------------------------------------------
# the least slack of a builder's region against its grid, and the grid of a
# hand-built tree against a per-leaf reference


def _reference_leaf_slack(leaf, w: complex) -> float:
    # each leaf's inequality in Python arithmetic: abs(complex) rounds like
    # np.hypot, and a point's slack is -0.0 less its distance
    if isinstance(leaf, Disk):
        return leaf.radius - abs(w - leaf.center)
    if isinstance(leaf, CassiniOval):
        return leaf.radius_product - abs(w - leaf.focus_a) * abs(w - leaf.focus_b)
    return max((-0.0 - abs(w - point) for point in leaf.points), default=-math.inf)


def _reference_slack(node, w: complex) -> float:
    """The slack of ``node`` at ``w`` from its leaves': the largest of a
    union's children's, the least of an intersection's, -inf if none."""
    if isinstance(node, (RegionUnion, RegionIntersection)):
        reduce = max if isinstance(node, RegionUnion) else min
        return reduce((_reference_slack(child, w) for child in node.children), default=-math.inf)
    return _reference_leaf_slack(node, w)


def _check_grid(tree, points):
    """The grid of a hand-built tree against the per-leaf reference, point by
    point (a zero of either sign matches the other)."""
    grid = region_slack_grid(tree, points)
    assert grid.tolist() == [_reference_slack(tree, complex(w)) for w in points]


def _least_slack(a, method: str, points) -> tuple:
    """_least_slacks's (least slack, index of the first point at it) of the
    builder's region of ``method`` for the matrix ``a`` over ``points``, read
    from the matrix's facts as stack_least_slacks reads them."""
    facts = MatrixFacts(a)
    kind, deflated = facts._shape(method)
    centers, radii, gamma = facts.sources(deflated, [0])
    z = eigenloc.regions._points(np.asarray([points]), 1)
    ((found,),) = eigenloc.regions._least_slacks(z, centers, radii, gamma, [kind])
    return found


def _check_min_slack(builder, a, points):
    """The builder's region of ``a`` and its grid over ``points``, whose least
    and first point at it are _least_slacks's, bit for bit."""
    region = builder(a)
    grid = region_slack_grid(region, points)
    slack, at = _least_slack(a, METHODS[BUILDERS.index(builder)], points)
    assert np.float64(slack).tobytes() == grid.min().tobytes(), (slack, grid.min())
    assert at == int(grid.argmin())
    return region, grid


def _made_no_leaf(region) -> bool:
    """Whether no union of a builder's region has made its leaf objects."""
    unions = region.children if isinstance(region, RegionIntersection) else (region,)
    return not any("children" in union.__dict__ for union in unions)


def _with_ties(values):
    # the values, and the values rounded, which lands graph spectra on
    # integers and so on leaf boundaries and on gamma
    values = np.asarray(values, dtype=complex)
    return np.concatenate([values, np.round(values, 9)])


@functools.cache
def _atlas_matrices() -> tuple:
    """(matrix, its eigenvalues with ties) of the three graph matrices of
    every connected atlas graph on 2 to 7 vertices."""
    from ._corpus import atlas_graphs

    cases = []
    for h, g in atlas_graphs():
        if g.n >= 2 and nx.is_connected(h):
            for kind in GraphMatrixKind:
                a = build_matrix(g, kind)
                cases.append((a, _with_ties(np.linalg.eigvalsh(a))))
    return tuple(cases)


@pytest.mark.parametrize("builder", BUILDERS)
def test_min_slack_on_atlas_graph_matrices(builder):
    checked = 0
    for a, points in _atlas_matrices():
        try:
            _check_min_slack(builder, a, points)
        except RegionUnavailable:
            continue
        checked += 1
    assert checked >= 995


@pytest.mark.parametrize("builder", BUILDERS)
def test_min_slack_on_random_matrices_and_their_json(builder):
    rng = np.random.default_rng(84)
    for n in range(2, 17):
        for a in (
            random_constant_rowsum_matrix(rng, n)[0],
            rng.random((n, n)) + 1j * rng.random((n, n)),
            rng.standard_normal((n, n)),
            np.round(4.0 * rng.standard_normal((n, n))) - np.diag(np.full(n, 0.5)),
        ):
            a = a.copy()
            if n > 2 and rng.random() < 0.5:
                a[:, -1] += 1.5 - a.sum(axis=1)  # a constant row sum
            eigenvalues = np.linalg.eigvals(a)
            scatter = rng.normal(size=(2, 8)) * (1.0 + np.abs(eigenvalues).max())
            points = np.concatenate([_with_ties(eigenvalues), scatter[0] + 1j * scatter[1]])
            try:
                region, grid = _check_min_slack(builder, a, points)
            except RegionUnavailable:
                continue
            # the parsed tree, made from its leaves, has the same grid
            parsed = region_from_json(region_to_json(region))
            assert region_slack_grid(parsed, points).tobytes() == grid.tobytes()


def test_branch_and_bound_visits_every_tie(monkeypatch):
    # bound every pair, in passes of one pair
    monkeypatch.setattr(eigenloc.regions, "_PASS_ROWS", 1)
    # two equal components, each a disk of radius 2 at 0 and one of radius 1
    # at 10: at 10 the larger disk's bound is loose, so the bounds start
    # there, and the same least slack at 1, an earlier point with a tight
    # bound, must still be visited
    centers, radii = np.array([[0.0j, 10.0 + 0.0j]] * 2), np.array([[2.0, 1.0]] * 2)
    region = _table_region(centers, radii, _DISK, 100.0 + 0.0j)
    for points in ([10.0, 1.0], [1.0, 10.0]):
        ((found,),) = eigenloc.regions._least_slacks(
            np.array([points]), centers[None], radii[None], np.array([100.0 + 0.0j]), [_DISK])
        assert found == (1.0, 0)
        assert region_slack_grid(region, points).tolist() == [1.0, 1.0]
    # vertex-transitive graphs tie every component at every point
    for g in (petersen(), circulant(12, (1, 3)), circulant(16, (1, 2, 5)), complete(6)):
        for kind in GraphMatrixKind:
            a = build_matrix(g, kind)
            for builder in (rowsum_gersgorin_region, rowsum_brauer_region):
                _check_min_slack(builder, a, _with_ties(np.linalg.eigvalsh(a)))
    for a, points in _atlas_matrices()[::7]:
        try:
            _check_min_slack(rowsum_brauer_region, a, points)
        except RegionUnavailable:
            continue


def test_min_slack_on_hand_built_trees():
    inner = RegionIntersection((Disk(0.5j, 1.0), Disk(-0.5j, 1.0)))
    nested = RegionUnion(
        (PointSet((2.0 + 0.0j, 3.0j)), CassiniOval(1.0 + 0.0j, -1.0 + 0.0j, 0.5), inner,
         RegionUnion((Disk(4.0 + 0.0j, 0.25), PointSet(()))), Disk(-4.0 + 0.0j, 1.0))
    )
    trees = [
        nested,
        RegionIntersection((nested, RegionUnion((Disk(0.0j, 5.0), inner)))),
        RegionIntersection((inner, RegionIntersection((Disk(0.0j, 2.0), nested)))),
        RegionIntersection(()),
        RegionUnion(()),
        PointSet((1.0 + 0.0j, 2.0 + 0.0j)),
        CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 1.0),
    ]
    points = [
        0.0j, 2.0 + 0.0j, 3.0j, 4.25 + 0.0j, 1.0 + 1.0j, 10.0 + 0.0j, -3.0 + 0.0j,
        1.5j, 2.0 + 0.0j, 0.0j,  # on boundaries, and repeated
    ]
    for tree in trees:
        for k in range(1, len(points) + 1):
            _check_grid(tree, points[:k])
    assert region_slack_grid(RegionIntersection(()), [1.0, 2.0]).tolist() == [-math.inf] * 2
    # at 0 the union's slack is the nested intersection's, a tie of its disks
    assert region_slack_grid(nested, [0.0j]).tolist() == [0.5]


def test_min_slack_ties_at_gamma():
    # K_4's adjacency: every deflated disk and oval is a point at -1, so each
    # eigenvalue sits on a leaf, and gamma = 3 only on the point leaf, with
    # slack -0.0; K_5's Laplacian has gamma = 0 and the eigenvalue 5 five
    # times over
    for a, points in (
        (build_matrix(complete(4), GraphMatrixKind.ADJACENCY), [3.0, -1.0, -1.0, -1.0]),
        (build_matrix(complete(4), GraphMatrixKind.ADJACENCY), [-1.0, 3.0, -1.0, 3.0]),
        (build_matrix(complete(5), GraphMatrixKind.LAPLACIAN), [0.0, 5.0, 5.0, 5.0, 5.0]),
        (build_matrix(cycle(8), GraphMatrixKind.ADJACENCY), [2.0, -2.0, 0.0, 2.0]),
    ):
        for builder in BUILDERS:
            _check_min_slack(builder, a, points)
    k4 = build_matrix(complete(4), GraphMatrixKind.ADJACENCY)
    slack, at = _least_slack(k4, "rowsum-gersgorin", [3.0])
    assert math.copysign(1.0, slack) == -1.0 and at == 0


@pytest.mark.parametrize("points", [[], np.array([]), [0.0, math.nan], [complex(0.0, math.nan)],
                                    [math.inf], [1.0, -math.inf * 1j]])
def test_min_slack_rejects_empty_or_non_finite_points(points):
    facts = MatrixFacts(build_matrix(petersen(), GraphMatrixKind.LAPLACIAN))
    with pytest.raises(ValueError, match="points must be nonempty and finite") as info:
        stack_least_slacks(facts, [points], METHODS)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("points, lengths", [([[1.0], [1.0, 2.0]], "1, 2"),
                                             ([[1.0, 2.0], [3.0j]], "2, 1"),
                                             ([np.ones(3), [1.0, 2.0]], "3, 2")])
def test_ragged_points_are_refused_in_our_words(points, lengths):
    # once numpy's "setting an array element with a sequence ... inhomogeneous shape"
    rule = re.escape(f"points must be rows of one length (one row per matrix of a stack): got rows of lengths {lengths}")
    with pytest.raises(ValueError, match=rule) as info:
        stack_least_slacks(MatrixFacts(np.eye(2), 2.0 * np.eye(2)), points, METHODS)
    assert type(info.value) is ValueError


def test_min_slack_of_far_points_takes_the_stacked_route():
    # points and foci near 1e308: a distance can overflow, which makes its
    # bound -inf, and the answer is still the grid's
    a = np.array([[1e307, 0.0, -1e307], [0.0, -1e307, 1e307], [0.0, 0.0, 0.0]]) + 0.0j
    points = [1.5e308, -1e307, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (least,) = stack_least_slacks(MatrixFacts(a), [points], ["rowsum-brauer"])
    with np.errstate(over="ignore", invalid="ignore"):
        _, grid = _check_min_slack(rowsum_brauer_region, a, points)
    assert np.float64(least["rowsum-brauer"]).tobytes() == grid.min().tobytes()


@pytest.mark.parametrize("pass_rows", [None, 1], ids=["one pass", "bounds"])
def test_min_slack_of_far_points_is_quiet_and_makes_no_component(pass_rows, monkeypatch):
    # points past 2**1022 once sent the call to the per-component route,
    # whose magnitude check itself overflowed
    if pass_rows is not None:
        monkeypatch.setattr(eigenloc.regions, "_PASS_ROWS", pass_rows)
    a = np.array([[1e307, 0.0, -1e307], [0.0, -1e307, 1e307], [0.0, 0.0, 0.0]]) + 0.0j
    points = np.array([1.75e308, 1.5e308]) + 0.0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (least,) = stack_least_slacks(MatrixFacts(a), [points], ["rowsum-brauer"])
        region, grid = _check_min_slack(rowsum_brauer_region, a, points)
        assert _made_no_leaf(region)
    assert np.float64(least["rowsum-brauer"]).tobytes() == grid.min().tobytes()


def test_each_builder_makes_its_own_deflation_table(monkeypatch):
    made = count_first_reads(monkeypatch, MatrixFacts, "deflation_table")
    a = build_matrix(petersen(), GraphMatrixKind.LAPLACIAN)
    # each builder wraps a bare matrix afresh
    rowsum_gersgorin_region(a)
    rowsum_brauer_region(a)
    assert len(made) == 2 and made[0] is not made[1]
    centers, radii = MatrixFacts(a).deflation_table
    assert not centers.flags.writeable and not radii.flags.writeable
    with pytest.raises(ValueError):
        radii[0, 0] = 1.0


def test_no_matrix_fact_outlives_its_builder():
    a = build_matrix(circulant(200, (1, 2, 3)), GraphMatrixKind.LAPLACIAN)
    tracemalloc.start()
    try:
        for builder in (gersgorin_region, rowsum_gersgorin_region):
            builder(a)  # its copy of a and its deflation table are 1.3 MB
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 18


def test_real_matrix_facts_make_one_real_copy():
    # a real matrix was once cast to complex before its real part was kept:
    # three times its bytes at the peak
    a = build_matrix(circulant(512, (1, 5, 17)), GraphMatrixKind.LAPLACIAN)
    tracemalloc.start()
    try:
        facts = MatrixFacts(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * a.nbytes
    assert facts.matrix.dtype == float and not np.shares_memory(facts.matrix, a)
    assert np.array_equal(facts.matrix[0], a)


@pytest.mark.parametrize("builder", BUILDERS)
def test_min_slack_makes_no_component_of_a_builders_region(builder):
    # a builder's region is asked for its least slack through its tables,
    # which are _least_slacks's; neither its grid nor the pass makes a leaf
    # object
    rng = np.random.default_rng(85)
    for n in range(3, 9):
        a, _ = random_constant_rowsum_matrix(rng, n)
        region, grid = _check_min_slack(builder, a, np.linalg.eigvals(a))
        assert grid.min() != 0.0
        assert _made_no_leaf(region)


def test_a_builders_unions_share_its_arrays():
    # each union's rows are views of one row of the builder's arrays, so n
    # unions hold no n copies of them, and share one pair of row indices
    a, _ = random_constant_rowsum_matrix(np.random.default_rng(86), 7)
    region = rowsum_brauer_region(a)
    unions = region.children
    assert len(unions) == 7
    for name in ("_anchors", "_bounds"):
        whole = getattr(unions[0], name).base
        assert whole is not None and whole.nbytes == sum(getattr(u, name).nbytes for u in unions)
        assert all(np.shares_memory(getattr(u, name), whole) for u in unions)
    assert all(u._first is unions[0]._first and u._second is unions[0]._second for u in unions)
    assert _made_no_leaf(region)


@pytest.mark.parametrize("builder", BUILDERS)
def test_built_region_equals_the_node_made_from_its_children(builder):
    for a in _table_cases():
        want = real_section(builder(a))
        region = builder(a)
        rebuilt = type(region)(region.children)
        assert rebuilt == region
        assert region_to_json(rebuilt) == region_to_json(region)
        assert _bitwise(real_section(rebuilt)) == _bitwise(want)


def test_builders_regions_nested_in_hand_built_trees():
    # a builder's region nested in a hand-built tree sections and bounds as
    # the tree's own children do
    rng = np.random.default_rng(86)
    for n in range(3, 8):
        a, gamma = random_constant_rowsum_matrix(rng, n)
        points = np.concatenate([np.linalg.eigvals(a), rng.normal(size=8) + 1j * rng.normal(size=8)])
        for builder in BUILDERS:
            region = builder(a)
            for tree in (RegionIntersection((region, Disk(gamma, 1.0))),
                         RegionUnion((Disk(gamma, 0.5), region)),
                         RegionIntersection((RegionUnion((region,)), region))):
                assert _bitwise(real_section(tree)) == _bitwise(_reference_section(tree))
                _check_grid(tree, points)


# ---------------------------------------------------------------------------
# stack_least_slacks, the one pass that verify makes


def _built_regions(a) -> tuple[dict, ValueError | None]:
    """The region of each method whose builder makes one for ``a``, and the
    first ValueError other than RegionUnavailable that a builder raises, in
    the builders' order (None if none); the builders after it do not run."""
    regions = {}
    for method, builder in zip(METHODS, BUILDERS):
        try:
            regions[method] = builder(a)
        except RegionUnavailable:
            continue
        except ValueError as exc:
            return regions, exc
    return regions, None


def _least_slack_corpus():
    """(matrix, points): the three graph matrices of the atlas graphs on 3 to
    6 vertices and of ``family_corpus(32)`` at their ``Graph.spectrum``; and
    seeded real and complex matrices, n = 1..16, with and without a constant
    row sum, at scales 1, 1e+-150 and 1e+-300, at their eigenvalues (also
    rounded, for ties) and at scattered points, scaled alike."""
    from ._corpus import atlas_graphs, family_corpus

    graphs = [g for _, g in atlas_graphs() if 3 <= g.n <= 6] + [g for _, g in family_corpus(32)]
    for g in graphs:
        for kind in GraphMatrixKind:
            if kind != GraphMatrixKind.NORMALIZED_ADJACENCY or min(g.degree_sequence) > 0:
                yield build_matrix(g, kind), np.asarray(g.spectrum(kind).values)
    rng = np.random.default_rng(86)
    for n in range(1, 17):
        for imag in (0.0, 1.0):
            for rowsum in (False, True):
                a = rng.standard_normal((n, n)) + 1j * imag * rng.standard_normal((n, n))
                if rowsum:
                    a[:, -1] += 1.5 - a.sum(axis=1)
                a = a if imag else a.real
                scatter = rng.normal(size=(2, 4)) * (1.0 + np.abs(np.linalg.eigvals(a)).max())
                points = np.concatenate([_with_ties(np.linalg.eigvals(a)), scatter[0] + 1j * scatter[1]])
                for scale in (1.0, 1e150, 1e-150, 1e300, 1e-300):
                    yield a * scale, points * scale


def test_least_slacks_are_the_grids_bit_for_bit(monkeypatch):
    # stack_least_slacks of all four methods on a stack of one against the
    # builders' regions: each slack is the least of the region's grid, bit
    # for bit, _least_slacks's first point at it is the grid's, and a
    # builder's refusal is raised in its words; with one row a pass as well,
    # where every table is made a point (or a pair) at a time and every
    # region takes the branch and bound
    bounded, taken = eigenloc.regions._bounded_slacks, set()

    def spy(z, anchors, radii, *rest):  # (kind, stacked) of each bounded region
        taken.add((rest[1], anchors.shape[-1] > radii.shape[-1]))
        return bounded(z, anchors, radii, *rest)

    monkeypatch.setattr(eigenloc.regions, "_bounded_slacks", spy)
    checked = 0
    for a, points in _least_slack_corpus():
        regions, refusal = _built_regions(a)
        grids = {method: region_slack_grid(region, points) for method, region in regions.items()}
        for pass_rows in (2**14, 1):
            monkeypatch.setattr(eigenloc.regions, "_PASS_ROWS", pass_rows)
            if refusal is not None:
                with pytest.raises(type(refusal), match=re.escape(str(refusal))):
                    stack_least_slacks(MatrixFacts(a), [points], METHODS)
                continue
            taken.clear()
            (least,) = stack_least_slacks(MatrixFacts(a), [points], METHODS)
            assert least.keys() == regions.keys()
            if pass_rows == 1:
                assert taken == {(int("brauer" in m), m.startswith("rowsum")) for m in regions}
            for method, grid in grids.items():
                assert np.float64(least[method]).tobytes() == grid.min().tobytes(), method
                assert _least_slack(a, method, points)[1] == int(grid.argmin()), method
                checked += 1
    assert checked >= 7000


def test_bounded_tables_hold_the_unions_slacks(monkeypatch):
    # at 64 rows a pass, the deflated oval region of a circulant's Laplacian
    # and the oval region of a seeded real matrix are bounded: each finite
    # entry of the (component x point) table is its union's slack from the
    # builder's region, bit for bit, and each pair left (inf) has a true
    # slack strictly above the table's least
    monkeypatch.setattr(eigenloc.regions, "_PASS_ROWS", 64)
    bounded, tables = eigenloc.regions._bounded_slacks, []
    monkeypatch.setattr(eigenloc.regions, "_bounded_slacks",
                        lambda *args: tables.append(bounded(*args)) or tables[-1])
    a = build_matrix(circulant(28, (1, 3, 7)), GraphMatrixKind.LAPLACIAN)
    b = np.random.default_rng(45).standard_normal((20, 20))
    for matrix, method, points in ((a, "rowsum-brauer", np.linalg.eigvalsh(a)),
                                   (b, "brauer", np.linalg.eigvals(b))):
        tables.clear()
        (least,) = stack_least_slacks(MatrixFacts(matrix), [points], [method])
        (table,) = tables
        region = BUILDERS[METHODS.index(method)](matrix)
        unions = region.children if isinstance(region, RegionIntersection) else (region,)
        truth = np.array([region_slack_grid(union, points) for union in unions])
        left = np.isinf(table)
        assert left.any() and not left.all()
        assert table[~left].tobytes() == truth[~left].tobytes()
        assert (truth[left] > table.min()).all()
        assert least[method] == table.min() == region_slack_grid(region, points).min()


def test_a_large_regions_least_slack_is_bounded_a_block_at_a_time():
    # the deflated oval region of a 128-vertex circulant's Laplacian has
    # 128 unions of 8002 rows: the pass bounds it at most _PASS_ROWS rows at
    # a time (about 1.4 MB), never over the whole table of margins (about
    # 24 MB)
    a = build_matrix(circulant(128, (1, 5, 17)), GraphMatrixKind.LAPLACIAN)
    points = np.linalg.eigvalsh(a)
    tracemalloc.start()
    try:
        (least,) = stack_least_slacks(MatrixFacts(a), [points], ["rowsum-brauer"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    slack, at = _least_slack(a, "rowsum-brauer", points)
    assert least["rowsum-brauer"] == slack == region_slack(rowsum_brauer_region(a), points[at])


def test_deflation_table_is_the_loops_bit_for_bit(monkeypatch):
    # a regular graph's normalized matrix; seeded real and complex matrices,
    # which take the generic pass (a real one past n = 1); and
    # real matrices whose entries off the diagonal are 0 (of either sign) or
    # one value v, in patterns that are not symmetric, which are counted on
    # their pattern, v = 1e307 past the float range (inf, with no warning);
    # one NaN, infinite, negated or doubled entry off the diagonal, or an
    # infinite v, sends such a matrix to the generic pass
    from ._reference import deflation_table

    rng = np.random.default_rng(87)
    cases = [(build_matrix(circulant(20, (1, 4)), GraphMatrixKind.NORMALIZED_ADJACENCY), False)]
    for n in range(1, 18):
        cases += [(rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300), None),
                  (rng.random((n, n)) + 1j * rng.random((n, n)), True)]
    for n, v in itertools.product((1, 2, 3, 6, 11), (1.0, -1.0, 0.3, -2.5e-3, 1 / 3, 1e300, 5e-324)):
        a = np.where(rng.random((n, n)) < 0.6, v, np.where(rng.random((n, n)) < 0.5, -0.0, 0.0))
        a[np.diag_indices(n)] = rng.standard_normal(n)
        cases.append((a, False))
        for entry in (math.nan, math.inf, -math.inf, -v, 2.0 * v)[: 5 * (n > 2)]:
            b = a.copy()
            b[0, 1] = entry
            cases.append((b, True))
        for entry in (math.inf, -math.inf)[: 2 * (n > 2)]:  # two-valued, v not finite
            cases.append((np.where(a == v, entry, a), True))
    far = np.zeros((24, 24))
    far[:12] = 1e307  # 22 terms of 1e307 in each radius of row i < 12 and column k >= 12
    cases.append((far, False))
    passes, generic = [], eigenloc.regions._generic_radii
    monkeypatch.setattr(eigenloc.regions, "_generic_radii", lambda a: passes.append(len(a)) or generic(a))
    for pass_rows in (None, 1, 60):  # chunks of all l, of one l, of a few
        if pass_rows is not None:
            monkeypatch.setattr(eigenloc.regions, "_PASS_ROWS", pass_rows)
        for a, generic_pass in cases:
            passes.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                centers, radii = MatrixFacts(a).deflation_table
            with np.errstate(invalid="ignore"):  # inf - inf is a NaN term
                want_centers, want_radii = deflation_table(a)
            assert np.asarray(centers, dtype=complex).tobytes() == want_centers.tobytes()
            assert radii.tobytes() == want_radii.tobytes()
            assert generic_pass is None or passes == [1] * generic_pass, a
    assert np.isinf(MatrixFacts(far).deflation_table[1]).any()


def test_graph_deflation_tables_are_the_loops_bit_for_bit(monkeypatch):
    # a graph matrix has entries 0 and one value off the diagonal, so its
    # radii are counted on its pattern, but for the normalized matrix of a
    # non-regular graph, which takes the generic pass: each table, alone
    # and in the stack that verify makes of the graph's matrices, is the
    # entry-by-entry loop's byte for byte, signed zeros included, on every
    # atlas graph on 2 to 7 vertices, seeded random graphs and random
    # regular graphs of degrees whose reciprocal is not a double
    from eigenloc.graphs import Graph

    from ._corpus import atlas_graphs
    from ._reference import deflation_table

    rng = np.random.default_rng(90)
    graphs = [g for _, g in atlas_graphs() if g.n >= 2]
    for n, p in itertools.product(range(8, 41, 4), (0.1, 0.5, 0.9)):
        graphs.append(Graph.from_edges(n, [(i, j) for i, j in combinations(range(1, n + 1), 2)
                                           if rng.random() < p]))
    for n in range(8, 42, 3):
        for d in (3, 5, 6, 7, n // 2 - 1):
            h = nx.random_regular_graph(d, n + n * d % 2, seed=n)
            graphs.append(Graph.from_edges(len(h), [(u + 1, v + 1) for u, v in h.edges()]))
        graphs += [circulant(n, (1, 4)), circulant(n, (2, n // 3))]
    passes, generic = [], eigenloc.regions._generic_radii
    monkeypatch.setattr(eigenloc.regions, "_generic_radii", lambda a: passes.append(len(a)) or generic(a))
    counted = dict.fromkeys(GraphMatrixKind, 0)
    for g in graphs:
        kinds = [kind for kind in GraphMatrixKind if kind.value != "normalized" or min(g.degree_sequence)]
        matrices = [build_matrix(g, kind) for kind in kinds]
        stack = MatrixFacts(*matrices).deflation_table
        for at, (kind, a) in enumerate(zip(kinds, matrices)):
            passes.clear()
            alone = [part[0] for part in MatrixFacts(a).deflation_table]
            counted[kind] += not passes
            assert bool(passes) == (kind.value == "normalized" and g.structure.regular is None)
            want_centers, want_radii = deflation_table(a)
            for centers, radii in (alone, [part[at] for part in stack]):
                assert centers.dtype == radii.dtype == float and radii.shape == (g.n, g.n - 1)
                assert np.asarray(centers, dtype=complex).tobytes() == want_centers.tobytes(), g.edges
                assert radii.tobytes() == want_radii.tobytes(), (g.edges, kind)
    assert list(counted.values()) == [1362, 1362, 104]


def test_a_stack_runs_the_generic_pass_once_on_its_other_matrices(monkeypatch):
    # in a stack that mixes two-valued matrices with others, the generic
    # pass runs once, on the others alone and in their order; a stack with
    # no two-valued matrix passes itself whole, as a view; two matrices of
    # one pattern but different values share its count and keep their own
    # radii; each table is the matrix's own alone, bit for bit
    rng = np.random.default_rng(93)
    n = 7
    pattern = rng.random((n, n)) < 0.5
    two_valued = [np.where(pattern, v, 0.0) + np.diag(rng.standard_normal(n)) for v in (1.0, -0.3, 2.5)]
    others = [rng.standard_normal((n, n)) for _ in range(3)]
    seen, generic = [], eigenloc.regions._generic_radii
    monkeypatch.setattr(eigenloc.regions, "_generic_radii", lambda a: seen.append(a) or generic(a))
    for order in ([0, 3, 1, 4, 5, 2], [3, 4, 5], [0, 1, 2], [4, 0]):
        matrices = [(two_valued + others)[i] for i in order]
        mixed = [a for i, a in zip(order, matrices) if i >= 3]
        alone = [MatrixFacts(a).deflation_table for a in matrices]
        seen.clear()
        facts = MatrixFacts(*matrices)
        stack = facts.deflation_table
        assert len(seen) == (1 if mixed else 0)
        if mixed:
            assert np.array_equal(seen[0], np.stack(mixed))
            assert np.shares_memory(seen[0], facts.matrix) == (len(mixed) == len(matrices))
        for at, (centers, radii) in enumerate(alone):
            assert stack[0][at].tobytes() == centers[0].tobytes()
            assert stack[1][at].tobytes() == radii[0].tobytes()
    radii = MatrixFacts(*two_valued).deflation_table[1]
    counts = radii[0].astype(int)  # v = 1: each radius is its count
    for m, v in ((1, 0.3), (2, 2.5)):
        assert radii[m].tobytes() == np.add.accumulate([0.0] + [v] * n)[counts].tobytes()


def test_a_stack_decides_which_matrices_are_two_valued_as_each_alone(monkeypatch):
    # the two-valued test runs on the whole stack at once: in one stack of
    # matrices that are two-valued (v of either sign, subnormal, or 1e300,
    # with zeros of either sign), two-valued but for one NaN, infinite,
    # negated or doubled entry, two-valued with v infinite, or all zero off
    # the diagonal, each matrix gets the table it has alone, bit for bit,
    # and the generic pass sees exactly those that are not two-valued
    rng = np.random.default_rng(94)
    n, matrices, expect_generic = 6, [], []
    for v in (1.0, -0.3, 5e-324, 1e300):
        a = np.where(rng.random((n, n)) < 0.5, v, np.where(rng.random((n, n)) < 0.5, -0.0, 0.0))
        a[np.diag_indices(n)] = rng.standard_normal(n)
        matrices.append(a)
        expect_generic.append(False)
        for entry in (math.nan, math.inf, -v, 2.0 * v):
            b = a.copy()
            b[2, 4] = entry
            matrices.append(b)
            expect_generic.append(True)
        matrices.append(np.where(a == v, math.inf, a))
        expect_generic.append(True)
    matrices.append(np.diag(rng.standard_normal(n)))
    expect_generic.append(False)
    alone = [MatrixFacts(a).deflation_table for a in matrices]
    seen, generic = [], eigenloc.regions._generic_radii
    monkeypatch.setattr(eigenloc.regions, "_generic_radii", lambda a: seen.append(a) or generic(a))
    stack = MatrixFacts(*matrices).deflation_table
    assert len(seen) == 1
    assert np.array_equal(seen[0], np.stack([a for a, g in zip(matrices, expect_generic) if g]), equal_nan=True)
    for at, (centers, radii) in enumerate(alone):
        assert stack[0][at].tobytes() == centers[0].tobytes()
        assert stack[1][at].tobytes() == radii[0].tobytes()


def test_stacked_slacks_are_each_matrix_own_bit_for_bit(monkeypatch):
    # the matrices of every atlas graph on at most 6 vertices, stacked as
    # verify stacks them (two where a vertex is isolated), each at its own
    # spectrum and at that spectrum rounded, which lands on leaf boundaries
    # and gamma: each matrix's methods are those its builders make, and each
    # slack is the least of the builder's region's grid, bit for bit; with
    # one row a pass as well
    from ._corpus import atlas_graphs

    checked, zeros, short = 0, set(), 0
    default = eigenloc.regions._PASS_ROWS
    for _, g in atlas_graphs():
        if g.n > 6:
            break
        kinds = [k for k in GraphMatrixKind
                 if k != GraphMatrixKind.NORMALIZED_ADJACENCY or min(g.degree_sequence) > 0]
        matrices = [build_matrix(g, kind) for kind in kinds]
        points = [np.round(g.spectrum(kind).values, 9) for kind in kinds]
        short += len(kinds) == 2
        wants = []
        for a, z in zip(matrices, points):
            regions, refusal = _built_regions(a)
            assert refusal is None
            wants.append({method: region_slack_grid(region, z).min().tobytes()
                          for method, region in regions.items()})
        for pass_rows in (default, 1):
            monkeypatch.setattr(eigenloc.regions, "_PASS_ROWS", pass_rows)
            stacked = stack_least_slacks(MatrixFacts(*matrices), points, METHODS)
            for want, least in zip(wants, stacked):
                assert least.keys() == want.keys()
                for method, slack in least.items():
                    assert np.float64(slack).tobytes() == want[method], (g.edges, method)
                    if slack == 0.0:
                        zeros.add(want[method])
                    checked += 1
        monkeypatch.setattr(eigenloc.regions, "_PASS_ROWS", default)
    assert checked == 3794 and short == 53
    assert zeros == {np.float64(0.0).tobytes(), np.float64(-0.0).tobytes()}


def test_a_stack_of_complex_row_sum_matrices_is_each_matrix_own():
    # every matrix of a stack has its deflation table made by one pass,
    # which once left a stack of more than one laid out by column, so that
    # the oval check's view of complex centres as floats raised; each least
    # slack is the least of the lone builder's region's grid, bit for bit
    rng = np.random.default_rng(92)
    for n in (3, 4, 7):
        matrices = [random_constant_rowsum_matrix(rng, n)[0] for _ in range(3)]
        points = [np.linalg.eigvals(a) for a in matrices]
        facts = MatrixFacts(*matrices)
        assert all(part.flags.c_contiguous for part in facts.deflation_table)
        for a, z, least in zip(matrices, points, stack_least_slacks(facts, points, METHODS)):
            assert list(least) == list(METHODS)
            for method, builder in zip(METHODS, BUILDERS):
                want = region_slack_grid(builder(a), z).min().tobytes()
                assert np.float64(least[method]).tobytes() == want, (n, method)


def test_dropping_repeated_leaves_keeps_every_least_slack_bit_for_bit(monkeypatch):
    # stack_least_slacks with and without _distinct_leaves, byte for byte,
    # with _PASS_ROWS at its default, 64 and 1, so that tables of every size
    # keep only the two widest leaves at each centre: seeded real and
    # complex matrices of small integers, whose rows repeat centres, with
    # and without a constant row sum, at their eigenvalues, rounded and
    # scattered points; two matrices with four leaves of distinct radii at
    # one centre, a classical one (every disk at 0) and a row-sum one
    # (every deflation row's), whose slacks come from the two widest, so that
    # keeping one leaf a centre, or the narrowest two, moves them; and graph
    # stacks, among them an 11-vertex forest whose rowsum-brauer[laplacian]
    # slack moves if a short row is padded with its first leaf, an oval
    # (first, first) that the row did not have
    from eigenloc.graphs import Graph

    rng = np.random.default_rng(91)
    cases = []  # matrices, their points
    for n in range(1, 19):
        for imag in (0.0, 1.0):
            a = rng.integers(-1, 2, (n, n)) + 1j * imag * rng.integers(0, 2, (n, n))
            b = a.copy()
            b[:, -1] += 2 - b.sum(axis=1)
            stack = [a, b] if imag else [a.real, b.real]
            scatter = [rng.integers(-4, 5, 6) + 0.5j * imag * rng.integers(-2, 3, 6) for _ in stack]
            points = [np.concatenate([_with_ties(np.linalg.eigvals(m)), z]) for m, z in zip(stack, scatter)]
            cases.append((stack, points))
    weights = np.diag(np.arange(1.0, 8.0))
    cycle4 = np.roll(weights[:4, :4], 1, axis=1)  # disks of radii 1, 2, 3, 4 at 0
    # row k holds w_k at k + 1 and -w_k at k + 2: row sum 0, four deflated disks at 0 in every row
    spread = np.roll(weights, 1, axis=1) - np.roll(weights, 2, axis=1)
    for a in (cycle4, spread):
        cases.append(([a], [np.concatenate([np.linalg.eigvals(a), [0.5, -2.5, 3.0 + 1.5j]])]))
    forest = Graph.from_edges(11, [(1, 3), (2, 6), (3, 4), (4, 8), (6, 9), (7, 8), (8, 10)])
    for g in (forest, petersen(), circulant(16, (1, 5)), circulant(28, (1, 3, 7)), complete(12)):
        kinds = [kind for kind in GraphMatrixKind if kind.value != "normalized" or min(g.degree_sequence)]
        points = [_with_ties(g.spectrum(kind).values) for kind in kinds]
        cases.append(([build_matrix(g, kind) for kind in kinds], points))
    distinct, narrowed = eigenloc.regions._distinct_leaves, []

    def counted(centers, radii):
        out = distinct(centers, radii)
        narrowed.append(out[0].shape[-1] < centers.shape[-1])
        return out

    for pass_rows in (eigenloc.regions._PASS_ROWS, 64, 1):
        monkeypatch.setattr(eigenloc.regions, "_PASS_ROWS", pass_rows)
        for matrices, points in cases:
            stack, least = MatrixFacts(*matrices), []
            for dedup in (counted, lambda centers, radii: (centers, radii)):
                monkeypatch.setattr(eigenloc.regions, "_distinct_leaves", dedup)
                least.append(stack_least_slacks(stack, points, METHODS))
            for dropped, kept in zip(*least):
                assert dropped.keys() == kept.keys()
                for method, slack in dropped.items():
                    assert np.float64(slack).tobytes() == np.float64(kept[method]).tobytes(), method
    # 96 of the 151 tables of the integer and graph cases narrow (31 while
    # only third copies of a (centre, radius) were dropped), and all 5 of
    # the two matrices with four leaves at one centre
    assert (len(narrowed), sum(narrowed)) == (156, 101)


def test_a_refused_matrix_refuses_a_stack_as_alone():
    # a stack with a matrix that refuses raises what one of its refusing
    # matrices raises alone; RegionUnavailable comes after or not at all
    good = build_matrix(cycle(3), GraphMatrixKind.LAPLACIAN)
    far = np.array([[1e308, -1e308, 0], [-1e308, 1e308, 0], [0, 0, 0]])  # deflated differences
    wide = np.diag([1e308, -1e308, 0.0])  # oval foci too far apart
    nan = good.copy()
    nan[0, 1] = math.nan
    nowhere = np.ones((3, 3)), [0.0, 1.0, math.inf]  # a matrix at a non-finite point
    cases = {"good": (good, [0.0, 3.0, 3.0]), "far": (far, [0.0, 1.0, 2.0]),
             "wide": (wide, [0.0, 1.0, 2.0]), "nan": (nan, [0.0, 1.0, 2.0]), "nowhere": nowhere}
    raised = 0
    for names in [("good", "far"), ("wide", "nan"), ("nan", "wide"), ("good", "nowhere", "far"),
                  ("good", "good", "wide"), ("nowhere", "good")]:
        stack = MatrixFacts(*[cases[name][0] for name in names])
        points = [cases[name][1] for name in names]
        refusals = set()
        for name in names:
            try:
                stack_least_slacks(MatrixFacts(cases[name][0]), [cases[name][1]], METHODS)
            except ValueError as exc:
                assert type(exc) is ValueError
                refusals.add(str(exc))
        assert refusals
        with pytest.raises(ValueError) as info:
            stack_least_slacks(stack, points, METHODS)
        assert type(info.value) is ValueError and str(info.value) in refusals, names
        raised += 1
    assert raised == 6
    # a matrix without a constant row sum lacks only its own row-sum regions
    lopsided = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    (alone,), (mixed, _) = (stack_least_slacks(MatrixFacts(*stack), [[0.0, 1.0, -1.0]] * len(stack),
                                               METHODS) for stack in ([lopsided], [lopsided, good]))
    assert list(mixed) == list(alone) == ["gersgorin", "brauer"]
    with pytest.raises(ValueError, match="one shape"):
        MatrixFacts(good, np.eye(2))
    # points are one row per matrix: more rows once gave a matrix another's
    # points, and one row was split among the matrices
    pair = MatrixFacts(np.eye(2), 5.0 * np.eye(2))
    for points, rows in [([[1.0, 1.0], [5.0, 5.0], [9.0, 9.0]], 3), ([[1.0, 1.0, 5.0, 5.0]], 1),
                         ([1.0, 1.0, 5.0, 5.0], 4), (1.0, 0)]:
        with pytest.raises(ValueError, match=f"got {rows} rows for a stack of 2"):
            stack_least_slacks(pair, points, ["gersgorin"])
    assert stack_least_slacks(pair, [[1.0, 1.0], [5.0, 5.0]], ["gersgorin"]) == [{"gersgorin": 0.0}] * 2


def test_a_stack_has_a_matrix_and_a_region_has_one():
    # an empty stack is refused in the stack's own words, and a builder
    # refuses a matrix that is not square
    with pytest.raises(ValueError, match="at least one matrix"):
        MatrixFacts()
    with pytest.raises(ValueError, match=re.escape("square matrix of dimension >= 1, got shape (2, 3)")):
        gersgorin_region(np.ones((2, 3)))


@pytest.mark.parametrize("entry", [math.nan, complex(0.0, math.nan), math.inf, -math.inf])
def test_constant_row_sum_and_deflate_refuse_non_finite_entries(entry):
    # once (inf+nanj) and (nan+nanj), a row sum of no matrix; the builders
    # still refuse such a matrix in their own words
    a = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    a[0, 1] = entry
    for refuse in (constant_row_sum, functools.partial(deflate, k=1)):
        with pytest.raises(ValueError, match="matrix entries must be finite") as info:
            refuse(a)
        assert type(info.value) is ValueError
    with pytest.raises(ValueError, match="region parameters must be finite"):
        rowsum_gersgorin_region(a)
    assert constant_row_sum(np.array([[1.0, 2.0], [3.0, 0.0]])) == 3.0


def test_stacked_facts_are_each_matrix_own_bit_for_bit(monkeypatch):
    # each fact of a stack, made by one pass over all its matrices, is the
    # one-matrix formula's bit for bit: gamma from complex row sums (real
    # and complex pairwise sums differ in the last bit), the deleted row
    # sums, and the deflation table against the entry-by-entry loop; in a
    # real stack and in one that a complex matrix makes complex, with the
    # terms of l made a few, or one, at a time as well
    from ._reference import deflation_table

    rng = np.random.default_rng(89)
    checked = 0
    for pass_rows in (None, 1, 60):
        if pass_rows is not None:
            monkeypatch.setattr(eigenloc.regions, "_PASS_ROWS", pass_rows)
        for n in list(range(1, 13)) + [24, 40]:
            real = [rng.standard_normal((n, n)) * 10.0 ** int(rng.integers(-3, 4)) for _ in range(2)]
            real[0][:, -1] += 1.5 - real[0].sum(axis=1)  # row sums 1.5 up to rounding
            for matrices in (real, real + [rng.random((n, n)) + 1j * rng.random((n, n))]):
                facts = MatrixFacts(*matrices)
                for at, a in enumerate(matrices):
                    sums = np.asarray(a, dtype=complex).sum(axis=1)
                    deviation = float(np.max(np.abs(sums[:, None] - sums[None, :])))
                    norm = float(np.max(np.abs(a).sum(axis=1)))
                    constant = deviation <= 1e-9 * min(norm, 1.0 + float(np.max(np.abs(sums))))
                    assert (facts.gamma[at] is None) == (not constant)
                    if constant:
                        assert np.complex128(facts.gamma[at]).tobytes() == np.complex128(sums.mean()).tobytes()
                    want = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
                    assert facts.deleted_row_sums[at].tobytes() == want.tobytes()
                    centers, radii = (part[at] for part in facts.deflation_table)
                    want_centers, want_radii = deflation_table(a)
                    assert np.asarray(centers, dtype=complex).tobytes() == want_centers.tobytes()
                    assert radii.tobytes() == want_radii.tobytes()
                    checked += 1
    assert checked == 3 * 14 * 5


def test_real_stack_gamma_is_the_pairwise_tables(monkeypatch):
    # a real stack's gamma takes the largest row-sum deviation as
    # fl(max - min) of its sums in place of the (k, n, n) table of pairs
    # (where a sum is not finite, either loses to the tolerance, itself
    # infinite or NaN): the gamma lists agree by repr, None included, with
    # the table's on seeded stacks of 1 to 3 matrices of size 1 to 11,
    # with constant, nearly constant and free row sums at scales
    # 1e-300 to 1e307 (whose entries and sums may overflow), with an
    # infinite or NaN entry, with a complex matrix (whose stack keeps the
    # table), and on graph stacks; with rows cast one at a time as well
    from eigenloc.graphs import Graph, complete_bipartite, path, star

    from ._reference import row_sum_gammas

    rng = np.random.default_rng(2033)
    stacks = []
    for k, n, scale, entry in itertools.product((1, 2, 3), range(1, 12), (1e-300, 1.0, 1e300, 1e307),
                                                (None, math.inf, -math.inf, math.nan)):
        for draw in range(7):
            a = rng.standard_normal((k, n, n))
            if draw < 4:  # constant row sums, exactly for integers
                a = np.rint(a * 3.0) if draw < 2 else a
                a[..., -1] += 1.5 - a.sum(axis=-1)
            with np.errstate(over="ignore"):  # an entry past the float range is inf
                a = a * scale
            if entry is not None:
                a[tuple(rng.integers(0, (k, n, n)))] = entry
            if draw == 6:
                a = a + 1j * rng.random((k, n, n)) * scale * (rng.random() < 0.5)
            stacks.append(list(a))
    graphs = [cycle(n) for n in range(3, 9)] + [path(n) for n in range(1, 9)]
    graphs += [star(n) for n in range(2, 9)] + [complete(n) for n in range(1, 8)]
    graphs += [complete_bipartite(p, q) for p in (1, 2, 3) for q in (2, 4)] + [petersen()]
    graphs += [circulant(n, (1, 3)) for n in range(7, 12)] + [Graph.from_edges(4, [(1, 2), (2, 3)])]
    for g in graphs:
        stacks.append([build_matrix(g, kind) for kind in GraphMatrixKind
                       if kind != GraphMatrixKind.NORMALIZED_ADJACENCY or min(g.degree_sequence) > 0])
    assert len(stacks) == 3737
    for pass_rows in (None, 1):
        if pass_rows is not None:
            monkeypatch.setattr(eigenloc.regions, "_PASS_ROWS", pass_rows)
        for stack in stacks:
            assert repr(MatrixFacts(*stack).gamma) == repr(row_sum_gammas(stack)), stack


def test_least_slacks_keep_real_matrices_real():
    # a graph matrix stays real, so each distance is one subtraction and one
    # abs; a complex matrix with a zero imaginary part is real too
    a = build_matrix(petersen(), GraphMatrixKind.LAPLACIAN)
    for matrix in (a, a.astype(complex)):
        facts = MatrixFacts(matrix)
        assert facts.matrix.dtype == float and facts.deflation_table[0].dtype == float
        gamma = facts.sources(True, [0])[2]
        assert gamma.dtype == float and gamma.tolist() == [0.0]
    assert MatrixFacts(ROWSUM_3X3).matrix.dtype == complex
    with pytest.raises(ValueError, match="unknown region method 'ostrowski'"):
        stack_least_slacks(MatrixFacts(a), [[0.0]], ["gersgorin", "ostrowski"])
