"""Region engine: deflation, the four inclusion regions, sections, JSON."""

import functools
import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenloc.graphs import GraphMatrixKind, build_matrix, circulant, complete, cycle, petersen
from eigenloc.oracle import charpoly, complex_eigenvalues, symmetric_eigenvalues
from eigenloc.regions import (
    CassiniOval,
    Disk,
    PointSet,
    RealSection,
    RegionIntersection,
    RegionUnavailable,
    RegionUnion,
    _normalized_section,
    brauer_region,
    constant_row_sum,
    deflate,
    deleted_row_sums,
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
    row_sums,
    section_contains,
)

from .conftest import (
    GAMMA_3X3,
    ROWSUM_3X3,
    match_multisets,
    random_constant_rowsum_matrix,
    random_region,
)

SQRT2 = math.sqrt(2.0)


class TestRowSums:
    def test_fixture_rows_all_sum_to_gamma(self):
        assert np.allclose(row_sums(ROWSUM_3X3), [GAMMA_3X3] * 3)
        assert constant_row_sum(ROWSUM_3X3) == GAMMA_3X3

    def test_identity(self):
        assert constant_row_sum(np.eye(3)) == 1.0 + 0.0j

    def test_laplacian_gamma_is_zero(self):
        lap = build_matrix(cycle(5), GraphMatrixKind.LAPLACIAN)
        assert constant_row_sum(lap) == 0.0 + 0.0j

    def test_non_constant_returns_none(self):
        assert constant_row_sum(np.array([[1.0, 0.0], [0.0, 2.0]])) is None


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
        r = deleted_row_sums(ROWSUM_3X3)
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
            section = real_section(rowsum_gersgorin_region(a), tol=1e-9)
            assert section.intervals == ((-1.0, -1.0),)
            assert section.isolated_points == (float(n - 1),)

    def test_all_ones_2x2_region(self):
        section = real_section(rowsum_gersgorin_region(np.ones((2, 2))), tol=1e-9)
        assert section.intervals == ((0.0, 0.0),)
        assert section.isolated_points == (2.0,)

    def test_k3_adjacency_rowsum_brauer_is_spectrum(self):
        a = build_matrix(complete(3), GraphMatrixKind.ADJACENCY)
        section = real_section(rowsum_brauer_region(a), tol=1e-9)
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
        section = real_section(rowsum_brauer_region(gamma * np.eye(4)), tol=1e-9)
        assert section.is_empty()  # gamma is not real
        region = rowsum_brauer_region(np.real(gamma) * np.eye(4))
        section = real_section(region, tol=1e-9)
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

    def test_grid_slack_matches_scalar(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            region = random_region(rng)
            pts = rng.uniform(-4, 4, (64, 2))
            zs = pts[:, 0] + 1j * pts[:, 1]
            grid = region_slack_grid(region, zs)
            for z, expected in zip(zs, grid):
                assert region_slack(region, z) == expected

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
            section = real_section(region, tol=1e-9)
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


BUILDERS = (gersgorin_region, brauer_region, rowsum_gersgorin_region, rowsum_brauer_region)


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize(
    "entry",
    [math.nan, complex(0.0, math.nan), math.inf, -math.inf, 1e308],
    ids=["nan", "nan-imag", "inf", "-inf", "overflow"],
)
def test_builders_reject_non_finite_parameters(builder, entry):
    # constant_row_sum lets each of these through, so the rowsum builders
    # must reject the matrix themselves; 1e308 is finite but overflows the
    # row sums, so the disk radii or oval products would be infinite
    a = build_matrix(cycle(4), GraphMatrixKind.LAPLACIAN).astype(complex)
    a[1, 2] = entry
    if entry == 1e308:
        a = np.full((4, 4), 1e308, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        assert constant_row_sum(a) is not None
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
        return _normalized_section([], [p.real for p in leaf.points if abs(p.imag) <= tol], tol)
    a, b, p = leaf.focus_a, leaf.focus_b, leaf.radius_product
    feet = np.array([a.real, b.real])
    points = [float(x) for x, margin in zip(feet, region_slack_grid(leaf, feet)) if margin >= -tol]
    if p == 0.0:
        return _normalized_section([], points, tol)
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
    return _normalized_section(intervals, points, tol)


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
                tol,
            ),
            parts,
        )
    return functools.reduce(functools.partial(RegionIntersection._section_op, tol=tol), parts)


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
