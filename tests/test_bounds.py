"""Closed-form bound catalog: every theorem's worked values plus reports."""

import gc
import json
import math
import random
import tracemalloc
import weakref
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import eigenloc.bounds as bounds_module
from eigenloc.bounds import (
    LAMBDA_1,
    LAMBDA_2,
    LAMBDA_N,
    LAMBDA_N_MINUS_1,
    BoundInterval,
    biregular_bipartite_lambda2_bounds,
    bounds_report,
    laplacian_common_neighbor_bounds,
    laplacian_dominating_brauer_bounds,
    laplacian_trace_bounds,
    normalized_bipartite_lambda2_bounds,
    normalized_dominating_brauer_bounds,
    normalized_dominating_gersgorin_bounds,
    normalized_trace_bounds,
    regular_adjacency_bounds,
    regular_bipartite_lambda2_bounds,
    regular_brauer_common_neighbor_bounds,
    regular_common_neighbor_bounds,
    report_to_csv,
    report_to_json,
)
from eigenloc.graphs import (
    Graph,
    GraphMatrixKind,
    build_matrix,
    circulant,
    classify,
    complete,
    complete_bipartite,
    complete_minus_edge,
    cycle,
    path,
    petersen,
    star,
)
from eigenloc.oracle import graph_spectrum, normalized_spectrum, symmetric_eigenvalues
from eigenloc.regions import (
    RegionIntersection,
    RegionUnion,
    real_section,
    rowsum_brauer_region,
    rowsum_gersgorin_region,
)

from ._corpus import atlas_graphs, family_corpus
from ._reference import common_neighbors, randic_index, trace_bounds
from .conftest import count_first_reads


def by_target(intervals):
    return {b.target: b for b in intervals}


def adjacency_eigs(g):
    return symmetric_eigenvalues(build_matrix(g, GraphMatrixKind.ADJACENCY)).values


def laplacian_eigs(g):
    return symmetric_eigenvalues(build_matrix(g, GraphMatrixKind.LAPLACIAN)).values


def cube_q3():
    edges = [
        (i + 1, j + 1)
        for i in range(8)
        for j in range(i + 1, 8)
        if bin(i ^ j).count("1") == 1
    ]
    return Graph.from_edges(8, edges)


def wheel(n):
    """Hub vertex 1 joined to a cycle on 2..n."""
    rim = list(range(2, n + 1))
    edges = [(1, v) for v in rim]
    edges += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return Graph.from_edges(n, edges)


# JSON values as reports and regions hold them: str-keyed dicts, lists and
# tuples over strings (any code point but a surrogate: non-ASCII, quotes,
# control characters), ints, bools, None and floats, the non-finite and the
# ones json spells in exponent form among them, and empty containers
_JSON_VALUES = st.recursive(
    st.text(max_size=8) | st.integers() | st.booleans() | st.none() | st.floats()
    | st.sampled_from([-0.0, 1e-05, 1e16, math.inf, -math.inf, math.nan]),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=24,
)


def assert_contains(interval: BoundInterval, value: float, tol=1e-8):
    assert interval.lower - tol <= value <= interval.upper + tol, (
        f"{interval.theorem}/{interval.target}: {value} outside "
        f"[{interval.lower}, {interval.upper}]"
    )


class TestTraceBounds:
    def test_zero_traces_collapse(self):
        stats, top, bottom = trace_bounds(0.0, 0.0, 5)
        assert stats.m == 0.0 and stats.s == 0.0
        assert (top.lower, top.upper) == (0.0, 0.0)
        assert (bottom.lower, bottom.upper) == (0.0, 0.0)

    def test_deflated_k4_adjacency_stats(self):
        # trace A(k) = -d, trace A(k)^2 = nd - d^2 for K_4
        stats, top, bottom = trace_bounds(-3.0, 3.0, 3)
        assert stats.m == -1.0 and stats.s == 0.0
        assert (top.lower, top.upper) == (-1.0, -1.0)
        assert (bottom.lower, bottom.upper) == (-1.0, -1.0)

    def test_two_symmetric_eigenvalues(self):
        _, top, bottom = trace_bounds(0.0, 2.0, 2)
        assert (top.lower, top.upper) == (1.0, 1.0)
        assert (bottom.lower, bottom.upper) == (-1.0, -1.0)

    def test_rejects_inconsistent_traces(self):
        with pytest.raises(ValueError):
            trace_bounds(10.0, 0.0, 4)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            trace_bounds(1.0, 1.0, 1)


class TestRegularAdjacency:
    def test_k4_collapses_to_minus_one(self):
        ivals = by_target(regular_adjacency_bounds(complete(4)))
        assert (ivals[LAMBDA_2].lower, ivals[LAMBDA_2].upper) == (-1.0, -1.0)
        assert (ivals[LAMBDA_N].lower, ivals[LAMBDA_N].upper) == (-1.0, -1.0)

    def test_c4_left_ends_attained(self):
        ivals = by_target(regular_adjacency_bounds(cycle(4)))
        assert ivals[LAMBDA_N].lower == pytest.approx(-2.0)
        assert ivals[LAMBDA_N].upper == pytest.approx(-4.0 / 3.0)
        assert ivals[LAMBDA_2].lower == pytest.approx(0.0, abs=1e-14)
        assert ivals[LAMBDA_2].upper == pytest.approx(2.0 / 3.0)
        eigs = adjacency_eigs(cycle(4))
        assert eigs[-1] == pytest.approx(ivals[LAMBDA_N].lower, abs=1e-10)
        assert eigs[1] == pytest.approx(ivals[LAMBDA_2].lower, abs=1e-10)

    def test_petersen_interval(self):
        ivals = by_target(regular_adjacency_bounds(petersen()))
        assert ivals[LAMBDA_N].lower == pytest.approx(-1 / 3 - math.sqrt(8 * 180) / 9)
        assert ivals[LAMBDA_N].upper == pytest.approx(-1 / 3 - math.sqrt(180 / 8) / 9)
        assert ivals[LAMBDA_N].lower == pytest.approx(-4.550, abs=5e-4)
        assert ivals[LAMBDA_N].upper == pytest.approx(-0.860, abs=5e-4)
        assert_contains(ivals[LAMBDA_N], adjacency_eigs(petersen())[-1])

    def test_complete_right_ends_sharp(self):
        for n in range(3, 11):
            ivals = by_target(regular_adjacency_bounds(complete(n)))
            eigs = adjacency_eigs(complete(n))
            assert ivals[LAMBDA_2].upper == pytest.approx(eigs[1], abs=1e-8)
            assert ivals[LAMBDA_N].upper == pytest.approx(eigs[-1], abs=1e-8)

    def test_kdd_left_equality(self):
        for d in range(2, 6):
            g = complete_bipartite(d, d)
            ivals = by_target(regular_adjacency_bounds(g))
            eigs = adjacency_eigs(g)
            assert ivals[LAMBDA_2].lower == pytest.approx(eigs[1], abs=1e-8)
            assert ivals[LAMBDA_N].lower == pytest.approx(eigs[-1], abs=1e-8)

    def test_rejects_irregular(self):
        with pytest.raises(ValueError):
            regular_adjacency_bounds(star(4))


class TestBiregularBipartite:
    def test_k23_collapses_to_zero(self):
        ivals = by_target(biregular_bipartite_lambda2_bounds(complete_bipartite(2, 3)))
        assert (ivals[LAMBDA_2].lower, ivals[LAMBDA_2].upper) == (0.0, 0.0)
        assert adjacency_eigs(complete_bipartite(2, 3))[1] == pytest.approx(0.0, abs=1e-10)

    def test_c6(self):
        ivals = by_target(biregular_bipartite_lambda2_bounds(cycle(6)))
        assert ivals[LAMBDA_2].lower == pytest.approx(math.sqrt(4 / 12))
        assert ivals[LAMBDA_2].upper == pytest.approx(math.sqrt(3.0))
        assert_contains(ivals[LAMBDA_2], adjacency_eigs(cycle(6))[1])

    def test_c4_is_k22(self):
        ivals = by_target(biregular_bipartite_lambda2_bounds(cycle(4)))
        assert (ivals[LAMBDA_2].lower, ivals[LAMBDA_2].upper) == (0.0, 0.0)

    def test_all_complete_bipartite_collapse(self):
        for p in range(1, 6):
            for q in range(max(1, 4 - p), 6):
                ivals = by_target(
                    biregular_bipartite_lambda2_bounds(complete_bipartite(p, q))
                )
                assert (ivals[LAMBDA_2].lower, ivals[LAMBDA_2].upper) == (0.0, 0.0)


class TestRegularBipartite:
    def test_c4_collapses(self):
        ivals = by_target(regular_bipartite_lambda2_bounds(cycle(4)))
        assert (ivals[LAMBDA_2].lower, ivals[LAMBDA_2].upper) == (0.0, 0.0)

    def test_cube(self):
        ivals = by_target(regular_bipartite_lambda2_bounds(cube_q3()))
        assert ivals[LAMBDA_2].lower == pytest.approx(math.sqrt(6 / 30))
        assert ivals[LAMBDA_2].upper == pytest.approx(math.sqrt(5.0))
        assert_contains(ivals[LAMBDA_2], adjacency_eigs(cube_q3())[1])

    @pytest.mark.parametrize("g", [cycle(4), cycle(6), cycle(10), cube_q3()],
                             ids=["C4", "C6", "C10", "Q3"])
    def test_matches_biregular_exactly(self, g):
        specialized = by_target(regular_bipartite_lambda2_bounds(g))
        general = by_target(biregular_bipartite_lambda2_bounds(g))
        assert specialized[LAMBDA_2].lower == general[LAMBDA_2].lower
        assert specialized[LAMBDA_2].upper == general[LAMBDA_2].upper

    def test_kdd_matches_biregular(self):
        for d in (2, 3, 4, 5):
            g = complete_bipartite(d, d)
            s = by_target(regular_bipartite_lambda2_bounds(g))[LAMBDA_2]
            b = by_target(biregular_bipartite_lambda2_bounds(g))[LAMBDA_2]
            assert (s.lower, s.upper) == (b.lower, b.upper)


class TestCommonNeighborDisks:
    def test_complete_graphs_sharp(self):
        for n in range(3, 9):
            ivals = by_target(regular_common_neighbor_bounds(complete(n)))
            assert (ivals[LAMBDA_N].lower, ivals[LAMBDA_2].upper) == (-1.0, -1.0)

    def test_k2_sharp(self):
        ivals = by_target(regular_common_neighbor_bounds(complete(2)))
        assert (ivals[LAMBDA_N].lower, ivals[LAMBDA_2].upper) == (-1.0, -1.0)

    def test_petersen(self):
        ivals = by_target(regular_common_neighbor_bounds(petersen()))
        assert ivals[LAMBDA_N].lower == -3.0
        assert ivals[LAMBDA_2].upper == 3.0

    def test_c4_lower_tight(self):
        ivals = by_target(regular_common_neighbor_bounds(cycle(4)))
        assert ivals[LAMBDA_N].lower == -2.0
        assert ivals[LAMBDA_2].upper == 1.0
        eigs = adjacency_eigs(cycle(4))
        assert eigs[-1] == pytest.approx(-2.0, abs=1e-10)


class TestCommonNeighborOvals:
    def test_complete_graphs_sharp(self):
        for n in range(3, 9):
            ivals = by_target(regular_brauer_common_neighbor_bounds(complete(n)))
            assert ivals[LAMBDA_N].lower == pytest.approx(-1.0, abs=1e-12)
            assert ivals[LAMBDA_2].upper == pytest.approx(-1.0, abs=1e-12)

    def test_petersen(self):
        ivals = by_target(regular_brauer_common_neighbor_bounds(petersen()))
        assert ivals[LAMBDA_N].lower == pytest.approx(-5.0)
        assert ivals[LAMBDA_2].upper == pytest.approx(4.0)

    def test_c4_exhaustive_triples(self):
        ivals = by_target(regular_brauer_common_neighbor_bounds(cycle(4)))
        assert ivals[LAMBDA_N].lower == pytest.approx(-3.0)
        assert_contains(ivals[LAMBDA_N], adjacency_eigs(cycle(4))[-1])


class TestNormalizedTrace:
    def test_complete_collapse(self):
        for n in (4, 6, 9):
            ivals = by_target(normalized_trace_bounds(complete(n)))
            expected = -1.0 / (n - 1)
            for tgt in (LAMBDA_2, LAMBDA_N):
                assert ivals[tgt].lower == pytest.approx(expected, abs=1e-12)
                assert ivals[tgt].upper == pytest.approx(expected, abs=1e-12)
        eigs = normalized_spectrum(complete(4)).values
        assert eigs[1] == pytest.approx(-1 / 3, abs=1e-10)

    def test_complete_reports_exactly(self):
        # the radicand 2(n-1)R - n is exactly 0 on K_n; formed from a rounded
        # R it came out near 4e-15, and its root emptied the combined
        # lambda_2 interval at n = 27
        for n in range(3, 121):
            report = bounds_report(complete(n), GraphMatrixKind.NORMALIZED_ADJACENCY)
            lam2 = by_target(b for b in report.bounds if b.theorem == "Thm4.1")[LAMBDA_2]
            assert (lam2.lower, lam2.upper) == (-1.0 / (n - 1), -1.0 / (n - 1))

    def test_star_k13(self):
        ivals = by_target(normalized_trace_bounds(star(4)))
        assert star(4).randic_index == 1
        assert ivals[LAMBDA_2].lower == pytest.approx(0.0, abs=1e-12)
        assert ivals[LAMBDA_2].upper == pytest.approx(1 / 3)
        eigs = normalized_spectrum(star(4)).values
        assert eigs[1] == pytest.approx(0.0, abs=1e-10)  # left end attained

    def test_p3(self):
        ivals = by_target(normalized_trace_bounds(path(3)))
        eigs = normalized_spectrum(path(3)).values
        assert_contains(ivals[LAMBDA_2], eigs[1])
        assert_contains(ivals[LAMBDA_N], eigs[-1])


class TestNormalizedBipartite:
    def test_complete_bipartite_collapse(self):
        for p, q in ((1, 3), (2, 2), (2, 3), (3, 3), (4, 5)):
            ivals = by_target(normalized_bipartite_lambda2_bounds(complete_bipartite(p, q)))
            assert ivals[LAMBDA_2].lower == pytest.approx(0.0, abs=1e-12)
            assert ivals[LAMBDA_2].upper == pytest.approx(0.0, abs=1e-12)
            assert normalized_spectrum(complete_bipartite(p, q)).values[1] == pytest.approx(
                0.0, abs=1e-8
            )

    def test_c6(self):
        ivals = by_target(normalized_bipartite_lambda2_bounds(cycle(6)))
        assert ivals[LAMBDA_2].lower == pytest.approx(math.sqrt(1 / 12))
        assert ivals[LAMBDA_2].upper == pytest.approx(math.sqrt(0.75))
        assert normalized_spectrum(cycle(6)).values[1] == pytest.approx(0.5, abs=1e-10)

    def test_p4_sharp(self):
        ivals = by_target(normalized_bipartite_lambda2_bounds(path(4)))
        assert path(4).randic_index == Fraction(5, 4)
        assert ivals[LAMBDA_2].lower == pytest.approx(0.5)
        assert ivals[LAMBDA_2].upper == pytest.approx(0.5)
        assert normalized_spectrum(path(4)).values[1] == pytest.approx(0.5, abs=1e-10)


class TestNormalizedDominating:
    def test_complete_sharp_both(self):
        for n in (3, 5, 8):
            gers = by_target(normalized_dominating_gersgorin_bounds(complete(n)))
            brau = by_target(normalized_dominating_brauer_bounds(complete(n)))
            expected = -1.0 / (n - 1)
            assert gers[LAMBDA_2].upper == pytest.approx(expected, abs=1e-12)
            assert gers[LAMBDA_N].lower == pytest.approx(expected, abs=1e-12)
            assert brau[LAMBDA_2].upper == pytest.approx(expected, abs=1e-12)
            assert brau[LAMBDA_N].lower == pytest.approx(expected, abs=1e-12)

    def test_star_k14(self):
        g = star(5)
        gers = by_target(normalized_dominating_gersgorin_bounds(g))
        assert gers[LAMBDA_2].upper == pytest.approx(0.5)
        assert gers[LAMBDA_N].lower == pytest.approx(-1.0)
        brau = by_target(normalized_dominating_brauer_bounds(g))
        assert brau[LAMBDA_2].upper == pytest.approx(0.5)
        assert brau[LAMBDA_N].lower == pytest.approx(-1.0)
        eigs = normalized_spectrum(g).values
        assert eigs[-1] == pytest.approx(-1.0, abs=1e-10)  # lower end attained

    def test_wheel_w5(self):
        g = wheel(5)
        gers = by_target(normalized_dominating_gersgorin_bounds(g))
        assert gers[LAMBDA_2].upper == pytest.approx(1 / 6)
        assert gers[LAMBDA_N].lower == pytest.approx(-2 / 3)
        brau = by_target(normalized_dominating_brauer_bounds(g))
        assert brau[LAMBDA_2].upper == pytest.approx(-0.25 + 5 / 12)
        eigs = normalized_spectrum(g).values
        assert_contains(gers[LAMBDA_2], eigs[1])
        assert_contains(gers[LAMBDA_N], eigs[-1])
        assert_contains(brau[LAMBDA_2], eigs[1])

    def test_rejects_without_dominating_vertex(self):
        with pytest.raises(ValueError):
            normalized_dominating_gersgorin_bounds(cycle(5))
        with pytest.raises(ValueError):
            normalized_dominating_brauer_bounds(cycle(5))


class TestLaplacianTrace:
    def test_complete_collapse(self):
        for n in (3, 5, 8):
            ivals = by_target(laplacian_trace_bounds(complete(n)))
            for tgt in (LAMBDA_1, LAMBDA_N_MINUS_1):
                assert ivals[tgt].lower == pytest.approx(float(n), abs=1e-10)
                assert ivals[tgt].upper == pytest.approx(float(n), abs=1e-10)

    def test_star_k13_right_ends_attained(self):
        ivals = by_target(laplacian_trace_bounds(star(4)))
        assert ivals[LAMBDA_1].lower == pytest.approx(3.0)
        assert ivals[LAMBDA_1].upper == pytest.approx(4.0)
        assert ivals[LAMBDA_N_MINUS_1].lower == pytest.approx(0.0, abs=1e-12)
        assert ivals[LAMBDA_N_MINUS_1].upper == pytest.approx(1.0)
        eigs = laplacian_eigs(star(4))
        assert eigs[0] == pytest.approx(4.0, abs=1e-10)
        assert eigs[-2] == pytest.approx(1.0, abs=1e-10)

    def test_c4_right_equality(self):
        ivals = by_target(laplacian_trace_bounds(cycle(4)))
        assert ivals[LAMBDA_1].lower == pytest.approx(8 / 3 + math.sqrt(8 / 18))
        assert ivals[LAMBDA_1].upper == pytest.approx(4.0)
        assert laplacian_eigs(cycle(4))[0] == pytest.approx(4.0, abs=1e-10)


class TestLaplacianCommonNeighbor:
    def test_complete_upper_sharp(self):
        for n in (3, 4, 6):
            ivals = by_target(laplacian_common_neighbor_bounds(complete(n)))
            assert ivals[LAMBDA_1].upper == float(n)
            assert ivals[LAMBDA_N_MINUS_1].lower == float(n - 2)
        eigs = laplacian_eigs(complete(4))
        assert eigs[0] == pytest.approx(4.0, abs=1e-10)

    def test_star_k14(self):
        ivals = by_target(laplacian_common_neighbor_bounds(star(5)))
        assert ivals[LAMBDA_1].upper == 5.0
        assert ivals[LAMBDA_N_MINUS_1].lower == 0.0
        eigs = laplacian_eigs(star(5))
        assert eigs[0] == pytest.approx(5.0, abs=1e-10)
        assert eigs[-2] == pytest.approx(1.0, abs=1e-10)

    def test_c4(self):
        ivals = by_target(laplacian_common_neighbor_bounds(cycle(4)))
        assert ivals[LAMBDA_N_MINUS_1].lower == -1.0
        assert ivals[LAMBDA_1].upper == 5.0
        eigs = laplacian_eigs(cycle(4))
        assert (eigs[0], eigs[-2]) == (pytest.approx(4.0), pytest.approx(2.0))

    def test_p4_upper_bound_is_sound(self):
        # irregular-degree regression: bound must stay above 2 + sqrt(2)
        ivals = by_target(laplacian_common_neighbor_bounds(path(4)))
        top = laplacian_eigs(path(4))[0]
        assert top == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-10)
        assert ivals[LAMBDA_1].upper >= top - 1e-10


class TestLaplacianDominatingBrauer:
    def test_complete_published_vs_corrected(self):
        for n in (3, 5, 7):
            pub = by_target(laplacian_dominating_brauer_bounds(complete(n)))
            assert pub[LAMBDA_1].upper == pytest.approx(n + 1.0)
            assert pub[LAMBDA_N_MINUS_1].lower == pytest.approx(n - 1.0)
            cor = by_target(
                laplacian_dominating_brauer_bounds(complete(n), mode="corrected")
            )
            assert cor[LAMBDA_1].upper == pytest.approx(float(n), abs=1e-12)

    def test_star_k14_published(self):
        ivals = by_target(laplacian_dominating_brauer_bounds(star(5)))
        assert ivals[LAMBDA_1].upper == pytest.approx(6.0)
        assert ivals[LAMBDA_N_MINUS_1].lower == pytest.approx(-2.0)
        eigs = laplacian_eigs(star(5))
        assert_contains(ivals[LAMBDA_1], eigs[0])
        assert_contains(ivals[LAMBDA_N_MINUS_1], eigs[-2])

    def test_pendant_regression_lower_bound_sound(self):
        # K_4 plus a pendant vertex: algebraic connectivity is 1, and the
        # triangle pair (2,3) alone would suggest 2; the union over ovals
        # must keep the reported lower bound at or below the oracle
        g = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)])
        eigs = laplacian_eigs(g)
        assert eigs[-2] == pytest.approx(1.0, abs=1e-10)
        for mode in ("published", "corrected"):
            ivals = by_target(laplacian_dominating_brauer_bounds(g, mode=mode))
            assert ivals[LAMBDA_N_MINUS_1].lower <= 1.0 + 1e-10
            assert_contains(ivals[LAMBDA_N_MINUS_1], eigs[-2])
            assert_contains(ivals[LAMBDA_1], eigs[0])

    def test_corrected_never_looser_above(self):
        for g in (complete(5), star(6), wheel(6), complete(4)):
            pub = by_target(laplacian_dominating_brauer_bounds(g, mode="published"))
            cor = by_target(laplacian_dominating_brauer_bounds(g, mode="corrected"))
            assert cor[LAMBDA_1].upper <= pub[LAMBDA_1].upper + 1e-12

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            laplacian_dominating_brauer_bounds(star(4), mode="fixed")


def reference_dominating(g, tag, mode="published"):
    """Thm4.4, Thm4.5 or Thm5.4 at every dominating vertex i, tightest over i."""
    n = g.n
    ds = [g.degree(v) for v in range(1, n + 1)]
    lowers, uppers = [], []
    for i in classify(g).dominating:
        rest = [ds[k - 1] for k in range(1, n + 1) if k != i]
        if tag == "Thm4.4":
            t = min(Fraction(1, d) + Fraction(2 * d, n - 1) for d in rest)
            lowers.append(float(-2 - Fraction(2, n - 1) + t))
            uppers.append(float(2 - t))
        elif tag == "Thm4.5":
            rho = sorted((max(0.0, 2.0 - 1.0 / d - (2.0 * d - 1.0) / (n - 1.0)) for d in rest), reverse=True)
            half = math.sqrt(rho[0] * rho[1])
            lowers.append(-1.0 / (n - 1.0) - half)
            uppers.append(-1.0 / (n - 1.0) + half)
        else:
            r = n - (0 if mode == "published" else 1)
            ends = [
                0.5 * (dj + dk + 2.0 + sign * math.sqrt((dj - dk) ** 2 + 4.0 * (r - dj) * (r - dk)))
                for dj, dk in combinations(rest, 2)
                for sign in (-1.0, 1.0)
            ]
            lowers.append(min(ends))
            uppers.append(max(ends))
    return max(lowers), min(uppers)


class TestDominatingVertexChoice:
    """Deflating at the first dominating vertex matches the tightest over all of them."""

    def corpus(self):
        graphs = [g for _, g in atlas_graphs() if g.n >= 3 and len(classify(g).dominating) >= 2]
        graphs += [complete(n) for n in range(3, 13)]
        graphs += [complete_minus_edge(n) for n in range(4, 13)]
        return graphs

    def test_every_dominating_vertex_gives_the_same_bound(self):
        corpus = self.corpus()
        assert len(corpus) > 60
        for g in corpus:
            assert len(classify(g).dominating) >= 2
            for tag, fn, mode in (
                ("Thm4.4", normalized_dominating_gersgorin_bounds, None),
                ("Thm4.5", normalized_dominating_brauer_bounds, None),
                ("Thm5.4", laplacian_dominating_brauer_bounds, "published"),
                ("Thm5.4", laplacian_dominating_brauer_bounds, "corrected"),
            ):
                ivals = fn(g) if mode is None else fn(g, mode=mode)
                expected = reference_dominating(g, tag, mode)
                for b in ivals:
                    assert (b.lower, b.upper) == expected, (tag, mode, sorted(g.edges))


def random_dominating(n, p, seed):
    """G(n - 1, p) on 2..n, then vertex 1 joined to all, relabelled at random."""
    rng = random.Random(seed)
    edges = [(1, v) for v in range(2, n + 1)]
    edges += [(u, v) for u in range(2, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    return relabelled(Graph.from_edges(n, edges), seed)


def dominating_corpus():
    """Every atlas graph on 3-7 vertices with a dominating vertex, the family
    members with one up to n = 32, and seeded random ones up to n = 150."""
    atlas = [g for _, g in atlas_graphs() if g.n >= 3 and classify(g).dominating]
    assert len(atlas) == 207
    families = [g for _, g in family_corpus(32) if classify(g).dominating]
    rng = random.Random(54)
    randoms = [random_dominating(n, rng.choice((0.05, 0.3, 0.7)), seed)
               for seed, n in enumerate([3, 4, 5, 8, 13, 21, 34, 55, 89, 120, 150] * 2)]
    return atlas + families + randoms


def test_closed_form_matches_the_pair_formula_and_is_sharp_above():
    # (d_j - d_k)^2 + 4 r_j r_k is the square (r_j + r_k)^2, so the pair loop's
    # roots are exact and its ends are the closed form's integers
    for g in dominating_corpus():
        ends = {}
        for mode in ("published", "corrected"):
            ivals = laplacian_dominating_brauer_bounds(g, mode=mode)
            expected = reference_dominating(g, "Thm5.4", mode)
            assert [(b.lower, b.upper) for b in ivals] == [expected] * 2, (mode, sorted(g.edges))
            ends[mode] = by_target(ivals)[LAMBDA_1].upper
        # a dominating vertex is isolated in the complement, so lambda_1 = n:
        # the corrected end is attained, the published one n + 1 is not
        assert (ends["corrected"], ends["published"]) == (float(g.n), float(g.n + 1))
        assert abs(graph_spectrum(g, GraphMatrixKind.LAPLACIAN).values[0] - g.n) <= 1e-9 * g.n


_THEOREM_FUNCTIONS = [getattr(bounds_module, entry[-1]) for entry in bounds_module._REGISTRY.values()]


class TestTheoremsTakeOnlyTheGraph:
    """A theorem's hypotheses are read from the graph it bounds, never from a
    report a caller passes along."""

    def test_another_graphs_report_is_refused(self):
        # C_5 is 2-regular with lambda_2 = 0.618; K_5's report says 4-regular
        with pytest.raises(TypeError):
            regular_adjacency_bounds(cycle(5), classify(complete(5)))
        ivals = by_target(regular_adjacency_bounds(cycle(5)))
        assert ivals[LAMBDA_2].assumptions == ("connected", "2-regular")
        assert_contains(ivals[LAMBDA_2], adjacency_eigs(cycle(5))[1])

    @pytest.mark.parametrize("fn", _THEOREM_FUNCTIONS, ids=lambda fn: fn.__name__)
    def test_no_theorem_takes_a_report(self, fn):
        g = complete(5)
        with pytest.raises(TypeError):
            fn(g, classify(g))
        with pytest.raises(TypeError):
            fn(g, rep=classify(g))


class TestReports:
    def test_k4_adjacency_applicability(self):
        report = bounds_report(complete(4), GraphMatrixKind.ADJACENCY)
        applied = {b.theorem for b in report.bounds}
        assert applied == {"Thm3.1", "Thm3.7", "Thm3.9"}
        skipped = dict(report.skipped)
        assert skipped["Thm3.4"] == "not bipartite"
        assert skipped["Cor3.6"] == "not bipartite"

    def test_c4_normalized_applicability(self):
        report = bounds_report(cycle(4), GraphMatrixKind.NORMALIZED_ADJACENCY)
        applied = {b.theorem for b in report.bounds}
        assert applied == {"Thm4.1", "Thm4.3"}
        skipped = dict(report.skipped)
        assert skipped["Thm4.4"] == "no dominating vertex"
        assert skipped["Thm4.5"] == "no dominating vertex"

    @pytest.mark.parametrize("kind", list(GraphMatrixKind), ids=lambda kind: kind.value)
    def test_bad_mode_is_refused_for_every_kind(self, kind):
        # once only Thm5.4 read the mode: Petersen's reports (no dominating
        # vertex) said "mode": "bogus", and only star(5)'s Laplacian one raised
        for g in (petersen(), star(5)):
            with pytest.raises(ValueError, match="mode must be 'published' or 'corrected', got 'bogus'"):
                bounds_report(g, kind, mode="bogus")

    def test_star_laplacian_applicability(self):
        report = bounds_report(star(5), GraphMatrixKind.LAPLACIAN)
        assert {b.theorem for b in report.bounds} == {"Thm5.2", "Thm5.3", "Thm5.4"}
        assert report.skipped == ()

    def test_no_complete_graph_interval_is_reversed(self):
        # rounded term by term, Thm4.4 put its lower end above its upper end
        # on K_4, K_6, K_13..K_16, ... and the combined interval inherited it
        for n in range(3, 65):
            for kind in GraphMatrixKind:
                for mode in ("published", "corrected"):
                    report = bounds_report(complete(n), kind, mode=mode)
                    for b in report.bounds + report.combined:
                        assert b.lower <= b.upper, (n, kind, mode, b)
        # and an interval is refused past rounding
        with pytest.raises(ValueError, match="^Thm3.1/lambda_1: lower 2.0 exceeds upper 1.0$"):
            BoundInterval("lambda_1", 2.0, 1.0, "Thm3.1")

    def test_every_theorem_listed_exactly_once(self):
        from eigenloc.bounds import _REGISTRY

        for g in (petersen(), star(5), path(4), cycle(6)):
            for kind in GraphMatrixKind:
                report = bounds_report(g, kind)
                applied = {b.theorem for b in report.bounds}
                skipped = [t for t, _ in report.skipped]
                assert applied.isdisjoint(skipped)
                assert applied | set(skipped) == {
                    tag for tag, entry in _REGISTRY.items() if entry[0] == kind
                }
                assert len(skipped) == len(set(skipped))

    def test_direct_call_raises_exactly_when_report_skips(self):
        from eigenloc.bounds import _REGISTRY

        disconnected = Graph.from_edges(5, [(1, 2), (2, 3), (4, 5)])
        corpus = (
            complete(1), complete(2), path(3), cycle(4), complete(4), star(5),
            path(5), petersen(), complete_bipartite(3, 4), disconnected,
        )
        seen_reasons = set()
        for g in corpus:
            for kind in GraphMatrixKind:
                report = bounds_report(g, kind)
                reasons = dict(report.skipped)
                applied = {b.theorem for b in report.bounds}
                for tag, (tag_kind, _, _, _, name) in _REGISTRY.items():
                    if tag_kind != kind:
                        continue
                    fn = getattr(bounds_module, name)
                    if tag in reasons:
                        seen_reasons.add(reasons[tag])
                        with pytest.raises(ValueError) as err:
                            fn(g)
                        assert str(err.value) == f"{tag}: {reasons[tag]}"
                    else:
                        assert tag in applied
                        assert {b.theorem for b in fn(g)} == {tag}
        assert {
            "not connected", "not regular", "not bipartite", "not biregular",
            "no dominating vertex", "needs n >= 2", "needs n >= 3", "needs n >= 4",
        } <= seen_reasons

    def test_combined_is_intersection(self):
        report = bounds_report(complete(6), GraphMatrixKind.LAPLACIAN)
        for combined in report.combined:
            members = [b for b in report.bounds if b.target == combined.target]
            assert combined.lower == max(b.lower for b in members)
            assert combined.upper == min(b.upper for b in members)

    def test_json_schema(self):
        report = bounds_report(star(5), GraphMatrixKind.LAPLACIAN)
        obj = json.loads(report_to_json(report))
        assert set(obj) == {"graph", "matrix", "mode", "bounds", "skipped", "combined"}
        assert obj["matrix"] == "laplacian" and obj["mode"] == "published"
        assert obj["graph"]["n"] == 5 and obj["graph"]["dominating"] == [1]
        first = obj["bounds"][0]
        assert set(first) >= {"target", "lower", "upper", "theorem", "assumptions"}
        aliases = {b["target"]: b.get("alias") for b in obj["bounds"]}
        assert aliases["lambda_n_minus_1"] == "algebraic_connectivity"

    def test_json_text_spells_every_scalar_as_json_dumps(self):
        # report_to_json writes without json's pure-Python encoder; its text
        # for each scalar type, the non-finite floats, escapes and empty
        # containers is json.dumps(indent=2)'s (every atlas and family
        # report is compared byte for byte by acceptance criterion 2)
        from eigenloc.bounds import _indented_json

        leaves = [math.inf, -math.inf, math.nan, -0.0, 1e-300, 0.1, 2**70, -3, True, False, None,
                  "tab\t quote\" \u00e9 \U0001d54a", [], {}, [[]], {"k": {}}, (1, 2)]
        obj = {"leaves": leaves, "nested": {"a": leaves, "b": [{"c": None}]}, "empty": {}}
        assert _indented_json(obj) == json.dumps(obj, indent=2)
        assert _indented_json([]) == "[]" and _indented_json({}) == "{}"
        # a scalar child is written in one piece with its key or separator:
        # scalars right before and after containers, non-finite floats and
        # escaped strings as dict values, empty containers at depth
        mixed = [1, [2.5, {"k": 3}], "s", {}, -0.0, {"a": [], "b": 1.5, "c": {"d": {}}, "e": None},
                 (), math.nan, [[[], {}]], True]
        values = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan, "list": mixed,
                  "esc\n\"key\u2028": "val\t\"\\ \u00e9 \U0001d54a \x1f", "deep": {"a": {"b": [[{}], {"c": ()}]}},
                  "after": False}
        for value in (mixed, values, [values, 0, values], {"x": {}, "y": [mixed], "z": ""}):
            assert _indented_json(value) == json.dumps(value, indent=2)

    @given(_JSON_VALUES)
    @example({"\u00e9\"\x00\n": [[], {}, (), -0.0, 1e-05, 1e16], "": {"k": [math.nan, -math.inf]}})
    @example(())
    def test_json_writer_is_json_dumps_indent_2(self, value):
        assert bounds_module._indented_json(value) == json.dumps(value, indent=2)

    def test_csv_rows(self):
        report = bounds_report(complete(4), GraphMatrixKind.ADJACENCY)
        lines = report_to_csv(report).strip().splitlines()
        assert lines[0] == "theorem,target,lower,upper"
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_mode_only_affects_the_dominating_oval_bound(self):
        for kind in GraphMatrixKind:
            published = bounds_report(star(6), kind, mode="published")
            corrected = bounds_report(star(6), kind, mode="corrected")
            for a, b in zip(published.bounds, corrected.bounds):
                if a.theorem != "Thm5.4":
                    assert a == b
                else:
                    assert (a.lower, a.upper) != (b.lower, b.upper)

    def test_relabelling_changes_no_interval(self):
        # one graph per isomorphism class may stand for all its labellings
        def intervals(report):
            return [(b.target, b.lower, b.upper, b.theorem, b.assumptions)
                    for b in report.bounds + report.combined]

        for seed, (_, g) in enumerate(atlas_graphs()):
            if not classify(g).connected:
                continue
            h = relabelled(g, seed)
            for kind in GraphMatrixKind:
                for mode in ("published", "corrected"):
                    ours, theirs = bounds_report(g, kind, mode), bounds_report(h, kind, mode)
                    assert intervals(ours) == intervals(theirs), (g.edges, h.edges, kind)
                    assert ours.skipped == theirs.skipped

    def test_assumptions_name_the_registry_preconditions(self):
        from eigenloc.bounds import _REGISTRY

        def label(name, rep):
            if name == "regular":
                return f"{rep.regular}-regular"
            if name == "biregular":
                return f"({min(rep.biregular)},{max(rep.biregular)})-biregular"
            return {"dominating": "dominating vertex"}.get(name, name)

        corpus = [g for _, g in atlas_graphs()] + [star(9), complete_bipartite(5, 3), petersen(), cube_q3()]
        applied = set()
        for g in corpus:
            rep = classify(g)
            for kind in GraphMatrixKind:
                for mode in ("published", "corrected"):
                    for b in bounds_report(g, kind, mode).bounds:
                        expected = tuple(label(name, rep) for name in _REGISTRY[b.theorem][2])
                        if b.theorem == "Thm5.4":
                            expected += (mode,)
                        assert b.assumptions == expected, (g.edges, b)
                        applied.add(b.theorem)
        assert applied == set(_REGISTRY)
        assert biregular_bipartite_lambda2_bounds(star(4))[0].assumptions == (
            "connected", "bipartite", "(1,3)-biregular")

    def test_disconnected_graph_skips_everything(self):
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        report = bounds_report(g, GraphMatrixKind.LAPLACIAN)
        assert report.bounds == ()
        assert all(reason == "not connected" for _, reason in report.skipped)


class TestGenericVsSpecialized:
    def corpus(self):
        graphs = [complete(n) for n in range(3, 9)]
        graphs += [cycle(n) for n in range(3, 9)]
        graphs += [star(n) for n in range(4, 9)]
        graphs += [path(n) for n in range(3, 9)]
        graphs += [complete_bipartite(p, q) for p in (1, 2, 3) for q in (2, 3, 4)]
        graphs += [petersen(), cube_q3(), wheel(5), wheel(6)]
        return graphs

    def test_regular_adjacency_matches_trace_engine(self):
        for g in self.corpus():
            from eigenloc.graphs import classify

            rep = classify(g)
            if rep.regular is None or not rep.connected or g.n < 3:
                continue
            d, n = rep.regular, g.n
            _, top, bottom = trace_bounds(-float(d), float(n * d - d * d), n - 1)
            ivals = by_target(regular_adjacency_bounds(g))
            assert ivals[LAMBDA_2].lower == pytest.approx(top.lower, rel=1e-12, abs=1e-13)
            assert ivals[LAMBDA_2].upper == pytest.approx(top.upper, rel=1e-12, abs=1e-13)
            assert ivals[LAMBDA_N].lower == pytest.approx(bottom.lower, rel=1e-12, abs=1e-13)
            assert ivals[LAMBDA_N].upper == pytest.approx(bottom.upper, rel=1e-12, abs=1e-13)

    def test_normalized_matches_trace_engine(self):
        for g in self.corpus():
            if g.n < 3 or g.m == g.n * (g.n - 1) // 2:
                # complete graphs collapse the spread to an exact zero in the
                # closed form, while the two-trace route keeps ~1e-17 noise
                # that the square root amplifies; compared separately below
                continue
            r1 = float(randic_index(g))
            _, top, bottom = trace_bounds(-1.0, 2.0 * r1 - 1.0, g.n - 1)
            ivals = by_target(normalized_trace_bounds(g))
            assert ivals[LAMBDA_2].lower == pytest.approx(top.lower, rel=1e-12, abs=1e-13)
            assert ivals[LAMBDA_2].upper == pytest.approx(top.upper, rel=1e-12, abs=1e-13)
            assert ivals[LAMBDA_N].lower == pytest.approx(bottom.lower, rel=1e-12, abs=1e-13)
            assert ivals[LAMBDA_N].upper == pytest.approx(bottom.upper, rel=1e-12, abs=1e-13)

    def test_normalized_complete_collapse_is_exact(self):
        for n in range(3, 11):
            ivals = by_target(normalized_trace_bounds(complete(n)))
            expected = -1.0 / (n - 1)
            for tgt in (LAMBDA_2, LAMBDA_N):
                assert ivals[tgt].lower == expected
                assert ivals[tgt].upper == expected

    def test_laplacian_matches_trace_engine(self):
        for g in self.corpus():
            if g.n < 3:
                continue
            ds = g.degree_sequence
            sum_d = float(sum(ds))
            _, top, bottom = trace_bounds(sum_d, sum(d * d for d in ds) + sum_d, g.n - 1)
            ivals = by_target(laplacian_trace_bounds(g))
            assert ivals[LAMBDA_1].lower == pytest.approx(top.lower, rel=1e-12, abs=1e-13)
            assert ivals[LAMBDA_1].upper == pytest.approx(top.upper, rel=1e-12, abs=1e-13)
            assert ivals[LAMBDA_N_MINUS_1].lower == pytest.approx(bottom.lower, rel=1e-12, abs=1e-13)
            assert ivals[LAMBDA_N_MINUS_1].upper == pytest.approx(bottom.upper, rel=1e-12, abs=1e-13)


class TestRegionVsFormula:
    @pytest.mark.parametrize(
        "g",
        [complete(4), complete(6), cycle(4), cycle(6), petersen(), cube_q3()],
        ids=["K4", "K6", "C4", "C6", "Petersen", "Q3"],
    )
    def test_disk_section_matches_guard_free_endpoints(self, g):
        from eigenloc.graphs import classify

        d = classify(g).regular
        n = g.n
        best_alpha = -math.inf
        best_beta = -math.inf
        for i in range(1, n + 1):
            min_a = min(
                (1 if g.has_edge(i, k) else 0) + 2 * common_neighbors(g, i, k)
                for k in range(1, n + 1)
                if k != i
            )
            min_b = min(
                (3 if g.has_edge(i, k) else 0) + 2 * common_neighbors(g, i, k)
                for k in range(1, n + 1)
                if k != i
            )
            best_alpha = max(best_alpha, min_a)
            best_beta = max(best_beta, min_b)
        lo = -2 * d + best_alpha
        hi = 2 * d - best_beta
        a = build_matrix(g, GraphMatrixKind.ADJACENCY)
        # only the deflated spectra: drop each component's trailing gamma leaf
        region = rowsum_gersgorin_region(a)
        deflated = RegionIntersection(
            tuple(RegionUnion(component.children[:-1]) for component in region.children)
        )
        section = real_section(deflated)
        points = [x for lohi in section.intervals for x in lohi]
        points += list(section.isolated_points)
        assert min(points) >= lo - 1e-8
        assert max(points) <= hi + 1e-8


_ADJ = GraphMatrixKind.ADJACENCY
_NORM = GraphMatrixKind.NORMALIZED_ADJACENCY
_LAP = GraphMatrixKind.LAPLACIAN

# Each closed form derived from a row-sum region, against the hull of that
# region's real section without the forced eigenvalue gamma: tag -> (region
# builder, matrix kind, a-priori clamp on the hull as a function of the
# structure report or None, relation of the closed form to the clamped hull).
# Thm3.7 also uses |lambda| <= d; Thm4.4 and Thm4.5 deflate at a dominating
# vertex only, Thm5.3 relaxes the disks' left edges and Thm5.4 (published
# mode) overstates the deflated row sums, so each of those is wider than its
# region on some graphs.
REGION_AUDIT = {
    "Thm3.7": (rowsum_gersgorin_region, _ADJ, lambda rep: rep.regular, "equals"),
    "Thm3.9": (rowsum_brauer_region, _ADJ, None, "equals"),
    "Thm4.4": (rowsum_gersgorin_region, _NORM, None, "contains"),
    "Thm4.5": (rowsum_brauer_region, _NORM, None, "contains"),
    "Thm5.3": (rowsum_gersgorin_region, _LAP, None, "contains"),
    "Thm5.4": (rowsum_brauer_region, _LAP, None, "contains"),
}


def _deflated_hull(region):
    """Ends of the real section of a row-sum region with each component's
    trailing gamma leaf dropped: the region of the deflated spectra."""
    deflated = RegionIntersection(
        tuple(RegionUnion(component.children[:-1]) for component in region.children)
    )
    section = real_section(deflated)
    ends = [x for lohi in section.intervals for x in lohi] + list(section.isolated_points)
    return min(ends), max(ends)


def test_region_derived_closed_forms_against_their_regions():
    seen = {tag: set() for tag in REGION_AUDIT}
    for _, g in atlas_graphs():
        rep = classify(g)
        if not (3 <= g.n <= 7 and rep.connected):
            continue
        for kind in (_ADJ, _NORM, _LAP):
            for bound in bounds_report(g, kind).bounds:
                if bound.theorem not in REGION_AUDIT:
                    continue
                builder, _, clamp, relation = REGION_AUDIT[bound.theorem]
                lo, hi = _deflated_hull(builder(build_matrix(g, kind)))
                if clamp is not None:
                    lo, hi = max(lo, -clamp(rep)), min(hi, clamp(rep))
                where = (bound.theorem, bound.target, g.edges)
                if relation == "equals":
                    assert bound.lower == pytest.approx(lo, abs=1e-9), where
                    assert bound.upper == pytest.approx(hi, abs=1e-9), where
                else:
                    assert bound.lower <= lo + 1e-9 and hi - 1e-9 <= bound.upper, where
                seen[bound.theorem].add(kind)
    # every tag ran, on the matrix kind its row names
    assert seen == {tag: {row[1]} for tag, row in REGION_AUDIT.items()}


# ---------------------------------------------------------------------------
# exactness of the common-neighbour theorems against literal pair loops


def relabelled(g, seed):
    perm = list(range(1, g.n + 1))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


def switched(g, swaps, seed):
    """``g`` after ``swaps`` random double-edge swaps {a, b}, {c, e} -> {a, c},
    {b, e}, each of which keeps every degree: a regular ``g`` stays regular,
    but its rows stop being alike."""
    rng = random.Random(seed)
    edges = set(g.edges)
    while swaps:
        (a, b), (c, e) = rng.sample(sorted(edges), 2)
        one, two = (min(a, c), max(a, c)), (min(b, e), max(b, e))
        if len({a, b, c, e}) == 4 and one not in edges and two not in edges:
            edges -= {(a, b), (c, e)}
            edges |= {one, two}
            swaps -= 1
    return Graph.from_edges(g.n, edges)


def random_connected(n, p, seed):
    """A random spanning tree on 1..n plus each other pair with probability p."""
    rng = random.Random(seed)
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    edges += [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    return Graph.from_edges(n, edges)


def exactness_regular_corpus(largest=40, relabel=True):
    """Connected regular graphs: circulants with 1-3 offsets (n <= largest),
    with their relabellings if ``relabel``, K_n and Petersen (rows without
    non-neighbours in K_n), cycles."""
    rng = random.Random(7)
    graphs = []
    for n in range(3, largest + 1):
        for r in (1, 2, 3):
            pool = list(combinations(range(1, n // 2 + 1), r))
            if pool:
                g = circulant(n, rng.choice(pool))
                graphs += [g, relabelled(g, n * 10 + r)] if relabel else [g]
    graphs += [complete(n) for n in range(2, 12)]
    graphs += [cycle(n) for n in range(3, 25)]
    graphs += [petersen()] + ([relabelled(petersen(), 1)] if relabel else []) + [cube_q3()]
    return [g for g in graphs if classify(g).connected]


def thm39_corpus():
    """The regular corpus up to n = 24 and without relabelled copies: the
    pair loop is O(n^3) per graph, and test_relabelling_changes_no_interval
    checks relabelling on its own."""
    return exactness_regular_corpus(largest=24, relabel=False)


def exactness_laplacian_corpus():
    graphs = exactness_regular_corpus()
    graphs += [random_connected(n, p, 100 * n + k) for n in range(2, 25) for k, p in enumerate((0.1, 0.3, 0.6))]
    graphs += [star(n) for n in range(2, 9)] + [path(n) for n in range(2, 9)] + [wheel(6)]
    return graphs


def reference_thm37(g):
    """Thm3.7 per (i, k): the disk centred at -[k ~ i] with radius 2d - 2N(i,k) - 2[k ~ i]."""
    d, n = classify(g).regular, g.n
    row_lower, row_upper = [], []
    for i in range(1, n + 1):
        lefts, rights = [], []
        for k in range(1, n + 1):
            if k == i:
                continue
            adj = 1 if g.has_edge(i, k) else 0
            radius = 2 * d - 2 * common_neighbors(g, i, k) - 2 * adj
            lefts.append(-adj - radius)
            rights.append(-adj + radius)
        row_lower.append(min(lefts))
        row_upper.append(max(rights))
    lower = max(max(row_lower), -d)
    upper = min(min(row_upper), d)
    return float(lower), float(upper)


def thm39_rows(g):
    """Thm3.9 per (i, {j, k}): for each row i, the (class, alpha, beta) of
    every pair, with the three interval classes of the docstring."""
    d, n = classify(g).regular, g.n
    for i in range(1, n + 1):
        common = {v: common_neighbors(g, i, v) for v in range(1, n + 1) if v != i}
        pairs = []
        for j, k in combinations(common, 2):
            nj, nk = common[j], common[k]
            j_adj, k_adj = g.has_edge(i, j), g.has_edge(i, k)
            if j_adj and k_adj:
                root = 2.0 * math.sqrt((d - nj - 1) * (d - nk - 1))
                pairs.append(("adjacent", -1.0 - root, -1.0 + root))
            elif not j_adj and not k_adj:
                root = 2.0 * math.sqrt((d - nj) * (d - nk))
                pairs.append(("neither", -root, root))
            else:
                n_adj, n_non = (nj, nk) if j_adj else (nk, nj)
                root = math.sqrt(0.25 + 4.0 * (d - n_adj - 1) * (d - n_non))
                pairs.append(("mixed", -0.5 - root, -0.5 + root))
        yield pairs


def reference_thm39(g):
    lower, upper = -math.inf, math.inf
    for pairs in thm39_rows(g):
        lower = max(lower, min(alpha for _, alpha, _ in pairs))
        upper = min(upper, max(beta for _, _, beta in pairs))
    return lower, upper


def reference_thm53(g):
    """Thm5.3 per (i, k): alpha = -d_i + 2N(i,k) + [k ~ i], beta = d_i + 2d_k - 2N(i,k) - [k ~ i]."""
    n = g.n
    ds = [g.degree(v) for v in range(1, n + 1)]
    lower, upper = -math.inf, math.inf
    for i in range(1, n + 1):
        alphas, betas = [], []
        for k in range(1, n + 1):
            if k == i:
                continue
            common = common_neighbors(g, i, k)
            adj = 1 if g.has_edge(i, k) else 0
            alphas.append(-ds[i - 1] + 2 * common + adj)
            betas.append(ds[i - 1] + 2 * ds[k - 1] - 2 * common - adj)
        lower = max(lower, min(alphas))
        upper = min(upper, max(betas))
    return float(lower), float(upper)


class TestCommonNeighborExactness:
    # each end is a builtin float, as report_to_csv writes it with repr
    def test_thm37_matches_pair_loop(self):
        for g in exactness_regular_corpus():
            for b in regular_common_neighbor_bounds(g):
                assert (b.lower, b.upper) == reference_thm37(g), (g.n, sorted(g.edges))
                assert type(b.lower) is float and type(b.upper) is float

    def test_thm37_reads_every_row(self):
        # the corpus's graphs are vertex-transitive, so any one row decides
        # their ends; in this 9-regular complement of a switched circulant
        # vertex 6's row alone attains both ends, off the guard d, and the
        # copies move that row to the first and the last place
        h = switched(circulant(14, (1, 2)), 14, 2)
        h = Graph.from_edges(14, [(u, v) for u, v in combinations(range(1, 15), 2) if not h.has_edge(u, v)])
        for w in (1, 6, 14):
            swap = {6: w, w: 6}
            g = Graph.from_edges(14, [(swap.get(u, u), swap.get(v, v)) for u, v in h.edges])
            assert reference_thm37(g) == (-7.0, 6.0)
            for b in regular_common_neighbor_bounds(g):
                assert (b.lower, b.upper) == (-7.0, 6.0)

    def test_thm39_matches_pair_loop(self):
        for g in thm39_corpus():
            if g.n < 3:
                continue
            for b in regular_brauer_common_neighbor_bounds(g):
                assert (b.lower, b.upper) == reference_thm39(g), (g.n, sorted(g.edges))
                assert type(b.lower) is float and type(b.upper) is float

    def test_thm39_reads_the_sorted_positions_of_every_class_size(self):
        # each row sorts to its n - d values y (the diagonal's 0 among them),
        # then its d values x lifted by 2n: the top two y sit at n - d - 2 and
        # n - d - 1, the top two x at n - 2 and n - 1.  These graphs have
        # n - 1 - d = 0 (K_n: no y but the diagonal), 1 (K_n minus a perfect
        # matching: one y and the diagonal), 2 (the triangular prism, also as
        # circulant(6, (2, 3)), whose rows have two different largest x, and
        # whose mixed pairs decide the upper end; and C_5, whose pairs of
        # non-neighbours decide its ends) and many (circulants up to n = 90,
        # and two switched circulants, whose rows' two largest y differ and
        # whose y pairs decide ends), so a position one off in any class
        # moves an end (in K_n minus a matching every y is 0, so no position
        # of y moves one there)
        prism = Graph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)])
        graphs = [complete(n) for n in (3, 4, 5, 9)]
        graphs += [Graph.from_edges(n, [(u, v) for u, v in combinations(range(1, n + 1), 2)
                                        if not (u % 2 and v == u + 1)]) for n in (4, 6, 8, 12)]
        graphs += [prism, circulant(6, (2, 3)), cycle(5)]
        graphs += [circulant(32, (1, 6)), circulant(48, (2, 5, 13)), circulant(64, (1, 5, 17)),
                   relabelled(circulant(80, (3, 7, 19, 31)), 80), circulant(90, (1, 4, 11, 29)),
                   switched(circulant(8, (1, 4)), 8, 0), switched(circulant(14, (1, 3, 7)), 14, 1)]
        spare = set()
        for g in graphs:
            d = classify(g).regular
            assert d is not None and classify(g).connected
            spare.add(min(g.n - 1 - d, 3))
            (b, _) = regular_brauer_common_neighbor_bounds(g)
            assert (b.lower, b.upper) == reference_thm39(g), (g.n, sorted(g.edges))
        assert spare == {0, 1, 2, 3}

    def test_thm39_corpus_reaches_every_pair_class(self):
        # each class gives some row's smallest alpha and some row's largest beta
        lows, highs = set(), set()
        for g in thm39_corpus():
            if g.n < 3:
                continue
            for pairs in thm39_rows(g):
                alpha = min(a for _, a, _ in pairs)
                beta = max(b for _, _, b in pairs)
                lows.update(c for c, a, _ in pairs if a == alpha)
                highs.update(c for c, _, b in pairs if b == beta)
        assert lows == highs == {"adjacent", "neither", "mixed"}

    def test_thm53_matches_pair_loop(self):
        for g in exactness_laplacian_corpus():
            for b in laplacian_common_neighbor_bounds(g):
                assert (b.lower, b.upper) == reference_thm53(g), (g.n, sorted(g.edges))
                assert type(b.lower) is float and type(b.upper) is float

    def test_corpus_covers_every_row_shape(self):
        regular = exactness_regular_corpus()
        # rows with no non-neighbour (K_n), exactly two neighbours (cycles),
        # and both classes populated (Petersen, sparse circulants)
        assert any(g.m == g.n * (g.n - 1) // 2 and g.n >= 3 for g in regular)
        assert any(classify(g).regular == 2 and g.n >= 5 for g in regular)
        assert any(classify(g).regular == 6 and g.n >= 20 for g in regular)
        assert any(classify(g).regular is None for g in exactness_laplacian_corpus())

    def test_table_built_once_per_graph(self, monkeypatch):
        made = count_first_reads(monkeypatch, Graph, "common_neighbor_table")
        g = circulant(30, (1, 4))
        bounds_report(g, GraphMatrixKind.ADJACENCY)  # Thm3.7 and Thm3.9
        bounds_report(g, GraphMatrixKind.LAPLACIAN)  # Thm5.3 on the same graph
        assert len(made) == 1 and made[0] is g
        # an equal graph is another owner, with its own table
        same = Graph.from_edges(30, sorted(g.edges, reverse=True))
        bounds_report(same, GraphMatrixKind.LAPLACIAN)
        assert len(made) == 2 and made[1] is same

    def test_randic_index_made_once_per_graph(self, monkeypatch):
        # Thm4.1 and Thm4.3 both read it on a connected bipartite graph
        made = count_first_reads(monkeypatch, Graph, "randic_index")
        g = complete_bipartite(6, 7)
        report = bounds_report(g, GraphMatrixKind.NORMALIZED_ADJACENCY)
        assert {"Thm4.1", "Thm4.3"} <= {b.theorem for b in report.bounds}
        assert made == [g] and made[0] is g

    def test_table_matches_pairwise_counts(self):
        # A·A: N(i,k) off the diagonal, by bitmask, and the degrees on it
        for g in exactness_laplacian_corpus():
            table, n = g.common_neighbor_table, g.n
            assert table.shape == (n, n) and table.dtype == np.float64
            assert not table.flags.writeable
            assert np.array_equal(table, table.T)
            assert table.diagonal().tolist() == list(g.degree_sequence)
            assert all(table[i - 1, k - 1] == common_neighbors(g, i, k)
                       for i in range(1, n + 1) for k in range(1, n + 1) if k != i)

    def test_table_is_one_n_by_n_array(self):
        # the table of a 1,024-vertex graph adds 8 n^2 bytes, one float array,
        # and at most 64 KB more; the (n, n - 1) int64 pair added twice that
        g = circulant(1024, (1, 2, 3))
        g.adjacency
        tracemalloc.start()
        try:
            g.common_neighbor_table
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 8 * g.n**2 + (64 << 10)


def test_no_graph_outlives_its_reports():
    g = circulant(40, (1, 2, 3))
    ref = weakref.ref(g)
    for kind in GraphMatrixKind:
        bounds_report(g, kind)
    del g
    gc.collect()
    assert ref() is None


def test_report_holds_no_memory_after_it_returns():
    # the graph's adjacency and common-neighbour table are 8 MB each here
    tracemalloc.start()
    try:
        bounds_report(circulant(1024, (1, 2, 3)), GraphMatrixKind.ADJACENCY)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20
