"""Closed-form bound catalog: every theorem's worked values plus reports."""

import json
import math
import random
from itertools import combinations

import pytest

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
    trace_bounds,
)
from eigenloc.graphs import (
    Graph,
    GraphMatrixKind,
    build_matrix,
    circulant,
    classify,
    common_neighbors,
    complete,
    complete_bipartite,
    complete_minus_edge,
    cycle,
    degrees,
    path,
    petersen,
    randic_index,
    star,
)
from eigenloc.oracle import normalized_spectrum, symmetric_eigenvalues
from eigenloc.regions import (
    RegionIntersection,
    RegionUnion,
    real_section,
    rowsum_brauer_region,
    rowsum_gersgorin_region,
)

from ._corpus import atlas_graphs


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
        assert randic_index(star(4), -1) == pytest.approx(1.0)
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
        assert randic_index(path(4), -1) == pytest.approx(1.25)
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
            t = min(1.0 / d + 2.0 * d / (n - 1.0) for d in rest)
            lowers.append(-2.0 - 2.0 / (n - 1.0) + t)
            uppers.append(2.0 - t)
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

    def test_star_laplacian_applicability(self):
        report = bounds_report(star(5), GraphMatrixKind.LAPLACIAN)
        assert {b.theorem for b in report.bounds} == {"Thm5.2", "Thm5.3", "Thm5.4"}
        assert report.skipped == ()

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
            r1 = randic_index(g, -1.0)
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
            prof = degrees(g)
            sum_d = float(sum(prof.degrees))
            _, top, bottom = trace_bounds(sum_d, prof.sum_squares + sum_d, g.n - 1)
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
        section = real_section(deflated, tol=1e-9)
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
    section = real_section(deflated, tol=1e-9)
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
    def test_thm37_matches_pair_loop(self):
        for g in exactness_regular_corpus():
            for b in regular_common_neighbor_bounds(g):
                assert (b.lower, b.upper) == reference_thm37(g), (g.n, sorted(g.edges))

    def test_thm39_matches_pair_loop(self):
        for g in thm39_corpus():
            if g.n < 3:
                continue
            for b in regular_brauer_common_neighbor_bounds(g):
                assert (b.lower, b.upper) == reference_thm39(g), (g.n, sorted(g.edges))

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

    def test_corpus_covers_every_row_shape(self):
        regular = exactness_regular_corpus()
        # rows with no non-neighbour (K_n), exactly two neighbours (cycles),
        # and both classes populated (Petersen, sparse circulants)
        assert any(g.m == g.n * (g.n - 1) // 2 and g.n >= 3 for g in regular)
        assert any(classify(g).regular == 2 and g.n >= 5 for g in regular)
        assert any(classify(g).regular == 6 and g.n >= 20 for g in regular)
        assert any(classify(g).regular is None for g in exactness_laplacian_corpus())

    def test_rows_built_once_per_graph(self):
        rows = bounds_module._common_neighbor_rows
        rows.cache_clear()
        g = circulant(30, (1, 4))
        bounds_report(g, GraphMatrixKind.ADJACENCY)  # Thm3.7 and Thm3.9
        assert rows.cache_info().misses == 1
        same = Graph.from_edges(30, sorted(g.edges, reverse=True))
        bounds_report(same, GraphMatrixKind.LAPLACIAN)  # Thm5.3 on an equal graph
        assert rows.cache_info().misses == 1
        assert rows.cache_info().hits == 2
