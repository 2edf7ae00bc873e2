"""Eigensolver oracles: tridiagonal QL route, Aberth route, cross-agreement."""

import functools
import gc
import hashlib
import operator
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from eigenloc import oracle
from eigenloc.graphs import (
    Graph,
    GraphMatrixKind,
    build_matrix,
    circulant,
    complete,
    complete_bipartite,
    complete_minus_edge,
    cycle,
    path,
    petersen,
    star,
)
from eigenloc.oracle import (
    Spectrum,
    _ql,
    _tridiagonal,
    complex_eigenvalues,
    symmetric_eigenvalues,
)
from eigenloc.regions import deflate

from ._reference import charpoly
from .conftest import GAMMA_3X3, ROWSUM_3X3, match_multisets, random_constant_rowsum_matrix


EPS = np.finfo(float).eps


def random_symmetric(rng, n, scale=2.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2


def backward_error(a, values):
    """Largest sigma_min(z I - A) / ||A||_F over the values z."""
    a = np.asarray(a, dtype=complex)
    eye = np.eye(len(a))
    return max(
        np.linalg.svd(z * eye - a, compute_uv=False)[-1] for z in values
    ) / np.linalg.norm(a)


class TestSymmetricEigenvalues:
    def test_k2_laplacian(self):
        spec = symmetric_eigenvalues(build_matrix(complete(2), GraphMatrixKind.LAPLACIAN))
        assert spec.values == pytest.approx((2.0, 0.0), abs=1e-12)

    def test_zero_matrix(self):
        spec = symmetric_eigenvalues(np.zeros((4, 4)))
        assert spec.values == (0.0, 0.0, 0.0, 0.0)

    def test_petersen_adjacency(self):
        spec = symmetric_eigenvalues(build_matrix(petersen(), GraphMatrixKind.ADJACENCY))
        expected = [3.0] + [1.0] * 5 + [-2.0] * 4
        assert spec.values == pytest.approx(expected, abs=1e-10)

    def test_no_error_bound(self):
        # QL gives no backward error; only the Aberth route certifies one
        rng = np.random.default_rng(2)
        for a in (random_symmetric(rng, 12), np.zeros((4, 4))):
            assert symmetric_eigenvalues(a).max_residual is None
        assert path(5).spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY).max_residual is None

    def test_tiny_matrix_is_rotated(self):
        # the solve runs on A scaled by a power of two near max |a_ij|
        spec = symmetric_eigenvalues(1e-20 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert spec.values == pytest.approx((1e-20, -1e-20), rel=1e-12)
        assert spec.iterations >= 1

    @pytest.mark.parametrize("scale", [1e-30, 1e-8])
    def test_below_unit_scale_agrees_with_lapack(self, scale):
        a = random_symmetric(np.random.default_rng(21), 12, scale)
        spec = symmetric_eigenvalues(a)
        expected = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.max(np.abs(np.array(spec.values) - expected)) <= 1e-12 * np.linalg.norm(a, 2)

    def test_values_sorted_descending(self):
        rng = np.random.default_rng(3)
        spec = symmetric_eigenvalues(random_symmetric(rng, 9))
        assert list(spec.values) == sorted(spec.values, reverse=True)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_asymmetric_below_unit_scale(self):
        # nilpotent, so its eigenvalues are 0, not +-5e-21
        with pytest.raises(ValueError, match="not symmetric"):
            symmetric_eigenvalues(np.array([[0.0, 1e-20], [0.0, 0.0]]))

    def test_rejects_imaginary_part_below_unit_scale(self):
        # Hermitian with eigenvalues about +-1e-13; the real part alone gives +-1e-15
        a = np.array([[0.0, 1e-15 + 1e-13j], [1e-15 - 1e-13j, 0.0]])
        with pytest.raises(ValueError, match="imaginary"):
            symmetric_eigenvalues(a)

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            symmetric_eigenvalues(np.ones((2, 3)))

    def test_accepts_a_negligible_imaginary_part(self):
        # 1e-20 is below 1e-12 of the largest real part, which is solved alone
        assert symmetric_eigenvalues(np.eye(3) + 1e-20j).values == (1.0, 1.0, 1.0)

    def test_rejects_imaginary_part_near_the_float_range(self):
        # |a_ij| overflows to inf, which once let any imaginary part through
        with pytest.raises(ValueError, match="imaginary"):
            symmetric_eigenvalues(np.array([[1.5e308 + 1.5e308j]]))

    def test_agrees_with_lapack(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 8, 13, 21):
            a = random_symmetric(rng, n)
            ours = np.array(symmetric_eigenvalues(a).values)
            lapack = np.linalg.eigvalsh(a)[::-1]
            assert np.max(np.abs(ours - lapack)) <= 1e-9


def assert_matches_eigvalsh(a, spec):
    a = np.asarray(a, dtype=float)
    lapack = np.linalg.eigvalsh(a)[::-1]
    bound = 1e-12 * max(1.0, np.linalg.norm(a, 2))
    assert np.max(np.abs(np.array(spec.values) - lapack)) <= bound


def symmetric_graph_matrix(g, kind):
    """The kind matrix of g, or for the normalized adjacency its symmetric similar form."""
    if kind != GraphMatrixKind.NORMALIZED_ADJACENCY:
        return build_matrix(g, kind)
    root = np.sqrt([g.degree(v) for v in range(1, g.n + 1)])
    return build_matrix(g, GraphMatrixKind.ADJACENCY) / np.outer(root, root)


def solved_normalized_spectrum(g):
    """The spectrum of D^{-1}A solved, not derived: the oracle's QL on
    A / sqrt(outer(d, d)), the similar matrix that ``Graph.spectrum`` solves
    for a graph that is not regular."""
    d = np.array(g.degree_sequence, dtype=float)
    return oracle.symmetric_eigenvalues(g.adjacency / np.sqrt(np.outer(d, d)))


def lapack_values(a):
    """eigvalsh of a / s, times s, descending, with s a power of two near max |a_ij|."""
    exponent = np.frexp(np.max(np.abs(a)))[1] if np.any(a) else 0
    return np.ldexp(np.linalg.eigvalsh(np.ldexp(a, -exponent))[::-1], exponent)


def tridiagonal_matrix(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


class TestTridiagonalQL:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64])
    def test_tridiagonal_is_similar(self, n):
        a = random_symmetric(np.random.default_rng(n), n, 0.25)
        d, e = _tridiagonal(a)
        assert len(d) == n and len(e) == max(n - 1, 0)
        gap = np.max(np.abs(np.linalg.eigvalsh(tridiagonal_matrix(d, e)) - np.linalg.eigvalsh(a)))
        assert gap <= 4 * n * EPS * np.linalg.norm(a)

    @pytest.mark.parametrize("n", [2, 5, 12, 31, 90])
    def test_tridiagonal_keeps_norm_and_trace(self, n):
        a = random_symmetric(np.random.default_rng(30 + n), n, 0.25)
        d, e = map(np.array, _tridiagonal(a))
        norm = np.linalg.norm(a)
        assert abs(np.sqrt(np.sum(d**2) + 2 * np.sum(e**2)) - norm) <= 4 * n * EPS * norm
        assert abs(np.sum(d) - np.trace(a)) <= 4 * n * EPS * norm

    def test_zero_column_is_not_reflected(self):
        # column 0 below the subdiagonal is 0, and column 1's tail is too small
        # to square: both are taken as they stand
        a = np.diag([1.0, 0.5, 0.25, 0.0])
        a[0, 1] = a[1, 0] = 0.5
        a[1, 3] = a[3, 1] = 1e-170
        d, e = _tridiagonal(a)
        assert d == [1.0, 0.5, 0.25, 0.0]
        assert e == [0.5, 0.0, 0.0]

    def test_tiny_column_is_reflected_at_scale(self):
        # column 0's part below the diagonal has ||x||^2 = 2e-320, a subnormal
        # whose reciprocal overflows: it is reflected from x scaled up by 2^532
        a = np.diag([1.0, 0.5, 0.25])
        a[1, 0] = a[0, 1] = a[2, 0] = a[0, 2] = 1e-160
        d, e = _tridiagonal(a)
        assert e[0] == pytest.approx(-np.sqrt(2.0) * 1e-160, rel=4 * EPS)
        assert d == pytest.approx([1.0, 0.375, 0.375], abs=4 * EPS)
        assert abs(e[1]) == pytest.approx(0.125, abs=4 * EPS)

    @pytest.mark.parametrize("p, q", [(16, 17), (16, 19), (19, 19), (15, 27), (40, 40)])
    @pytest.mark.parametrize("kind", list(GraphMatrixKind), ids=lambda k: k.value)
    def test_complete_bipartite_agrees_with_lapack(self, p, q, kind):
        # K_{p,q}'s adjacency has rank 2: after two reflections the trailing
        # block is rounding noise that later ones shrink to a subnormal norm
        g = complete_bipartite(p, q)
        a = symmetric_graph_matrix(g, kind)
        direct = solved_normalized_spectrum(g) if kind == GraphMatrixKind.NORMALIZED_ADJACENCY else symmetric_eigenvalues(a)
        assert_matches_eigvalsh(a, direct)
        assert_matches_eigvalsh(a, g.spectrum(kind))

    @pytest.mark.parametrize("n", [1, 3, 91])
    def test_odd_sizes_agree_with_lapack(self, n):
        a = random_symmetric(np.random.default_rng(n), n)
        spec = symmetric_eigenvalues(a)
        assert len(spec) == n
        assert_matches_eigvalsh(a, spec)

    @pytest.mark.parametrize("kind", list(GraphMatrixKind), ids=lambda k: k.value)
    def test_large_circulant_agrees_with_lapack(self, kind):
        g = circulant(90, (1, 2))
        spec = g.spectrum(kind)
        assert_matches_eigvalsh(symmetric_graph_matrix(g, kind), spec)
        assert 1 <= spec.iterations <= 3 * g.n

    def test_random_symmetric_agrees_with_lapack(self):
        rng = np.random.default_rng(20)
        for n in (2, 4, 5, 16, 17, 33, 64):
            for scale in (1e-3, 2.0, 1e3):
                a = random_symmetric(rng, n, scale)
                assert_matches_eigvalsh(a, symmetric_eigenvalues(a))

    def test_negligible_entry_is_dropped(self):
        assert _ql([1.0, 2.0], [1e-16]) == ([1.0, 2.0], 0)
        spec = symmetric_eigenvalues(np.array([[1.0, 1e-300], [1e-300, 1.0]]))
        assert spec.values == (1.0, 1.0)
        assert spec.iterations == 0

    def test_large_shift_ratio(self):
        # (d1 - d0) / (2 e0) is 5e9: one step, and the small value to full accuracy
        values, steps = _ql([0.0, 1.0], [1e-10])
        assert sorted(values) == pytest.approx([-1e-20, 1.0], rel=1e-12)
        assert steps == 1
        assert symmetric_eigenvalues(np.array([[0.0, 1e-160], [1e-160, 1.0]])).values == (1.0, 0.0)

    def test_underflowed_rotation_restarts(self):
        # an input, found by a random search over graded tridiagonals, on which
        # a rotation's hypot(f, g) underflows to 0 and the step restarts
        d = [-8.757595521122455e-139, 7.986395914311202e-150, -2.181252772215037e58, 0.0]
        e = [4.48364812667641e-108, -5.189343891801538e109, 1.2854957189962342e98]
        values, steps = _ql(d, e)
        t = tridiagonal_matrix(d, e)
        expected = np.linalg.eigvalsh(t)
        assert np.max(np.abs(np.sort(values) - expected)) <= 4 * 4 * EPS * np.linalg.norm(t)
        assert steps <= 3 * 4

    def test_below_old_target_pivot_agrees_with_lapack(self):
        # the 1e-15 pivot between equal diagonals is now rotated, not kept
        spec = symmetric_eigenvalues(pivot_below_target_matrix())
        assert_matches_eigvalsh(pivot_below_target_matrix(), spec)

    def test_subnormal_pivot_agrees_with_lapack(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = symmetric_eigenvalues(subnormal_pivot_matrix())
        assert_matches_eigvalsh(subnormal_pivot_matrix(), spec)

    def test_equal_diagonal_cluster_converges(self):
        # the 30-fold eigenvalue -1/31, which once stalled a Jacobi ordering
        g = complete_minus_edge(32)
        spec = g.spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY)
        assert spec.iterations <= 3 * g.n
        assert_matches_eigvalsh(symmetric_graph_matrix(g, GraphMatrixKind.NORMALIZED_ADJACENCY), spec)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_QL_STEPS_PER_ROW", 1)
        a = random_symmetric(np.random.default_rng(4), 20)
        with pytest.raises(RuntimeError, match="did not converge in 20 steps"):
            symmetric_eigenvalues(a)

    def test_eigenvalue_past_the_float_range_raises_value_error(self):
        # the eigenvalue 3e308 of the all-1e308 matrix has no float
        with pytest.raises(ValueError, match="float range"):
            symmetric_eigenvalues(np.full((3, 3), 1e308))

    def test_repeatable(self):
        a = random_symmetric(np.random.default_rng(6), 37)
        assert symmetric_eigenvalues(a) == symmetric_eigenvalues(a)


def pivot_below_target_matrix():
    """A 1e-15 pivot between equal diagonals, once kept unrotated by Jacobi."""
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    a[2, 2] = a[3, 3] = 1.0
    a[2, 3] = a[3, 2] = 1e-15
    return a


def subnormal_pivot_matrix():
    """A 5e-324 pivot next to a unit diagonal entry, beside a unit pivot."""
    a = np.diag([0.0, 0.0, 0.0, 1.0])
    a[0, 1] = a[1, 0] = 1.0
    a[2, 3] = a[3, 2] = 5e-324
    return a


@functools.cache
def corpus_random_matrices() -> dict:
    """Seeded random symmetric matrices, keyed by (scale, n)."""
    rng = np.random.default_rng(21)
    return {
        (scale, n): random_symmetric(rng, n, scale)
        for scale in (1e-300, 1.0, 1e300)
        for n in (1, 2, 5, 12, 31)
    }


def symmetric_corpus():
    """Matrices that reach every branch of the symmetric route.

    Graph matrices of every kind, odd and even n up to 90; seeded random
    matrices at scales 1e-300, 1 and 1e300; and matrices with a negligible,
    a large-shift, a subnormal and a below-eps pivot.
    """
    graphs = [make(n) for make in (complete, cycle, star, path, complete_minus_edge) for n in (3, 4, 7, 8, 17)]
    graphs += [cycle(64), complete_minus_edge(64), complete_bipartite(3, 4), complete_bipartite(8, 24)]
    graphs += [petersen(), circulant(33, (1, 5)), circulant(90, (1, 2))]
    mats = [symmetric_graph_matrix(g, kind) for g in graphs for kind in GraphMatrixKind]
    mats += list(corpus_random_matrices().values())
    mats += [
        np.array([[1.0, 1e-300], [1e-300, 1.0]]),
        np.array([[0.0, 1e-160], [1e-160, 1.0]]),
        np.array([[1.0, 5e-324], [5e-324, 0.0]]),
        subnormal_pivot_matrix(),
        pivot_below_target_matrix(),
    ]
    return mats


def symmetric_outcome(a):
    """The spectrum of a, or the error or warning raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return symmetric_eigenvalues(a)
        except (RuntimeError, RuntimeWarning) as exc:
            return exc


@functools.cache
def symmetric_corpus_outcomes() -> tuple:
    """The outcomes of :func:`symmetric_eigenvalues` on the corpus, computed once."""
    return tuple(symmetric_outcome(a) for a in symmetric_corpus())


def outcome_line(outcome) -> str:
    """repr of (values, iterations), or of the error or warning."""
    if isinstance(outcome, Spectrum):
        return repr((outcome.values, outcome.iterations))
    return repr(outcome)


class TestSymmetricBitIdentity:
    # SHA-256 of the corpus outcomes, one per line, with numpy 2.4.6 on
    # CPython 3.11; the route calls no BLAS kernel, so it is the same under
    # every OPENBLAS_CORETYPE (SkylakeX, Haswell, Sandybridge, Nehalem and
    # Prescott were checked)
    DIGEST = "e306d4a024367aa070a390fbec26a4b4c8293e487990f1ed10d738f3c2e7a535"

    def test_outputs_match_recorded_digest(self):
        outcomes = "\n".join(map(outcome_line, symmetric_corpus_outcomes()))
        assert hashlib.sha256(outcomes.encode()).hexdigest() == self.DIGEST

    def test_outputs_match_lapack(self):
        # the same check on any platform, against LAPACK within a bound set
        # from the dtype: 4 n eps of the largest |eigenvalue|
        for a, outcome in zip(symmetric_corpus(), symmetric_corpus_outcomes()):
            assert isinstance(outcome, Spectrum), outcome
            expected = lapack_values(a)
            gap = np.max(np.abs(np.array(outcome.values) - expected))
            assert gap <= 4 * len(a) * EPS * np.max(np.abs(expected))


@pytest.mark.parametrize("scale", [1e-300, 1e300])
@pytest.mark.parametrize("n", [2, 5, 12, 31])
def test_extreme_scales_agree_with_lapack(scale, n):
    # the random matrices of the corpus, whose sums of squares underflow or
    # overflow unscaled; a warning is an error
    a = corpus_random_matrices()[scale, n]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = symmetric_eigenvalues(a)
    expected = np.linalg.eigvalsh(a / scale)[::-1] * scale
    assert np.max(np.abs(np.array(spec.values) - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestEmptyMatrix:
    def test_charpoly_is_constant_one(self):
        coeffs = charpoly(np.zeros((0, 0)))
        assert coeffs.dtype == complex
        assert coeffs.tolist() == [1 + 0j]

    @pytest.mark.parametrize("solver", [symmetric_eigenvalues, complex_eigenvalues])
    def test_empty_spectrum(self, solver):
        spec = solver(np.zeros((0, 0)))
        # QL gives no error bound, Aberth's is 0 for the zero matrix
        assert spec == Spectrum((), None if solver is symmetric_eigenvalues else 0.0)
        assert len(spec) == 0


class TestNormalizedSpectrum:
    def test_k4(self):
        spec = complete(4).spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY)
        assert spec.values == pytest.approx([1.0, -1 / 3, -1 / 3, -1 / 3], abs=1e-10)

    def test_p4(self):
        spec = path(4).spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY)
        assert spec.values == pytest.approx([1.0, 0.5, -0.5, -1.0], abs=1e-10)

    @pytest.mark.parametrize("g", [cycle(6), star(5), path(7)], ids=["C6", "K14", "P7"])
    def test_bipartite_smallest_is_minus_one(self, g):
        spec = g.spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY)
        assert spec.values[-1] == pytest.approx(-1.0, abs=1e-10)

    def test_matches_dense_similarity(self):
        g = petersen()
        spec = g.spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY)
        dense = np.linalg.eigvals(build_matrix(g, GraphMatrixKind.NORMALIZED_ADJACENCY))
        match_multisets(spec.values, sorted(dense.real, reverse=True), 1e-9)

    def test_rejects_an_isolated_vertex(self):
        with pytest.raises(ValueError, match="^normalized adjacency undefined with an isolated vertex$"):
            Graph.from_edges(3, [(1, 2)]).spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY)

    def test_disconnected_top_value_is_checked(self, monkeypatch):
        # two disjoint edges: no isolated vertex, so the top value must still be 1
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        assert g.spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY).values == pytest.approx([1.0, 1.0, -1.0, -1.0])
        monkeypatch.setattr(
            oracle, "symmetric_eigenvalues", lambda a: Spectrum((0.9, 0.9, -1.0, -1.0), 0.0)
        )
        # g keeps its spectrum: an equal graph solves again
        with pytest.raises(RuntimeError, match="not 1"):
            Graph.from_edges(4, [(1, 2), (3, 4)]).spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY)


def regular_corpus():
    """Regular graphs of degree at least 1: those of the atlas (n <= 7), the
    regular families up to n = 64, Petersen, and seeded random regular graphs
    with n <= 40."""
    from ._corpus import atlas_graphs

    graphs = [g for _, g in atlas_graphs() if g.structure.regular]
    graphs += [complete(n) for n in range(2, 65)] + [cycle(n) for n in range(3, 65)]
    graphs += [circulant(n, (1, 2)) for n in range(5, 65)] + [complete_bipartite(p, p) for p in range(1, 33)]
    graphs.append(petersen())
    for n in range(6, 41, 2):
        for d in (3, 4, 5):
            h = nx.random_regular_graph(d, n, seed=7 * n + d)
            graphs.append(Graph.from_edges(n, [(u + 1, v + 1) for u, v in h.edges()]))
    return graphs


class TestRegularGraphSpectra:
    """A k-regular graph's Laplacian and normalized spectra, derived from its
    one adjacency solve, against LAPACK and against the direct route."""

    def test_derived_spectra_agree_with_lapack_and_the_direct_route(self):
        for g in regular_corpus():
            for kind, direct in ((GraphMatrixKind.LAPLACIAN, symmetric_eigenvalues(build_matrix(g, GraphMatrixKind.LAPLACIAN))),
                                 (GraphMatrixKind.NORMALIZED_ADJACENCY, solved_normalized_spectrum(g))):
                derived = np.array(g.spectrum(kind).values)
                lapack = np.linalg.eigvalsh(symmetric_graph_matrix(g, kind))[::-1]
                bound = 4 * g.n * EPS * np.max(np.abs(lapack))
                assert np.max(np.abs(derived - lapack)) <= bound, (g, kind)
                assert np.max(np.abs(derived - np.array(direct.values))) <= bound, (g, kind)
            assert all(g.spectrum(kind).max_residual is None for kind in GraphMatrixKind)

    def test_one_solve_for_the_three_kinds(self, monkeypatch):
        solved = []
        solve = oracle.symmetric_eigenvalues
        monkeypatch.setattr(oracle, "symmetric_eigenvalues", lambda a: solved.append(a) or solve(a))
        g = petersen()
        # asked for the Laplacian first, it solves the adjacency alone
        laplacian = g.spectrum(GraphMatrixKind.LAPLACIAN)
        adjacency = g.spectrum(GraphMatrixKind.ADJACENCY)
        normalized = g.spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY)
        assert len(solved) == 1 and solved[0] is g.adjacency
        assert laplacian.values == tuple(3 - x for x in reversed(adjacency.values))
        assert normalized.values == tuple(x / 3 for x in adjacency.values)
        assert laplacian.iterations == normalized.iterations == adjacency.iterations
        # another Petersen graph, equal but not the same, is solved again
        petersen().spectrum(GraphMatrixKind.LAPLACIAN)
        assert len(solved) == 2

    @pytest.mark.parametrize("g", [star(5), path(6), Graph.from_edges(4, [])], ids=["star", "path", "empty"])
    def test_other_graphs_take_the_direct_route(self, g, monkeypatch):
        solved = []
        solve = oracle.symmetric_eigenvalues
        monkeypatch.setattr(oracle, "symmetric_eigenvalues", lambda a: solved.append(a) or solve(a))
        for kind in (GraphMatrixKind.ADJACENCY, GraphMatrixKind.LAPLACIAN):
            assert g.spectrum(kind) == solve(build_matrix(g, kind))
        if g.structure.regular is None:
            assert g.spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY) == solved_normalized_spectrum(g)
        assert len(solved) == (4 if g.structure.regular is None else 2)

    def test_derived_top_normalized_value_is_checked(self, monkeypatch):
        monkeypatch.setattr(oracle, "symmetric_eigenvalues", lambda a: Spectrum((2.9,) + (0.0,) * 9, 0.0))
        with pytest.raises(RuntimeError, match="top normalized eigenvalue"):
            petersen().spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY)

    def test_solved_top_normalized_value_is_checked(self, monkeypatch):
        monkeypatch.setattr(oracle, "symmetric_eigenvalues", lambda a: Spectrum((0.9,) + (0.0,) * 9, 0.0))
        with pytest.raises(RuntimeError, match="top normalized eigenvalue 0.9 is not 1"):
            star(10).spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY)

    def test_kept_adjacency_spectrum_is_freed_with_its_graph(self):
        # a regular graph and one that is not keep the spectrum and the matrix
        # of every kind, which are freed with them; an equal graph shares
        # none of them
        for make in (lambda: circulant(40, (1, 2, 3)), lambda: star(40)):
            g = make()
            specs = list(map(g.spectrum, GraphMatrixKind))
            held = [value for value in vars(g).values() if isinstance(value, Spectrum)]
            assert sorted(map(id, held)) == sorted(map(id, specs))
            assert all(map(operator.is_, map(g.spectrum, GraphMatrixKind), specs))
            kept = [*specs, *map(g.matrix, GraphMatrixKind)]
            equal = make()
            assert not [value for value in vars(equal).values() if isinstance(value, Spectrum)]
            theirs = [*map(equal.spectrum, GraphMatrixKind), *map(equal.matrix, GraphMatrixKind)]
            assert not {id(value) for value in kept} & set(map(id, theirs))
            refs = [weakref.ref(value) for value in (g, *kept)]
            del g, specs, held, kept
            gc.collect()
            assert all(ref() is None for ref in refs)


class TestCharpoly:
    def test_swap_matrix(self):
        assert np.allclose(charpoly(np.array([[0, 1], [1, 0]])), [1, 0, -1])

    def test_k3_adjacency(self):
        # (x - 2)(x + 1)^2 = x^3 - 3x - 2
        coeffs = charpoly(build_matrix(complete(3), GraphMatrixKind.ADJACENCY))
        assert np.allclose(coeffs, [1, 0, -3, -2], atol=1e-12)

    def test_rowsum_matrix_has_gamma_root(self):
        coeffs = charpoly(ROWSUM_3X3)
        value = np.polyval(coeffs, GAMMA_3X3)
        assert abs(value) <= 1e-9

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            complex_eigenvalues(np.eye(65))


class TestComplexEigenvalues:
    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            complex_eigenvalues(np.ones((2, 3)))

    def test_diagonal(self):
        spec = complex_eigenvalues(np.diag([1.0, 2.0 + 1.0j]))
        assert spec.values == pytest.approx([2.0 + 1.0j, 1.0], abs=1e-12)

    def test_rowsum_matrix_contains_gamma(self):
        spec = complex_eigenvalues(ROWSUM_3X3)
        assert min(abs(z - GAMMA_3X3) for z in spec.values) <= 1e-10

    def test_cube_roots_of_unity(self):
        companion = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        spec = complex_eigenvalues(companion)
        expected = [np.exp(2j * np.pi * k / 3) for k in range(3)]
        match_multisets(spec.values, expected, 1e-10)

    def test_sorted_by_real_then_imag_descending(self):
        spec = complex_eigenvalues(np.diag([1.0 + 1.0j, 1.0 - 1.0j, 3.0]))
        assert spec.values == pytest.approx([3.0, 1.0 + 1.0j, 1.0 - 1.0j], abs=1e-12)

    def test_residual_recorded(self, rowsum_matrix):
        spec = complex_eigenvalues(rowsum_matrix)
        beta = backward_error(rowsum_matrix, spec.values)
        assert spec.max_residual <= 4 * 3 * EPS
        assert beta / 2 <= spec.max_residual <= 2 * beta

    @pytest.mark.parametrize("n", [16, 24])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_unit_square_random_matrix(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((n, n)) + 1j * rng.random((n, n))
        spec = complex_eigenvalues(a)
        beta = backward_error(a, spec.values)
        assert beta <= 1e-12
        assert beta / 2 <= spec.max_residual <= 2 * beta
        match_multisets(spec.values, np.linalg.eigvals(a), 1e-10)

    def test_large_multiplicity_cluster(self):
        # adjacency of K_20 has eigenvalue -1 with multiplicity 19
        a = build_matrix(complete(20), GraphMatrixKind.ADJACENCY)
        spec = complex_eigenvalues(a)
        assert spec.iterations <= oracle._MAX_ABERTH_ITERATIONS
        assert spec.max_residual <= 4 * 20 * EPS
        match_multisets(spec.values, [19.0] + [-1.0] * 19, 1e-8)

    def test_repeated_roots(self):
        # adjacency of K_6 has eigenvalue -1 with multiplicity 5
        spec = complex_eigenvalues(build_matrix(complete(6), GraphMatrixKind.ADJACENCY))
        match_multisets(spec.values, [5.0] + [-1.0] * 5, 1e-8)

    @pytest.mark.parametrize("n", [34, 40, 50, 64])
    @pytest.mark.parametrize(
        "kind", [GraphMatrixKind.ADJACENCY, GraphMatrixKind.LAPLACIAN], ids=lambda k: k.value
    )
    def test_complete_graph_certifies(self, n, kind):
        # -1 (adjacency) and n (Laplacian) have n - 1 independent eigenvectors;
        # the Hessenberg split leaves no block that has to resolve them
        a = build_matrix(complete(n), kind)
        spec = complex_eigenvalues(a)
        assert spec.max_residual <= 4 * n * EPS
        assert backward_error(a, spec.values) <= 4 * n * EPS
        if kind == GraphMatrixKind.ADJACENCY:
            expected = [n - 1.0] + [-1.0] * (n - 1)
        else:
            expected = [0.0] + [float(n)] * (n - 1)
        match_multisets(spec.values, expected, 1e-6)

    @pytest.mark.parametrize("m", [4, 8])
    def test_jordan_cluster_certifies(self, m):
        # companion matrix of (z - 1)^m: one eigenvalue, one eigenvector
        coeffs = np.poly(np.ones(m))
        companion = np.eye(m, k=-1)
        companion[0] = -coeffs[1:]
        spec = complex_eigenvalues(companion)
        assert spec.max_residual <= 4 * m * EPS
        assert backward_error(companion, spec.values) <= 4 * m * EPS
        # an m-fold defective root is only located to about eps ** (1 / m)
        match_multisets(spec.values, [1.0] * m, 10 * EPS ** (1 / m))

    def test_stalled_hyman_bound_is_checked_by_svd(self, monkeypatch):
        # a zero-row-sum matrix where one root's Hyman bound stays a few times
        # above the target after the root has stopped moving
        rng = np.random.default_rng(23)
        a = 2 * rng.random((12, 12)) - 1
        a -= np.diag(a.sum(axis=1))
        sizes = []
        sigma_min = oracle._sigma_min

        def spy(b, z):
            sizes.append(z.size)
            return sigma_min(b, z)

        monkeypatch.setattr(oracle, "_sigma_min", spy)
        spec = complex_eigenvalues(a)
        # checks of the stalled root alone, then the final certificate
        assert sizes[-1] == 12 and 1 in sizes[:-1]
        assert spec.max_residual <= 4 * 12 * EPS
        assert backward_error(a, spec.values) <= 4 * 12 * EPS
        match_multisets(spec.values, np.linalg.eigvals(a), 1e-10)

    def test_graded_hessenberg_does_not_overflow(self):
        # subdiagonals of 1e-13 stay above the split threshold, and Hyman's
        # unscaled back-substitution would grow by about 1e13 a row
        n = 64
        rng = np.random.default_rng(3)
        h = np.triu(rng.random((n, n)) + 1j * rng.random((n, n)))
        h[np.arange(1, n), np.arange(n - 1)] = 1e-13
        z = np.array([0.5 + 0.5j, 2.0, -1.0j])
        growth = (np.log2(np.abs(np.triu(h)).sum(axis=1)[1:] + 3.0) + 13 * np.log2(10.0)).tolist()
        assert sum(growth) > 1100
        alpha, dalpha, size = oracle._hyman(h, z, growth)
        assert np.isfinite(alpha).all() and np.isfinite(dalpha).all() and np.isfinite(size).all()
        # p'(z) / p(z) = tr((z I - H)^{-1}) by Jacobi's formula
        for k, zk in enumerate(z):
            newton = np.trace(np.linalg.inv(zk * np.eye(n) - h))
            assert dalpha[k] / alpha[k] == pytest.approx(newton, rel=1e-9)
            sigma = np.linalg.svd(h - zk * np.eye(n), compute_uv=False)[-1]
            assert sigma <= abs(alpha[k]) / size[k] * (1 + 1e-9)
        spec = complex_eigenvalues(h)
        assert spec.max_residual <= 4 * n * EPS
        assert backward_error(h, spec.values) <= 4 * n * EPS

    @pytest.mark.parametrize(
        "a, values",
        [
            # max |a_ij| past 2^1023, and |a_ij| itself past the float range
            (np.diag([1.5e308, -1e308, 3.0]), [1.5e308, 3.0, -1e308]),
            (np.diag([1e308 + 1e308j, 2.0]), [1e308 + 1e308j, 2.0]),
        ],
    )
    def test_entries_near_the_float_range(self, a, values):
        assert complex_eigenvalues(a).values == tuple(complex(v) for v in values)

    def test_eigenvalue_past_the_float_range_raises_value_error(self):
        # the eigenvalue 3e308 of the all-1e308 matrix has no float
        with pytest.raises(ValueError, match="float range"):
            complex_eigenvalues(np.full((3, 3), 1e308))


def sweep_matrix(rng, n, dist):
    """Unit-square complex, uniform real on [-1, 1], or that with every row
    summing to the mean row sum (the diagonal shifted)."""
    if dist == "square":
        return rng.random((n, n)) + 1j * rng.random((n, n))
    a = 2 * rng.random((n, n)) - 1
    if dist == "rowsum":
        sums = a.sum(axis=1)
        a[np.arange(n), np.arange(n)] += sums.mean() - sums
    return a


class TestTwoPhaseAberth:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_charpoly_matches_the_reference(self, n):
        # the Hessenberg recurrence against Faddeev-LeVerrier in long double
        rng = np.random.default_rng(40 + n)
        a = rng.integers(-3, 4, (n, n)).astype(complex)
        h, _ = oracle._hessenberg(a)
        ours = oracle._charpoly(h)[::-1]
        expected = charpoly(h)
        assert ours[0] == 1.0
        assert np.max(np.abs(ours - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_at_most_two_hyman_steps_per_block(self, n, monkeypatch):
        # from the circle, a block took 8 to 19 Hyman steps at these sizes
        steps = []
        hyman, block = oracle._hyman, oracle._aberth_block

        def count_block(*args):
            steps.append(0)
            return block(*args)

        def count_hyman(*args):
            steps[-1] += 1
            return hyman(*args)

        monkeypatch.setattr(oracle, "_aberth_block", count_block)
        monkeypatch.setattr(oracle, "_hyman", count_hyman)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            complex_eigenvalues(rng.random((n, n)) + 1j * rng.random((n, n)))
        assert steps and max(steps) <= 2, steps

    @pytest.mark.parametrize("spoil", ["nan", "repeated"])
    def test_a_spoilt_start_falls_back_to_the_circle(self, spoil, monkeypatch):
        start = oracle._start_points
        rng = np.random.default_rng(5)
        a = rng.random((12, 12)) + 1j * rng.random((12, 12))
        monkeypatch.setattr(oracle, "_start_points", lambda coeffs, z, tol: (z.copy(), 0))
        circle = complex_eigenvalues(a)

        def spoilt(coeffs, z, tol):
            z, steps = start(coeffs, z, tol)
            z[0] = np.nan if spoil == "nan" else z[1]
            return z, steps

        monkeypatch.setattr(oracle, "_start_points", spoilt)
        spec = complex_eigenvalues(a)
        assert spec.max_residual <= 4 * 12 * EPS
        match_multisets(spec.values, circle.values, 1e-10)

    def test_sweep_to_the_dimension_cap(self):
        # every size, each with one of nine (matrix kind, scale) pairs in turn;
        # a numpy warning is an error
        rng = np.random.default_rng(64)
        kinds = [(dist, scale) for scale in (2.0**-40, 1.0, 2.0**40) for dist in ("square", "real", "rowsum")]
        for n in range(1, 65):
            dist, scale = kinds[n % len(kinds)]
            a = sweep_matrix(rng, n, dist) * scale
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                spec = complex_eigenvalues(a)
            assert spec.max_residual <= 4 * n * EPS, (n, dist, scale)
            match_multisets(spec.values, np.linalg.eigvals(a), 1e-9 * scale)


class TestCrossOracle:
    def graph_corpus(self):
        return [
            complete(3),
            complete(6),
            complete(10),
            cycle(5),
            cycle(8),
            star(6),
            path(7),
            petersen(),
        ]

    def test_agreement_on_graph_matrices(self):
        for g in self.graph_corpus():
            for kind in GraphMatrixKind:
                if kind == GraphMatrixKind.NORMALIZED_ADJACENCY:
                    continue
                m = build_matrix(g, kind)
                sym = symmetric_eigenvalues(m)
                poly = complex_eigenvalues(m)
                match_multisets(sym.values, poly.values, 1e-7)

    def test_agreement_on_random_symmetric(self):
        rng = np.random.default_rng(8)
        for n in range(2, 11):
            m = random_symmetric(rng, n)
            sym = symmetric_eigenvalues(m)
            poly = complex_eigenvalues(m)
            match_multisets(sym.values, poly.values, 1e-7)

    def test_trace_identities(self):
        rng = np.random.default_rng(9)
        for n in (3, 5, 8):
            m = random_symmetric(rng, n)
            values = np.array(symmetric_eigenvalues(m).values)
            assert values.sum() == pytest.approx(np.trace(m), abs=1e-7)
            assert (values**2).sum() == pytest.approx(np.trace(m @ m), abs=1e-7)
            a, _ = random_constant_rowsum_matrix(rng, n)
            roots = np.array(complex_eigenvalues(a).values)
            assert roots.sum() == pytest.approx(np.trace(a), abs=1e-7)
            assert (roots**2).sum() == pytest.approx(np.trace(a @ a), abs=1e-7)

    def test_permutation_similarity_invariance(self):
        rng = np.random.default_rng(10)
        a, _ = random_constant_rowsum_matrix(rng, 6)
        perm = rng.permutation(6)
        p = np.eye(6)[perm]
        match_multisets(
            complex_eigenvalues(a).values,
            complex_eigenvalues(np.linalg.inv(p) @ a @ p).values,
            1e-8,
        )

    def test_deflation_preserves_spectrum(self):
        rng = np.random.default_rng(12)
        for n in (3, 5, 7):
            a, gamma = random_constant_rowsum_matrix(rng, n)
            full = list(complex_eigenvalues(a).values)
            for k in range(1, n + 1):
                rest = complex_eigenvalues(deflate(a, k)).values
                match_multisets(full, list(rest) + [gamma], 1e-7)


def test_complex_counts_aberth_iterations():
    # companion matrix of (z - 1)(z - 2)(z - 3): one unreduced block
    companion = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert complex_eigenvalues(companion).iterations >= 1
    # a diagonal matrix splits into 1 x 1 blocks, which need no step
    assert complex_eigenvalues(np.diag([1.0, 2.0, 3.0])).iterations == 0


def test_symmetric_dimension_cap():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.zeros((2049, 2049)))


def _with_off_diagonal_pair(value, dtype=float):
    a = np.eye(3, dtype=dtype)
    a[0, 1] = a[1, 0] = value
    return a


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("value", NON_FINITE + [complex(1.0, np.nan)])
def test_symmetric_rejects_non_finite(value):
    with pytest.raises(ValueError):
        symmetric_eigenvalues(_with_off_diagonal_pair(value, type(value)))


@pytest.mark.parametrize("value", NON_FINITE)
def test_complex_rejects_non_finite(value):
    with pytest.raises(ValueError):
        complex_eigenvalues(_with_off_diagonal_pair(value))


def test_complex_route_needs_no_mpmath():
    # a None entry in sys.modules makes any import of mpmath fail
    code = (
        "import sys; sys.modules['mpmath'] = None\n"
        "import numpy as np, eigenloc\n"
        "print(eigenloc.complex_eigenvalues(np.diag([1.0, 2j])).values)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
