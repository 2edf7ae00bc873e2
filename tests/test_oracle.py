"""Eigensolver oracles: Jacobi route, Aberth route, cross-agreement."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigenloc import oracle
from eigenloc.graphs import (
    Graph,
    GraphMatrixKind,
    build_matrix,
    circulant,
    complete,
    complete_minus_edge,
    cycle,
    path,
    petersen,
    star,
)
from eigenloc.oracle import (
    Spectrum,
    _rotation_tangents,
    _round_robin_move,
    charpoly,
    complex_eigenvalues,
    graph_spectrum,
    normalized_spectrum,
    spectrum_to_json,
    symmetric_eigenvalues,
)
from eigenloc.regions import deflate

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


class TestJacobi:
    def test_k2_laplacian(self):
        spec = symmetric_eigenvalues(build_matrix(complete(2), GraphMatrixKind.LAPLACIAN))
        assert spec.values == pytest.approx((2.0, 0.0), abs=1e-12)

    def test_zero_matrix(self):
        spec = symmetric_eigenvalues(np.zeros((4, 4)))
        assert spec.values == (0.0, 0.0, 0.0, 0.0)
        assert spec.max_residual == 0.0

    def test_petersen_adjacency(self):
        spec = symmetric_eigenvalues(build_matrix(petersen(), GraphMatrixKind.ADJACENCY))
        expected = [3.0] + [1.0] * 5 + [-2.0] * 4
        assert spec.values == pytest.approx(expected, abs=1e-10)

    def test_residual_certificate(self):
        rng = np.random.default_rng(2)
        spec = symmetric_eigenvalues(random_symmetric(rng, 12), tol=1e-12)
        assert 0 <= spec.max_residual <= 1e-12

    def test_tiny_matrix_is_rotated(self):
        # the stopping target is relative to ||A||_F, not floored at 1
        spec = symmetric_eigenvalues(1e-20 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert spec.values == pytest.approx((1e-20, -1e-20), rel=1e-12)
        assert spec.iterations >= 1

    @pytest.mark.parametrize("scale", [1e-30, 1e-8])
    def test_below_unit_scale_agrees_with_lapack(self, scale):
        a = random_symmetric(np.random.default_rng(21), 12, scale)
        spec = symmetric_eigenvalues(a)
        expected = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.max(np.abs(np.array(spec.values) - expected)) <= 1e-12 * np.linalg.norm(a, 2)
        assert spec.max_residual <= 1e-12

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


class TestRoundRobinJacobi:
    def test_schedule_pairs_every_index_pair_once_per_sweep(self):
        for m in range(2, 65, 2):
            move = _round_robin_move(m)
            slots = np.arange(m)
            met = []
            for _ in range(m - 1):
                pairs = slots.reshape(-1, 2)
                assert len(set(pairs.ravel().tolist())) == m  # the round's pairs are disjoint
                met += [frozenset(p) for p in pairs.tolist()]
                slots = slots[move]
            assert len(met) == len(set(met)) == m * (m - 1) // 2
            assert slots.tolist() == list(range(m))  # a sweep ends where it started

    @pytest.mark.parametrize("n", [1, 3, 91])
    def test_padding_path_agrees_with_lapack(self, n):
        a = random_symmetric(np.random.default_rng(n), n)
        spec = symmetric_eigenvalues(a)
        assert len(spec) == n
        assert_matches_eigvalsh(a, spec)

    @pytest.mark.parametrize("kind", list(GraphMatrixKind), ids=lambda k: k.value)
    def test_large_circulant_agrees_with_lapack(self, kind):
        g = circulant(90, (1, 2))
        spec = graph_spectrum(g, kind)
        assert_matches_eigvalsh(symmetric_graph_matrix(g, kind), spec)
        assert 1 <= spec.iterations <= 15

    def test_random_symmetric_agrees_with_lapack(self):
        rng = np.random.default_rng(20)
        for n in (2, 4, 5, 16, 17, 33, 64):
            for scale in (1e-3, 2.0, 1e3):
                a = random_symmetric(rng, n, scale)
                assert_matches_eigvalsh(a, symmetric_eigenvalues(a))

    def test_flush_branch(self):
        t, left = _rotation_tangents(np.array([[1.0], [1.0]]), np.array([1e-300]), 0.0)
        assert t.tolist() == [0.0]
        assert left.tolist() == [0.0]
        spec = symmetric_eigenvalues(np.array([[1.0, 1e-300], [1e-300, 1.0]]))
        assert spec.values == (1.0, 1.0)
        assert spec.max_residual == 0.0

    def test_large_theta_branch(self):
        theta = (1.0 - 0.0) / (2.0 * 1e-160)
        assert theta > 1e150
        t, left = _rotation_tangents(np.array([[0.0], [1.0]]), np.array([1e-160]), 0.0)
        assert t.tolist() == [1.0 / (2.0 * theta)]
        assert left.tolist() == [0.0]
        a = np.array([[0.0, 1e-160], [1e-160, 1.0]])
        assert symmetric_eigenvalues(a).values == (1.0, 0.0)
        rotated = symmetric_eigenvalues(a, tol=0.0)
        assert rotated.iterations == 1
        assert rotated.values == pytest.approx((1.0, 0.0), abs=1e-300)
        assert rotated.max_residual == 0.0

    def test_pivot_below_target_is_kept(self):
        # the 1e-15 pivot between equal diagonals is under tol * ||A||_F / 4,
        # so it is neither rotated (45 degrees) nor dropped from the certificate
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 2] = a[3, 3] = 1.0
        a[2, 3] = a[3, 2] = 1e-15
        spec = symmetric_eigenvalues(a)
        assert spec.values == (1.0, 1.0, 1.0, -1.0)
        assert spec.iterations == 1
        assert spec.max_residual == pytest.approx(np.sqrt(2) * 1e-15 / np.linalg.norm(a), rel=1e-9, abs=0)

    def test_equal_diagonal_cluster_converges(self):
        # rotating rounding noise inside the 30-fold eigenvalue -1/31 used to
        # stall the round-robin ordering in 50 sweeps
        g = complete_minus_edge(32)
        spec = normalized_spectrum(g)
        assert spec.iterations <= 15
        assert_matches_eigvalsh(symmetric_graph_matrix(g, GraphMatrixKind.NORMALIZED_ADJACENCY), spec)

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_JACOBI_SWEEPS", 1)
        a = random_symmetric(np.random.default_rng(4), 20)
        with pytest.raises(RuntimeError, match="did not reach tolerance in 1 sweeps"):
            symmetric_eigenvalues(a)

    def test_repeatable(self):
        a = random_symmetric(np.random.default_rng(6), 37)
        assert symmetric_eigenvalues(a) == symmetric_eigenvalues(a)


class TestEmptyMatrix:
    def test_charpoly_is_constant_one(self):
        coeffs = charpoly(np.zeros((0, 0)))
        assert coeffs.dtype == complex
        assert coeffs.tolist() == [1 + 0j]

    @pytest.mark.parametrize("solver", [symmetric_eigenvalues, complex_eigenvalues])
    def test_empty_spectrum(self, solver):
        spec = solver(np.zeros((0, 0)))
        assert spec == Spectrum((), 0.0)
        assert len(spec) == 0


class TestNormalizedSpectrum:
    def test_k4(self):
        spec = normalized_spectrum(complete(4))
        assert spec.values == pytest.approx([1.0, -1 / 3, -1 / 3, -1 / 3], abs=1e-10)

    def test_p4(self):
        spec = normalized_spectrum(path(4))
        assert spec.values == pytest.approx([1.0, 0.5, -0.5, -1.0], abs=1e-10)

    @pytest.mark.parametrize("g", [cycle(6), star(5), path(7)], ids=["C6", "K14", "P7"])
    def test_bipartite_smallest_is_minus_one(self, g):
        spec = normalized_spectrum(g)
        assert spec.values[-1] == pytest.approx(-1.0, abs=1e-10)

    def test_matches_dense_similarity(self):
        g = petersen()
        spec = normalized_spectrum(g)
        dense = np.linalg.eigvals(build_matrix(g, GraphMatrixKind.NORMALIZED_ADJACENCY))
        match_multisets(spec.values, sorted(dense.real, reverse=True), 1e-9)

    def test_disconnected_top_value_is_checked(self, monkeypatch):
        # two disjoint edges: no isolated vertex, so the top value must still be 1
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        assert normalized_spectrum(g).values == pytest.approx([1.0, 1.0, -1.0, -1.0])
        monkeypatch.setattr(
            oracle, "symmetric_eigenvalues", lambda a, tol: Spectrum((0.9, 0.9, -1.0, -1.0), 0.0)
        )
        with pytest.raises(RuntimeError, match="not 1"):
            normalized_spectrum(g)


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
            charpoly(np.eye(65))
        with pytest.raises(ValueError):
            complex_eigenvalues(np.eye(65))


class TestComplexEigenvalues:
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


def test_spectrum_json():
    spec = complex_eigenvalues(np.diag([1.0, 1.0j]))
    obj = json.loads(spectrum_to_json(spec))
    assert np.allclose(obj["values"], [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)
    assert obj["residual"] <= 1e-12
    assert set(obj) == {"values", "residual"}


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
        charpoly(_with_off_diagonal_pair(value))
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
