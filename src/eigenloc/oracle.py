"""Reference eigensolvers used to verify bounds and regions.

Two independent routes are provided: for real symmetric matrices,
Householder reduction to tridiagonal form and implicit-shift QL, with no
BLAS call, so its results are the same on every machine; for general
complex matrices, Aberth-Ehrlich simultaneous iteration on the blocks of a
Householder Hessenberg form, started from the roots that the same
iteration finds on each block's characteristic polynomial, and finished,
certified, with Newton ratios p'(z) / p(z) from Hyman's back-substitution.
Neither calls a LAPACK eigensolver.  Every spectrum carries the solver's
iteration count; an Aberth spectrum also carries its backward error, which
QL does not give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import _ISOLATED, MAX_VERTICES, Graph, GraphMatrixKind, _check_kind, _has_matrix, _require

__all__ = [
    "Spectrum",
    "symmetric_eigenvalues",
    "normalized_spectrum",
    "graph_spectrum",
    "complex_eigenvalues",
]

_MAX_COMPLEX_DIM = 64
# QL steps allowed per row of a symmetric matrix
_MAX_QL_STEPS_PER_ROW = 30
_MAX_ABERTH_ITERATIONS = 500
# the polynomial Aberth that finds the start points stops once no point moves
# by more than this times the start circle's radius, or after this many steps
_START_STEP = 2.0 ** -30
_MAX_START_ITERATIONS = 64
# an Aberth root is frozen once its backward error is at most this times n
_ABERTH_TARGET = 4.0 * np.finfo(float).eps
# an Aberth root moving by at most this times ||B||_F may have stalled
_STALL_STEP = np.finfo(float).eps ** 0.25


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicity and the solver's iteration count.

    Real spectra are sorted descending; complex spectra by real part
    descending, then imaginary part descending.  ``max_residual`` is the
    Aberth route's certificate, the largest ``sigma_min(z I - A) / ||A||_F``
    over the roots z; it is None on the QL route, which gives no error
    bound.  ``iterations`` counts QL steps, or the Aberth steps of both
    phases, on the polynomial and with Hyman's ratios, of the slowest block.
    """

    values: tuple
    max_residual: float | None = None
    iterations: int = 0

    def __len__(self) -> int:
        return len(self.values)


def _square(a: np.ndarray, cap: int) -> int:
    """The dimension n of ``a``, either route's input; ValueError unless it is square with n <= ``cap``."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if (n := a.shape[0]) > cap:
        raise ValueError(f"dimension {n} exceeds the {cap} cap")
    return n


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")


# ---------------------------------------------------------------------------
# tridiagonal QL route (real symmetric)


def _tridiagonal(b: np.ndarray) -> tuple[list, list]:
    """Householder reduction of a symmetric b to tridiagonal form Q^T b Q.

    Returns the diagonal d and the subdiagonal e as lists of floats.
    Column k's part x below the diagonal is reflected onto
    -sign(x_0) ||x|| e_1 (Golub & Van Loan, Matrix Computations, section
    8.3.1), unless the squares of its entries below the subdiagonal sum to
    0; those entries are then each below about 1.6e-162, far below the
    rounding of the reflections for max |b_ij| near 1, and are set to 0.
    A column with ||x||^2 < 2^-900, such as the subnormal noise left below a
    rank-deficient b, is reflected from x times the power of two that brings
    max |x_i| into [1/2, 1): the same reflection, as LAPACK's ``dlarfg`` makes.
    Inner products and matrix-vector products are ``np.add.reduce`` of
    elementwise products and the rank-two update is built with
    ``np.multiply.outer``, so no BLAS kernel sets the order of a sum; the
    update subtracts u + u^T, which keeps the working matrix symmetric.
    """
    a = b.copy()
    n = a.shape[0]
    e = []
    for k in range(n - 2):
        x = a[k + 1 :, k]
        x0 = float(x[0])
        tail = float(np.add.reduce(x[1:] * x[1:]))
        if tail == 0.0:
            e.append(x0)
            continue
        shift = 0 if x0 * x0 + tail >= 2.0 ** -900 else -math.frexp(float(np.max(np.abs(x))))[1]
        if shift:
            x = np.ldexp(x, shift)
            x0, tail = float(x[0]), float(np.add.reduce(x[1:] * x[1:]))
        size = math.copysign(math.sqrt(x0 * x0 + tail), x0)
        v = x.copy()
        v[0] = x0 + size
        # the reflection is I - tau v v^T, as ||v||^2 = 2 |size| (|size| + |x_0|)
        tau = 1.0 / (size * v[0])
        rest = a[k + 1 :, k + 1 :]
        p = tau * np.add.reduce(rest * v, axis=1)
        w = p - (0.5 * tau * float(np.add.reduce(p * v))) * v
        u = np.multiply.outer(v, w)
        rest -= u + u.T
        e.append(-math.ldexp(size, -shift))
    # the last subdiagonal entry, if n > 1, needs no reflection
    return a.diagonal().tolist(), e + a.diagonal(-1)[n - 2 :].tolist()


def _ql(d: list, e: list) -> tuple[list, int]:
    """Eigenvalues of the symmetric tridiagonal matrix with diagonal d and subdiagonal e.

    Implicit-shift QL (Bowdler, Martin, Reinsch & Wilkinson, Numer. Math.
    11, 1968; EISPACK ``tql1``) in plain Python floats.  e[m], between rows
    m and m + 1, is dropped once |e[m]| <= eps (|d[m]| + |d[m + 1]|), or
    once it is below 1.5e-154, where eps |d| may underflow: far below eps
    when max |t_ij| is near 1.  Returns the values, unsorted, and the
    number of steps; raises RuntimeError after 30 n steps in all, as
    LAPACK's ``dsterf`` does.
    """
    n = len(d)
    d, e = list(d), list(e) + [0.0]
    eps, hypot, copysign = float(np.finfo(float).eps), math.hypot, math.copysign
    tiny = math.sqrt(float(np.finfo(float).tiny))
    cap = _MAX_QL_STEPS_PER_ROW * n
    steps = 0
    for lo in range(n):
        while True:
            m = lo
            while m < n - 1:
                drop = abs(e[m])
                if drop <= tiny or drop <= eps * (abs(d[m]) + abs(d[m + 1])):
                    e[m] = 0.0
                    break
                m += 1
            if m == lo:
                break
            if steps == cap:
                raise RuntimeError(f"QL iteration did not converge in {cap} steps")
            steps += 1
            dlo, elo = d[lo], e[lo]
            g = (d[lo + 1] - dlo) / (2.0 * elo)
            r = hypot(g, 1.0)
            g = d[m] - dlo + elo / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, lo - 1, -1):
                ei = e[i]
                f = s * ei
                b = c * ei
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # the rotation underflowed: restart on the block split at e[i + 1] = 0
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[lo] = dlo - p
                e[lo] = g
                e[m] = 0.0
    return d, steps


def symmetric_eigenvalues(matrix) -> Spectrum:
    """All eigenvalues of a real symmetric matrix by tridiagonal QL.

    Works on B = A / 2^k, with 2^k the power of two just above max |a_ij|,
    so that no sum of squares overflows, nor underflows for want of scale.
    B is reduced to a tridiagonal T = Q^T B Q by Householder reflections
    (:func:`_tridiagonal`), and T's eigenvalues come from implicit-shift QL
    (:func:`_ql`); neither calls a LAPACK eigensolver or a BLAS kernel, so
    the result is the same on every machine.  No error bound is given:
    ``max_residual`` is None.  ``iterations`` is the number of QL steps.
    Raises ValueError when an eigenvalue is past the float range, and
    RuntimeError when QL takes more than 30 n steps.
    """
    a = np.asarray(matrix)
    n = _square(a, MAX_VERTICES)
    if n == 0:
        return Spectrum(values=())
    # both checks are relative to the largest entry, so they hold at every scale
    if np.iscomplexobj(a):
        # negated so that a NaN imaginary part is rejected too; |a_ij| itself
        # may overflow, the largest real part cannot
        if not np.max(np.abs(a.imag)) <= 1e-12 * np.max(np.abs(a.real)):
            raise ValueError("matrix has a non-negligible imaginary part")
        a = a.real
    a = np.asarray(a, dtype=float)
    _check_finite(a)
    big = float(np.max(np.abs(a)))
    if big == 0.0:
        return Spectrum(values=(0.0,) * n)
    exponent = math.frexp(big)[1]
    b = np.ldexp(a, -exponent)
    if np.max(np.abs(b - b.T)) > 1e-12 * math.ldexp(big, -exponent):
        raise ValueError("matrix is not symmetric")
    b = (b + b.T) / 2.0
    d, steps = _ql(*_tridiagonal(b))
    try:
        values = sorted((math.ldexp(x, exponent) for x in d), reverse=True)
    except OverflowError:
        raise ValueError("an eigenvalue is past the float range") from None
    return Spectrum(values=tuple(values), iterations=steps)


def normalized_spectrum(g: Graph) -> Spectrum:
    """Spectrum of the normalized adjacency matrix D^{-1}A of ``g``.

    Computed on the symmetric similar matrix with entries
    a_ij / sqrt(d_i d_j), so the symmetric route applies and the result is
    exactly real.  Without an isolated vertex every component has top
    value 1, so the top value must be 1; this is asserted within 1e-9
    (RuntimeError otherwise).
    """
    _require(_has_matrix(g, GraphMatrixKind.NORMALIZED_ADJACENCY), _ISOLATED)
    d = np.array(g.degree_sequence, dtype=float)
    sym = g.adjacency / np.sqrt(np.outer(d, d))
    return _top_is_one(symmetric_eigenvalues(sym))


def _top_is_one(spec: Spectrum) -> Spectrum:
    if abs(spec.values[0] - 1.0) > 1e-9:
        raise RuntimeError(f"top normalized eigenvalue {spec.values[0]!r} is not 1 within 1e-9")
    return spec


def graph_spectrum(g: Graph, kind: GraphMatrixKind) -> Spectrum:
    """Spectrum of the ``kind`` matrix of ``g`` by the symmetric QL route.

    The adjacency spectrum is ``g.adjacency_spectrum``, solved once and kept
    by the graph.  A k-regular graph (k >= 1) derives its other two from it,
    as L = kI - A and D^{-1}A = A / k: k - lambda reversed, and lambda / k
    with :func:`normalized_spectrum`'s top-value check.  Any other graph's
    Laplacian ``g.matrix(kind)`` is solved, and its normalized spectrum is
    :func:`normalized_spectrum`'s.  Anything but a GraphMatrixKind raises
    ValueError.
    """
    _check_kind(kind)
    if kind == GraphMatrixKind.ADJACENCY:
        return g.adjacency_spectrum
    k = g.structure.regular
    if not k:
        if kind == GraphMatrixKind.NORMALIZED_ADJACENCY:
            return normalized_spectrum(g)
        return symmetric_eigenvalues(g.matrix(kind))
    spec = g.adjacency_spectrum
    if kind == GraphMatrixKind.LAPLACIAN:
        return Spectrum(tuple(k - x for x in reversed(spec.values)), iterations=spec.iterations)
    return _top_is_one(Spectrum(tuple(x / k for x in spec.values), iterations=spec.iterations))


# ---------------------------------------------------------------------------
# general complex matrices


def _hessenberg(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder reduction b = q h q^H with h upper Hessenberg, q unitary.

    Column j's part x from the subdiagonal down is reflected onto
    -phase * ||x|| e_1, with phase the sign of x_0 (Golub & Van Loan,
    Matrix Computations, section 7.4), and the entries below the
    subdiagonal are set to 0.  A column with ||x|| <= eps ||b||_F is not
    reflected, only zeroed below the subdiagonal: its subdiagonal entry is
    split off anyway, and ||b - q h q^H||_F counts what was zeroed.
    """
    n = b.shape[0]
    tiny = np.finfo(float).eps * float(np.linalg.norm(b))
    h = b.copy()
    q = np.eye(n, dtype=complex)
    for j in range(n - 2):
        x = h[j + 1 :, j]
        size = math.sqrt(np.vdot(x, x).real)
        if size <= tiny or not x[1:].any():
            h[j + 2 :, j] = 0.0
            continue
        x0 = complex(x[0])
        phase = x0 / abs(x0) if x0 else 1.0
        v = x.copy()
        v[0] += phase * size
        # the reflection is I - v v^H / (size (size + |x_0|)), as
        # ||v||^2 = 2 size (size + |x_0|)
        vh = v.conj() / (size * (size + abs(x0)))
        h[j + 1 :, j + 1 :] -= v[:, None] * (vh @ h[j + 1 :, j + 1 :])
        h[j + 1, j] = -phase * size
        h[j + 2 :, j] = 0.0
        h[:, j + 1 :] -= (h[:, j + 1 :] @ v)[:, None] * vh
        q[:, j + 1 :] -= (q[:, j + 1 :] @ v)[:, None] * vh
    return h, q


def _hyman(
    h: np.ndarray, z: np.ndarray, growth: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hyman's method on an unreduced Hessenberg block h at the points z.

    Back-substitutes (h - z I) x = alpha e_1 with x_m = 1 from the last row
    up, together with the z-derivative x' (Wilkinson, The Algebraic
    Eigenvalue Problem, section 7.11), for every z at once.  By Cramer's
    rule det(h - z I) is alpha times a constant, so p'(z) / p(z) =
    alpha' / alpha, and the rank-one E = alpha e_1 x^H / ||x||^2 makes z an
    eigenvalue of h - E, so ``|alpha| / ||x||`` is a backward error.
    Returns alpha, alpha' and ||x||.

    Column k of ``w`` holds x for the k-th point and column r + k its x'.
    Row i grows them by at most 2^growth[i - 1]; once the growth since the
    last rescale could pass 2^450, each point's x and x' are scaled by the
    same power of two, which changes no ratio, so ||x||^2 cannot overflow
    on a graded block.
    """
    m, r = h.shape[0], z.size
    zz = np.concatenate((z, z))
    w = np.zeros((m, 2 * r), dtype=complex)
    w[m - 1, :r] = 1.0
    grown = 0.0
    for i in range(m - 1, 0, -1):
        grown += growth[i - 1]
        if grown > 450.0:
            top = np.abs(w[i:]).max(axis=0)
            exponent = np.frexp(np.maximum(top[:r], top[r:]))[1]
            w[i:] *= np.ldexp(1.0, -np.concatenate((exponent, exponent)))
            grown = growth[i - 1]
        s = h[i, i:] @ w[i:] - zz * w[i]
        s[r:] -= w[i, :r]
        np.divide(s, -h[i, i - 1], out=w[i - 1])
    s = h[0] @ w - zz * w[0]
    s[r:] -= w[0, :r]
    return s[:r], s[r:], np.linalg.norm(w[:, :r], axis=0)


def _sigma_min(b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sigma_min(z_i I - b) for each point z_i, by one batched SVD."""
    shifted = z[:, None, None] * np.eye(b.shape[0]) - b
    return np.linalg.svd(shifted, compute_uv=False)[:, -1]


def _charpoly(h: np.ndarray) -> np.ndarray:
    """Coefficients of det(x I - h) for an upper Hessenberg h, lowest degree first.

    The Hessenberg determinant recurrence (Cohen, A Course in Computational
    Algebraic Number Theory, 1993, section 2.2.4): with p_0 = 1, the
    characteristic polynomial of h's leading k x k block is
    p_k = x p_{k-1} - sum_{i<=k} h_ik (h_{i+1,i} ... h_{k,k-1}) p_{i-1},
    with the empty product 1 for i = k.  Row k of ``p`` holds p_k, and
    ``t`` the subdiagonal products.
    """
    m = h.shape[0]
    p = np.zeros((m + 1, m + 1), dtype=complex)
    p[0, 0] = 1.0
    t = np.ones(m, dtype=complex)
    sub = np.concatenate(([1.0], np.diag(h, -1)))
    for k in range(1, m + 1):
        t[: k - 1] *= sub[k - 1]
        p[k, :k] = -np.add.reduce((t[:k] * h[:k, k - 1])[:, None] * p[:k, :k])
        p[k, 1 : k + 1] += p[k - 1, :k]
    return p[m]


def _start_points(coeffs: np.ndarray, z: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Aberth-Ehrlich on the monic polynomial ``coeffs`` (lowest degree first) from z.

    Each step evaluates p and p' at every point at once, as each point's
    powers times the coefficients, so a step costs a fixed number of array
    operations whatever the degree.  The iteration stops once no point
    moves by more than ``tol``, or after 64 steps.  Nothing here is
    certified: the points only start :func:`_aberth_block`'s certified
    iteration.  Returns the points and the number of steps.
    """
    m = z.size
    slopes = coeffs[1:] * np.arange(1, m + 1)
    # adding it to the gaps z_i - z_j makes 1 / (z_i - z_i) = 0
    diagonal = np.diag(np.full(m, np.inf))
    powers = np.ones((m, m + 1), dtype=complex)
    # a point far out may overflow its powers; a NaN correction ends the
    # loop, and the caller's guard sees the NaN point
    with np.errstate(all="ignore"):
        for steps in range(1, _MAX_START_ITERATIONS + 1):
            powers[:, 1:] = z[:, None]
            np.multiply.accumulate(powers, axis=1, out=powers)
            newton = np.add.reduce(powers * coeffs, axis=1) / np.add.reduce(powers[:, :-1] * slopes, axis=1)
            correction = newton / (1.0 - newton * np.add.reduce(1.0 / (z[:, None] - z + diagonal), axis=1))
            z = z - correction
            if not np.abs(correction).max() > tol:
                break
    return z, steps


def _aberth_block(h: np.ndarray, b: np.ndarray, norm: float, slack: float):
    """Aberth-Ehrlich on one unreduced Hessenberg block h of b's reduction.

    Runs in two phases from points on a perturbed circle round
    c = tr(h) / m with radius ||h - c I||_F / sqrt(m), which by Schur's
    inequality bounds the root mean square of |lambda - c| over the
    eigenvalues.  Phase 1, :func:`_start_points`, runs Aberth on h's
    characteristic polynomial; it is not certified and only moves the
    start points.  When it ends with a non-finite or repeated point,
    phase 2 starts from the circle instead.  Phase 2 is the certified
    iteration.  Each step runs :func:`_hyman` for the live roots and
    freezes a root once its Hyman bound is at most ``slack``; the others
    move by the Aberth correction.  The Hyman bound is about
    sigma_min(h - z I) / |u_1|, with u the left singular vector, so it can
    stay far above the target when u_1 is small, as under a tiny but
    unsplit subdiagonal.  A root whose bound did not fall in its last step,
    while it moved by at most eps^(1/4) ``norm``, has stalled (the roots of
    an m-fold defective eigenvalue jitter by about eps^(1/m) and settle no
    further), and is frozen once sigma_min(z I - b), from an SVD for that
    root alone, is at most 4 n eps ``norm``.  Returns the roots and the
    number of steps of both phases; raises after 500 steps of phase 2 with
    a root still live.
    """
    m = h.shape[0]
    centre = np.trace(h) / m
    shifted = h - centre * np.eye(m)
    radius = float(np.linalg.norm(shifted)) / math.sqrt(m)
    k = np.arange(m)
    circle = radius * np.exp(2j * np.pi * (k + 0.375) / m) * (1 + (k + 1) / (1000 * m))
    z, start_steps = _start_points(_charpoly(shifted), circle, _START_STEP * radius)
    z += centre
    if not (np.isfinite(z).all() and np.count_nonzero(z[:, None] == z) == m):
        z = centre + circle
    # log2 of the bound (sum_j |h_ij| + 1) / |h_{i,i-1}|; with the factor
    # (1 + |z|) it bounds the growth of x and x' over row i in _hyman
    rows = np.log2(np.abs(np.triu(h)).sum(axis=1)[1:] + 1.0) - np.log2(np.abs(np.diag(h, -1)))
    rows = rows.tolist()
    target = _ABERTH_TARGET * b.shape[0] * norm
    still = _STALL_STEP * norm
    live = k
    step = np.full(m, np.inf)  # the last correction of each live root
    last = np.full(m, np.inf)  # the last Hyman bound of each live root
    for iterations in range(_MAX_ABERTH_ITERATIONS + 1):
        zlive = z[live]
        grow = math.log2(1.0 + float(np.abs(zlive).max()))
        alpha, dalpha, size = _hyman(h, zlive, [g + grow for g in rows])
        bound = np.abs(alpha) / size
        # false for a NaN bound, which so never counts as converged
        done = bound <= slack
        stalled = np.flatnonzero(~done & (bound >= last) & (step <= still))
        if stalled.size:
            done[stalled] = _sigma_min(b, zlive[stalled]) <= target
        if done.any():
            keep = ~done
            live, zlive, alpha, dalpha, bound = (
                live[keep], zlive[keep], alpha[keep], dalpha[keep], bound[keep]
            )
            if live.size == 0:
                return z, start_steps + iterations
        if iterations == _MAX_ABERTH_ITERATIONS:
            raise RuntimeError(
                f"Aberth iteration did not converge in {_MAX_ABERTH_ITERATIONS} steps "
                f"({live.size} of {m} roots of a Hessenberg block still live)"
            )
        gaps = zlive[:, None] - z
        gaps[np.arange(live.size), live] = np.inf
        correction = 1.0 / (dalpha / alpha - (1.0 / gaps).sum(axis=1))
        z[live] = zlive - correction
        step = np.abs(correction)
        last = bound


def complex_eigenvalues(matrix) -> Spectrum:
    """All eigenvalues of a complex matrix by Hessenberg-Aberth.

    Works on B = A / 2^k, with 2^k the power of two just above max |a_ij|;
    raises ValueError when an eigenvalue is past the float range.
    B is reduced once to upper Hessenberg form H = Q^H B Q by Householder
    reflections (:func:`_hessenberg`, not an eigensolver), and H is split
    wherever a subdiagonal entry is at most eps ||B||_F.  A 1 x 1 block is
    its own eigenvalue; on each larger block Aberth-Ehrlich iteration runs
    in two phases (:func:`_aberth_block`).  The first, on the block's
    characteristic polynomial, costs a fixed number of array operations a
    step and only supplies start points (as polynomial root-finders run
    Aberth: Bini & Fiorentino, Numer. Algorithms 23, 2000).  The second
    runs with Newton ratios from Hyman's method, in O(m^2) per root and
    step (Bini, Gemignani & Tisseur, SIAM J. Matrix Anal. Appl. 27, 2005,
    do the same for tridiagonal matrices), and certifies.  An eigenvalue
    with several eigenvectors, such as the -1 of K_n's adjacency, forces
    splits, so no block holds a cluster that Aberth would approach only
    linearly.  A root is frozen once its Hyman bound, plus ||B - Q H Q^H||_F
    and the norm of the dropped subdiagonals, is at most 4 n eps ||B||_F:
    an eigenvalue of a perturbed diagonal block is one of the perturbed
    block-triangular matrix, so that sum is a backward error for B.

    ``max_residual`` is the largest ``sigma_min(z I - B) / ||B||_F`` over
    the final roots z, from one batched SVD; raises if that is above
    4 n eps, or if a block has a root still live after 500 steps.  Each
    value is an exact eigenvalue of some A + E with ||E||_F <=
    max_residual * ||A||_F.  An m-fold defective eigenvalue is still only
    located to about eps ** (1/m).  ``iterations`` is the largest number
    of Aberth steps of both phases over the blocks, 0 when every block is
    1 x 1.
    """
    a = np.asarray(matrix, dtype=complex)
    n = _square(a, _MAX_COMPLEX_DIM)
    _check_finite(a)
    with np.errstate(over="ignore"):
        big = float(np.max(np.abs(a), initial=0.0))
    if big == 0.0:
        return Spectrum(values=(0j,) * n, max_residual=0.0)
    # 2^e is just above max |a_ij|, which may itself overflow, and may pass
    # the float range, so B = A / 2^e is taken in two exact steps; ||B||_F
    # can neither overflow nor underflow
    exponent = math.frexp(big)[1] if big < math.inf else 1025
    scale = (math.ldexp(1.0, exponent // 2), math.ldexp(1.0, exponent - exponent // 2))
    b = a / scale[0] / scale[1]
    norm = float(np.linalg.norm(b))
    target = _ABERTH_TARGET * n * norm
    h, q = _hessenberg(b)
    sub = np.abs(np.diag(h, -1))
    cut = np.flatnonzero(sub <= np.finfo(float).eps * norm)
    slack = target - float(np.linalg.norm(b - q @ h @ q.conj().T)) - float(np.linalg.norm(sub[cut]))
    z = np.diag(h).copy()
    iterations = 0
    for lo, hi in zip(np.concatenate(([0], cut + 1)), np.concatenate((cut + 1, [n]))):
        if hi - lo > 1:
            z[lo:hi], steps = _aberth_block(h[lo:hi, lo:hi], b, norm, slack)
            iterations = max(iterations, steps)
    # the same test as a stalled root's, so a root frozen by it passes here
    sigma = float(_sigma_min(b, z).max())
    if not sigma <= target:
        raise RuntimeError(
            f"Aberth roots not certified (backward error {sigma / norm:.3e}, "
            f"target {_ABERTH_TARGET * n:.3e})"
        )
    # a part of 2^e z at or past 2^1024 overflows
    if math.frexp(max(np.abs(z.real).max(), np.abs(z.imag).max()))[1] + exponent > 1024:
        raise ValueError("an eigenvalue is past the float range")
    values = sorted((complex(v) for v in z * scale[0] * scale[1]), key=lambda v: (-v.real, -v.imag))
    return Spectrum(values=tuple(values), max_residual=sigma / norm, iterations=iterations)
