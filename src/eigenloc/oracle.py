"""Reference eigensolvers used to verify bounds and regions.

Two independent routes are provided: round-robin (Brent-Luk) parallel
Jacobi rotations for real symmetric matrices, applied as whole-array
updates, and, for general complex matrices, Aberth-Ehrlich simultaneous
iteration on the blocks of a Householder Hessenberg form, with Newton
ratios p'(z) / p(z) from Hyman's back-substitution.  Neither calls a
LAPACK eigensolver.  Every spectrum carries a certificate, a relative
Frobenius backward error, so callers can see how accurate the values are,
and the solver's iteration count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .graphs import MAX_VERTICES, Graph, GraphMatrixKind, build_matrix

__all__ = [
    "Spectrum",
    "symmetric_eigenvalues",
    "normalized_spectrum",
    "graph_spectrum",
    "charpoly",
    "complex_eigenvalues",
    "spectrum_to_json",
]

_MAX_COMPLEX_DIM = 64
_MAX_JACOBI_SWEEPS = 50
_MAX_ABERTH_ITERATIONS = 500
# an Aberth root is frozen once its backward error is at most this times n
_ABERTH_TARGET = 4.0 * np.finfo(float).eps
# an Aberth root moving by at most this times ||B||_F may have stalled
_STALL_STEP = np.finfo(float).eps ** 0.25


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicity plus an accuracy certificate.

    Real spectra are sorted descending; complex spectra by real part
    descending, then imaginary part descending.  ``max_residual`` is a
    normwise backward error relative to ``||A||_F`` on both routes: the
    final off-diagonal Frobenius mass for Jacobi (dropping it from the
    rotated matrix perturbs A by that much), and the largest
    ``sigma_min(z I - A) / ||A||_F`` over the roots z for Aberth.
    ``iterations`` counts Jacobi sweeps or Aberth iterations.
    """

    values: tuple
    max_residual: float
    iterations: int = 0

    def __len__(self) -> int:
        return len(self.values)


def spectrum_to_json(spec: Spectrum) -> str:
    vals = [[float(np.real(v)), float(np.imag(v))] for v in spec.values]
    return json.dumps({"values": vals, "residual": spec.max_residual})


# ---------------------------------------------------------------------------
# Jacobi route (real symmetric)


def _off_mass(a: np.ndarray) -> float:
    # summed over off-diagonal entries only; subtracting the diagonal mass
    # from the total would cancel catastrophically near convergence
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def _round_robin_move(m: int) -> np.ndarray:
    """Slot permutation from one round of a round-robin Jacobi sweep to the next.

    Slots (2k, 2k+1) hold the k-th pair of a round.  Slot 0 stays put; the
    other m - 1 slots form a ring (even slots upward, then odd slots
    downward) that turns by one place per round.  This is the circle
    method: over the m - 1 rounds of a sweep every two indices are paired
    exactly once, and the last round brings every index back to its
    starting slot.  Slot i of the next round takes the entry now in slot
    ``move[i]``.
    """
    ring = np.concatenate((np.arange(2, m, 2), np.arange(m - 1, 0, -2)))
    move = np.zeros(m, dtype=np.intp)
    move[np.roll(ring, -1)] = ring
    return move


def _rotation_tangents(
    d: np.ndarray, apq: np.ndarray, skip_below: float
) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi rotations for pivots with diagonals d = (app, aqq) and apq.

    Returns tan of each rotation angle and the value each pivot holds after
    it.  A pivot too small to move either diagonal entry is flushed: tangent
    0, pivot zeroed.  A pivot below ``skip_below`` is skipped: tangent 0,
    pivot kept.  Otherwise t is the smaller root of t^2 + 2 theta t - 1 = 0
    with theta = (aqq - app) / (2 apq) and the pivot becomes 0.  ``hypot``
    keeps theta^2 from overflowing, and for |theta| > 1e150 it returns
    |theta| exactly, so t is then exactly 1 / (2 theta).
    """
    size = np.abs(apq)
    absd = np.abs(d)
    stays = absd + 100.0 * size == absd
    flush = stays[0] & stays[1]
    idle = flush | (size < skip_below)
    theta = (d[1] - d[0]) / (2.0 * np.where(idle, 1.0, apq))
    t = 1.0 / (theta + np.copysign(np.hypot(theta, 1.0), theta))
    return np.where(idle, 0.0, t), np.where(idle & ~flush, apq, 0.0)


def symmetric_eigenvalues(matrix, tol: float = 1e-12) -> Spectrum:
    """All eigenvalues of a real symmetric matrix by round-robin Jacobi.

    Each sweep is m - 1 rounds of the Brent-Luk parallel ordering (m is n,
    or n + 1 with a zero row and column padded onto an odd n).  A round
    applies m / 2 disjoint plane rotations at once as whole-array updates
    on a working matrix kept in pair order, then permutes it to the next
    round's pairs with :func:`_round_robin_move`.  Sweeps run until the
    off-diagonal Frobenius mass drops below ``tol * ||A||_F``, a target
    relative to the matrix at every scale; raises if 50 sweeps do not get
    there.  The certificate is the final off-diagonal mass over ``||A||_F``
    (0 for the zero matrix) and ``iterations`` the number of sweeps.

    Pivots below that target divided by m are skipped and kept: once every
    off-diagonal entry is that small the stopping rule holds, and rotating
    rounding noise between equal diagonal entries turns by 45 degrees and
    only stirs the rest of those rows, which can stall the parallel
    ordering (the normalized adjacency of K_32 minus an edge did).
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > MAX_VERTICES:
        raise ValueError(f"dimension {n} exceeds the {MAX_VERTICES} cap")
    if n == 0:
        return Spectrum(values=(), max_residual=0.0)
    # both checks are relative to max |a_ij|, so they hold at every scale
    if np.iscomplexobj(a):
        # negated so that a NaN imaginary part is rejected too
        if not np.max(np.abs(a.imag)) <= 1e-12 * np.max(np.abs(a)):
            raise ValueError("matrix has a non-negligible imaginary part")
        a = a.real
    a = np.array(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    if np.max(np.abs(a - a.T)) > 1e-12 * np.max(np.abs(a)):
        raise ValueError("matrix is not symmetric")

    m = n + n % 2
    h = m // 2
    a = np.pad((a + a.T) / 2.0, (0, m - n))
    work = np.empty_like(a)
    flat = a.reshape(-1)
    move = _round_robin_move(m)
    # flat positions of each pair's (p, p) and (q, q), (p, q), and (q, p) entries
    pp = np.arange(0, m, 2) * (m + 1)
    diag = np.stack((pp, pp + m + 1))
    pq = pp + 1
    qp = pp + m

    scale = float(np.linalg.norm(a))
    threshold = tol * scale
    skip_below = threshold / m
    off = _off_mass(a)
    sweeps = 0
    while off > threshold:
        if sweeps >= _MAX_JACOBI_SWEEPS:
            raise RuntimeError(
                f"Jacobi iteration did not reach tolerance in {_MAX_JACOBI_SWEEPS} sweeps "
                f"(off-diagonal mass {off:.3e}, target {threshold:.3e})"
            )
        for _ in range(m - 1):
            d = flat[diag]
            apq = flat[pq]
            t, left = _rotation_tangents(d, apq, skip_below)
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            rot = np.array([[c, -s], [s, c]]).transpose(2, 0, 1)
            # rows, then columns through the transpose: a ends up holding the
            # transpose of the rotated matrix, which is symmetric
            np.matmul(rot, a.reshape(h, 2, m), out=work.reshape(h, 2, m))
            np.matmul(rot, work.T.reshape(h, 2, m), out=a.reshape(h, 2, m))
            # Rutishauser's update keeps the diagonal accurate
            tapq = t * apq
            flat[diag] = (d[0] - tapq, d[1] + tapq)
            flat[pq] = left
            flat[qp] = left
            # "wrap" lets take write straight into out; every index is in range
            np.take(a, move, axis=0, out=work, mode="wrap")
            np.take(work, move, axis=1, out=a, mode="wrap")
        sweeps += 1
        off = _off_mass(a)
    # a full sweep returns every index to its slot, so the pad is the last
    values = tuple(sorted((float(x) for x in np.diag(a)[:n]), reverse=True))
    return Spectrum(values=values, max_residual=off / scale if scale else 0.0, iterations=sweeps)


def normalized_spectrum(g: Graph, tol: float = 1e-9) -> Spectrum:
    """Spectrum of the normalized adjacency matrix D^{-1}A of ``g``.

    Computed on the symmetric similar matrix with entries
    a_ij / sqrt(d_i d_j), so the Jacobi route applies and the result is
    exactly real.  Without an isolated vertex every component has top
    value 1, so the top value must be 1; this is asserted within ``tol``
    (RuntimeError otherwise).
    """
    if min(g.degree_sequence) == 0:
        raise ValueError("normalized adjacency undefined with an isolated vertex")
    d = np.array(g.degree_sequence, dtype=float)
    sym = build_matrix(g, GraphMatrixKind.ADJACENCY) / np.sqrt(np.outer(d, d))
    spec = symmetric_eigenvalues(sym, tol=min(1e-12, tol))
    if abs(spec.values[0] - 1.0) > tol:
        raise RuntimeError(
            f"top normalized eigenvalue {spec.values[0]!r} is not 1 within {tol}"
        )
    return spec


def graph_spectrum(g: Graph, kind: GraphMatrixKind) -> Spectrum:
    """Spectrum of the ``kind`` matrix of ``g`` by the Jacobi route.

    The normalized adjacency goes through :func:`normalized_spectrum`, whose
    symmetric similar matrix keeps the values exactly real.
    """
    if kind == GraphMatrixKind.NORMALIZED_ADJACENCY:
        return normalized_spectrum(g)
    return symmetric_eigenvalues(build_matrix(g, kind))


# ---------------------------------------------------------------------------
# general complex matrices


def _complex_square(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > _MAX_COMPLEX_DIM:
        raise ValueError(f"dimension {n} exceeds the {_MAX_COMPLEX_DIM} cap")
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    return a


def charpoly(matrix) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest degree first.

    Uses the Faddeev-LeVerrier trace recursion with extended-precision
    accumulation (long-double complex) to keep coefficients of small
    integer matrices essentially exact.
    """
    a = _complex_square(matrix)
    n = a.shape[0]
    if n == 0:
        return np.array([1.0 + 0.0j])
    work = a.astype(np.clongdouble)
    eye = np.eye(n, dtype=np.clongdouble)
    coeffs = [np.clongdouble(1.0)]
    nk = work.copy()
    ck = -np.trace(nk)
    coeffs.append(ck)
    for k in range(2, n + 1):
        nk = work @ (nk + ck * eye)
        ck = -np.trace(nk) / k
        coeffs.append(ck)
    return np.array([complex(c) for c in coeffs], dtype=complex)


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


def _aberth_block(h: np.ndarray, b: np.ndarray, norm: float, slack: float):
    """Aberth-Ehrlich on one unreduced Hessenberg block h of b's reduction.

    Starts from points on a perturbed circle round c = tr(h) / m with
    radius ||h - c I||_F / sqrt(m), which by Schur's inequality bounds the
    root mean square of |lambda - c| over the eigenvalues.  Each step
    runs :func:`_hyman` for the live roots and freezes a root once its
    Hyman bound is at most ``slack``; the others move by the Aberth
    correction.  The Hyman bound is about sigma_min(h - z I) / |u_1|, with
    u the left singular vector, so it can stay far above the target when
    u_1 is small, as under a tiny but unsplit subdiagonal.  A root whose
    bound did not fall in its last step, while it moved by at most
    eps^(1/4) ``norm``, has stalled (the roots of an m-fold defective
    eigenvalue jitter by about eps^(1/m) and settle no further), and is
    frozen once sigma_min(z I - b), from an SVD for that root alone, is at
    most 4 n eps ``norm``.  Returns the roots and the number of steps;
    raises after 500 steps with a root still live.
    """
    m = h.shape[0]
    centre = np.trace(h) / m
    radius = float(np.linalg.norm(h - centre * np.eye(m))) / math.sqrt(m)
    k = np.arange(m)
    z = centre + radius * np.exp(2j * np.pi * (k + 0.375) / m) * (1 + (k + 1) / (1000 * m))
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
                return z, iterations
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
    with Newton ratios from Hyman's method, in O(m^2) per root and step
    (:func:`_aberth_block`; Bini, Gemignani & Tisseur, SIAM J. Matrix Anal.
    Appl. 27, 2005, do the same for tridiagonal matrices).  An eigenvalue
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
    of Aberth steps over the blocks, 0 when every block is 1 x 1.
    """
    a = _complex_square(matrix)
    n = a.shape[0]
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
