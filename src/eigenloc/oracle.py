"""Reference eigensolvers used to verify bounds and regions.

Two independent routes are provided: round-robin (Brent-Luk) parallel
Jacobi rotations for real symmetric matrices, applied as whole-array
updates, and Aberth-Ehrlich simultaneous iteration on the matrix itself
for general complex matrices, with Newton corrections from Jacobi's
formula p'(z) / p(z) = tr((z I - A)^{-1}).  Neither calls a LAPACK
eigensolver.  Every spectrum carries a certificate, a relative Frobenius
backward error, so callers can see how accurate the values are, and the
solver's iteration count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .graphs import MAX_VERTICES, Graph, GraphMatrixKind, build_matrix, classify

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
    if np.iscomplexobj(a):
        # negated so that a NaN imaginary part is rejected too
        if not np.max(np.abs(a.imag)) <= 1e-12:
            raise ValueError("matrix has a non-negligible imaginary part")
        a = a.real
    a = np.array(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
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
    exactly real.  For a connected graph the top value must be 1; this is
    asserted within ``tol``.
    """
    ds = [g.degree(i) for i in range(1, g.n + 1)]
    if min(ds) == 0:
        raise ValueError("normalized adjacency undefined with an isolated vertex")
    n = g.n
    sym = np.zeros((n, n), dtype=float)
    for u, v in g.edges:
        w = 1.0 / math.sqrt(ds[u - 1] * ds[v - 1])
        sym[u - 1, v - 1] = w
        sym[v - 1, u - 1] = w
    spec = symmetric_eigenvalues(sym, tol=min(1e-12, tol))
    if classify(g).connected and abs(spec.values[0] - 1.0) > tol:
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


def complex_eigenvalues(matrix) -> Spectrum:
    """All eigenvalues of a complex matrix by Aberth-Ehrlich on the matrix.

    The iteration runs on B = A / 2^k, with 2^k the power of two just
    above max |a_ij|, from n points on a perturbed circle round tr(B) / n.
    Each step forms z_i I - B for the live roots, freezes every root whose
    backward error ``beta_i = sigma_min(z_i I - B) / ||B||_F`` is at most
    4 n eps, and moves the others by the Aberth correction with the Newton
    ratio p'(z) / p(z) = tr((z I - B)^{-1}) (Jacobi's formula).  Freezing
    comes first because a root that lands on an eigenvalue makes z I - B
    singular.  The iteration stops on beta alone, never on step size, and
    raises after 500 steps with a root still live.  A cluster of m equal
    eigenvalues converges linearly, by about (m - 1) / (m + 1) per step.

    ``max_residual`` is the largest beta_i: each value is an exact
    eigenvalue of some A + E with ||E||_F <= max_residual * ||A||_F.  An
    m-fold defective eigenvalue is still only located to about
    eps ** (1/m).
    """
    a = _complex_square(matrix)
    n = a.shape[0]
    big = float(np.max(np.abs(a), initial=0.0))
    if big == 0.0:
        return Spectrum(values=(0j,) * n, max_residual=0.0)
    # exact division, and ||B||_F can neither overflow nor underflow
    scale = math.ldexp(1.0, math.frexp(big)[1])
    a = a / scale
    norm = float(np.linalg.norm(a))
    eye = np.eye(n)
    centre = np.trace(a) / n
    radius = float(np.linalg.norm(a - centre * eye))
    k = np.arange(n)
    z = centre + radius * np.exp(2j * np.pi * (k + 0.375) / n) * (1 + (k + 1) / (1000 * n))
    target = _ABERTH_TARGET * n
    beta = np.zeros(n)
    live = k
    for iterations in range(_MAX_ABERTH_ITERATIONS + 1):
        shifted = z[live, None, None] * eye - a
        beta[live] = np.linalg.svd(shifted, compute_uv=False)[:, -1] / norm
        # negated so that a NaN backward error never counts as converged
        moving = ~(beta[live] <= target)
        live, shifted = live[moving], shifted[moving]
        if live.size == 0:
            break
        if iterations == _MAX_ABERTH_ITERATIONS:
            raise RuntimeError(
                f"Aberth iteration did not converge in {_MAX_ABERTH_ITERATIONS} steps "
                f"(backward error {beta.max():.3e}, target {target:.3e})"
            )
        newton = np.trace(np.linalg.inv(shifted), axis1=1, axis2=2)
        gaps = z[live, None] - z
        gaps[np.arange(live.size), live] = np.inf
        z[live] -= 1.0 / (newton - (1.0 / gaps).sum(axis=1))
    values = sorted((complex(v) for v in z * scale), key=lambda v: (-v.real, -v.imag))
    return Spectrum(values=tuple(values), max_residual=float(beta.max()), iterations=iterations)
