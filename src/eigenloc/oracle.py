"""Reference eigensolvers used to verify bounds and regions.

Two independent routes are provided: round-robin (Brent-Luk) parallel
Jacobi rotations for real symmetric matrices, applied as whole-array
updates, and characteristic-polynomial root finding (Faddeev-LeVerrier
coefficients + Aberth-Ehrlich simultaneous iteration in multiprecision) for
general complex matrices.  Neither calls a LAPACK eigensolver.  Every
spectrum carries a residual certificate so callers can see how accurate the
values are, and the solver's iteration count.

Dimensions stay small in all verification workloads, so the polynomial
route deliberately trades speed for a certificate instead of relying on a
Hessenberg/QR pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .graphs import Graph, GraphMatrixKind, build_matrix, classify

__all__ = [
    "Spectrum",
    "symmetric_eigenvalues",
    "normalized_spectrum",
    "graph_spectrum",
    "charpoly",
    "complex_eigenvalues",
    "spectrum_to_json",
]

_MAX_SYMMETRIC_DIM = 2048
_MAX_CHARPOLY_DIM = 64
_MAX_JACOBI_SWEEPS = 50
_MAX_ABERTH_ITERATIONS = 500


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicity plus an accuracy certificate.

    Real spectra are sorted descending; complex spectra by real part
    descending, then imaginary part descending.  ``max_residual`` is the
    solver's convergence measure: relative off-diagonal Frobenius mass for
    the Jacobi route, relative max |p(root)| for the polynomial route.
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
    if n > _MAX_SYMMETRIC_DIM:
        raise ValueError(f"dimension {n} exceeds the {_MAX_SYMMETRIC_DIM} cap")
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
# characteristic-polynomial route (general complex)


def charpoly(matrix) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest degree first.

    Uses the Faddeev-LeVerrier trace recursion with extended-precision
    accumulation (long-double complex) to keep coefficients of small
    integer matrices essentially exact.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > _MAX_CHARPOLY_DIM:
        raise ValueError(f"dimension {n} exceeds the {_MAX_CHARPOLY_DIM} cap")
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
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


def _horner(coeffs: list, z):
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def complex_eigenvalues(matrix, tol: float | None = None) -> Spectrum:
    """All eigenvalues of a complex matrix as characteristic-polynomial roots.

    Aberth-Ehrlich simultaneous iteration from perturbed-circle starting
    points, run in multiprecision so that clustered (multiple) roots still
    converge to the requested residual.  Stops when
    ``max_i |p(z_i)| <= tol * max(1, max_k |c_k|)``; raises after 500
    iterations without convergence.

    The default ``tol`` is ``min(1e-12, 10**(-10 * (n - 1)))``: an m-fold
    root is only located to about ``residual ** (1/m)``, so the residual
    target must shrink with the dimension for repeated eigenvalues to come
    out well below 1e-8.
    """
    coeffs = charpoly(matrix)
    n = len(coeffs) - 1
    if n == 0:
        return Spectrum(values=(), max_residual=0.0)
    if tol is None:
        tol = min(1e-12, 10.0 ** (-10 * (n - 1)))
    pnorm = max(1.0, float(np.max(np.abs(coeffs))))

    # working precision sized for the worst case of an n-fold root
    dps = max(40, 25 + 8 * n, int(math.ceil(-math.log10(tol))) + 25)
    with mp.workdps(dps):
        c = [mp.mpc(z) for z in coeffs]
        dc = [c[k] * (n - k) for k in range(n)]
        radius = 2.0 * max(abs(coeffs[k]) ** (1.0 / k) for k in range(1, n + 1))
        radius = mp.mpf(max(radius, 0.5))
        roots = [
            radius * mp.expjpi(2 * (k + mp.mpf("0.375")) / n) * (1 + mp.mpf(k + 1) / (1000 * n))
            for k in range(n)
        ]
        target = mp.mpf(tol) * pnorm
        residual = mp.inf
        for iterations in range(_MAX_ABERTH_ITERATIONS):
            pk = [_horner(c, z) for z in roots]
            residual = max(abs(v) for v in pk)
            if residual <= target:
                break
            for i in range(n):
                zi = roots[i]
                dpi = _horner(dc, zi)
                if dpi == 0:
                    roots[i] = zi + mp.mpf("1e-3") * radius
                    continue
                w = pk[i] / dpi
                s = mp.mpc(0)
                for j in range(n):
                    if j != i:
                        diff = zi - roots[j]
                        if diff == 0:
                            diff = mp.mpf("1e-20") * radius
                        s += 1 / diff
                denom = 1 - w * s
                if denom == 0:
                    roots[i] = zi - w
                else:
                    roots[i] = zi - w / denom
        else:
            raise RuntimeError(
                f"Aberth iteration did not converge in {_MAX_ABERTH_ITERATIONS} steps "
                f"(residual {float(residual):.3e}, target {float(target):.3e})"
            )
        values = sorted(
            (complex(z) for z in roots), key=lambda z: (-z.real, -z.imag)
        )
    return Spectrum(
        values=tuple(values), max_residual=float(residual) / pnorm, iterations=iterations
    )
