"""Reference eigensolvers used to verify bounds and regions.

Two independent routes are provided: cyclic Jacobi rotations for real
symmetric matrices, and characteristic-polynomial root finding
(Faddeev-LeVerrier coefficients + Aberth-Ehrlich simultaneous iteration in
multiprecision) for general complex matrices.  Every spectrum carries a
residual certificate so callers can see how accurate the values are.

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
    """

    values: tuple
    max_residual: float

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


def symmetric_eigenvalues(matrix, tol: float = 1e-12) -> Spectrum:
    """All eigenvalues of a real symmetric matrix via cyclic Jacobi rotations.

    Sweeps plane rotations over all index pairs until the off-diagonal
    Frobenius mass drops below ``tol * max(1, ||A||_F)``; raises if 50
    sweeps do not get there.  The certificate is the final relative
    off-diagonal mass.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > _MAX_SYMMETRIC_DIM:
        raise ValueError(f"dimension {n} exceeds the {_MAX_SYMMETRIC_DIM} cap")
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
    a = (a + a.T) / 2.0

    scale = max(1.0, float(np.linalg.norm(a)))
    threshold = tol * scale
    off = _off_mass(a)
    sweeps = 0
    while off > threshold:
        if sweeps >= _MAX_JACOBI_SWEEPS:
            raise RuntimeError(
                f"Jacobi iteration did not reach tolerance in {_MAX_JACOBI_SWEEPS} sweeps "
                f"(off-diagonal mass {off:.3e}, target {threshold:.3e})"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # entries too small to move the diagonal are flushed to zero
                probe = 100.0 * abs(apq)
                if abs(a[p, p]) + probe == abs(a[p, p]) and abs(a[q, q]) + probe == abs(
                    a[q, q]
                ):
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                app, aqq = a[p, p], a[q, q]
                vp = a[p, :].copy()
                vq = a[q, :].copy()
                new_p = vp - s * (vq + tau * vp)
                new_q = vq + s * (vp - tau * vq)
                a[p, :] = new_p
                a[:, p] = new_p
                a[q, :] = new_q
                a[:, q] = new_q
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
        sweeps += 1
        off = _off_mass(a)
    values = tuple(sorted((float(x) for x in np.diag(a)), reverse=True))
    return Spectrum(values=values, max_residual=off / scale)


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
        for _ in range(_MAX_ABERTH_ITERATIONS):
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
    return Spectrum(values=tuple(values), max_residual=float(residual) / pnorm)
