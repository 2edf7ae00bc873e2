"""Independent reference computations that tests compare the library against.

Each is a second, plainer route to a quantity the library computes another
way: the generic two-trace engine against the deflated closed forms of
Thm3.1, Thm4.1 and Thm5.2; a long-double characteristic polynomial for the
deflation identity; common neighbours by bitmask intersection against
the off-diagonal entries of ``Graph.common_neighbor_table`` (A·A); the
connectivity index summed edge by edge against
``Graph.randic_index``; every deflation's disks, one entry at a
time, against ``regions.MatrixFacts.deflation_table``; and each constant
row sum from the whole table of row-sum pairs against the row sums'
extremes that a real stack's gamma reads.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from eigenloc.bounds import LAMBDA_1, LAMBDA_N, BoundInterval


@dataclass(frozen=True)
class TraceStats:
    """Mean and spread of a real spectrum recovered from two traces."""

    m: float
    s: float
    n_eff: int


def trace_bounds(
    trace: float, trace_sq: float, n: int
) -> tuple[TraceStats, BoundInterval, BoundInterval]:
    """Extreme-eigenvalue intervals from trace and trace of the square.

    For an n-dimensional matrix with real eigenvalues, with mean
    ``m = trace/n`` and spread ``s**2 = trace_sq/n - m**2``:

        lambda_n in [m - s*sqrt(n-1), m - s/sqrt(n-1)]
        lambda_1 in [m + s/sqrt(n-1), m + s*sqrt(n-1)]

    Returns the stats plus the lambda_1 and lambda_n intervals.  A variance
    below 0 by at most 1e-12, float noise in the two traces, counts as 0.
    """
    if n < 2:
        raise ValueError(f"trace bounds need dimension >= 2, got {n}")
    m = trace / n
    variance = trace_sq / n - m * m
    if variance < 0.0:
        if variance < -1e-12:
            raise ValueError(f"inconsistent traces: negative variance {variance}")
        variance = 0.0
    s = math.sqrt(variance)
    root = math.sqrt(n - 1.0)
    stats = TraceStats(m=m, s=s, n_eff=n)
    top = BoundInterval(LAMBDA_1, m + s / root, m + s * root, "Thm1.4")
    bottom = BoundInterval(LAMBDA_N, m - s * root, m - s / root, "Thm1.4")
    return stats, top, bottom


def charpoly(matrix) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest degree first.

    The Faddeev-LeVerrier trace recursion, accumulated in long-double complex
    so that the coefficients of small integer matrices are essentially exact.
    """
    work = np.asarray(matrix, dtype=np.clongdouble)
    n = work.shape[0]
    eye = np.eye(n, dtype=np.clongdouble)
    coeffs = [np.clongdouble(1.0)]
    nk = np.zeros_like(work)
    for k in range(1, n + 1):
        nk = work @ (nk + coeffs[-1] * eye)
        coeffs.append(-np.trace(nk) / k)
    return np.array([complex(c) for c in coeffs], dtype=complex)


def common_neighbors(g, i: int, j: int) -> int:
    """|N(i) & N(j)| by intersecting the two neighbourhood bitmasks."""
    return (g.neighbors_mask(i) & g.neighbors_mask(j)).bit_count()


def randic_index(g) -> Fraction:
    """R_{-1}: the sum of 1/(d_u d_v) over the edges, one exact term per edge,
    with degrees counted from the neighbourhood bitmasks."""
    degree = {v: g.neighbors_mask(v).bit_count() for v in range(1, g.n + 1)}
    return sum((Fraction(1, degree[u] * degree[v]) for u, v in g.edges), Fraction(0))


def deflation_table(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Every deflation's disk centres ``a_kk - a_ik`` and radii ``sum over l
    not in {i, k} of |a_kl - a_il|``, row i over k != i, one entry at a time:
    each radius is Python's ``sum`` of ``abs(complex)`` over l in order."""
    a = np.asarray(matrix, dtype=complex)
    n = len(a)
    centers = [[a[k, k] - a[i, k] for k in range(n) if k != i] for i in range(n)]
    radii = [[sum(abs(complex(a[k, l] - a[i, l])) for l in range(n) if l not in (i, k))
              for k in range(n) if k != i] for i in range(n)]
    return (np.array(centers, dtype=complex).reshape(n, n - 1),
            np.array(radii, dtype=float).reshape(n, n - 1))


def row_sum_gammas(stack) -> list:
    """Each matrix's constant row sum (None where there is none) of the
    (k, n, n) ``stack``, from the (k, n, n) table of the differences of
    every pair of its complex row sums: the mean where their largest modulus
    is at most 1e-9 times the least of the largest absolute row sum
    (sum over j of |a_ij|) and 1 + the largest |row sum|.  A non-finite sum
    makes the table's maximum NaN (its diagonal holds inf - inf), so that
    the mean, itself not finite, is taken."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.asarray(stack).astype(complex).sum(axis=-1)
        norm = np.abs(np.asarray(stack)).sum(axis=-1).max(axis=-1)
        tol = 1e-9 * np.minimum(norm, 1.0 + np.abs(sums).max(axis=-1))
        deviation = np.abs(sums[:, :, None] - sums[:, None, :]).max(axis=(-2, -1))
        mean = sums.mean(axis=-1).tolist()
    return [None if d > t else mean[k] for k, (d, t) in enumerate(zip(deviation.tolist(), tol.tolist()))]
