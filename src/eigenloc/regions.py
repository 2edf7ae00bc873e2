"""Eigenvalue inclusion regions for complex matrices.

Implements the classical disk and Cassini-oval regions together with two
sharper variants available when the matrix has a constant row sum: the row
sum forces one eigenvalue, and a similarity transform deflates the matrix
to dimension n-1, one deflation per row index.  Applying the classical
regions to every deflated matrix and intersecting gives regions that are
often properly contained in the classical ones.

Regions are kept symbolic: a small composition tree of disks, ovals and
finite point sets under union/intersection.  Membership, signed slack and
the intersection with the real axis are all computed from the parameters,
never from a rasterisation.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass
from itertools import combinations
from typing import Union

import numpy as np

__all__ = [
    "Disk",
    "CassiniOval",
    "PointSet",
    "RegionUnion",
    "RegionIntersection",
    "Region",
    "RealSection",
    "row_sums",
    "constant_row_sum",
    "deleted_row_sums",
    "deflate",
    "gersgorin_region",
    "brauer_region",
    "rowsum_gersgorin_region",
    "rowsum_brauer_region",
    "region_slack",
    "region_contains",
    "region_slack_grid",
    "real_section",
    "section_contains",
    "region_to_json",
    "region_from_json",
    "matrix_to_json",
    "matrix_from_json",
]

# ---------------------------------------------------------------------------
# region tree


@dataclass(frozen=True)
class Disk:
    """Closed disk { z : |z - center| <= radius }."""

    center: complex
    radius: float

    def __post_init__(self) -> None:
        if not 0 <= self.radius < math.inf:
            raise ValueError(f"disk radius must be finite and nonnegative, got {self.radius}")
        if not cmath.isfinite(self.center):
            raise ValueError(f"disk centre must be finite, got {self.center}")

    def slack(self, z: complex) -> float:
        return self.radius - abs(z - self.center)


@dataclass(frozen=True)
class CassiniOval:
    """Closed oval { z : |z - focus_a| * |z - focus_b| <= radius_product }."""

    focus_a: complex
    focus_b: complex
    radius_product: float

    def __post_init__(self) -> None:
        if not 0 <= self.radius_product < math.inf:
            raise ValueError(
                f"oval radius product must be finite and nonnegative, got {self.radius_product}"
            )
        if not (cmath.isfinite(self.focus_a) and cmath.isfinite(self.focus_b)):
            raise ValueError(f"oval foci must be finite, got {self.focus_a}, {self.focus_b}")

    def slack(self, z: complex) -> float:
        return self.radius_product - abs(z - self.focus_a) * abs(z - self.focus_b)


@dataclass(frozen=True)
class PointSet:
    """Finite set of complex points; membership means being within tolerance."""

    points: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not all(cmath.isfinite(p) for p in self.points):
            raise ValueError(f"points must be finite, got {self.points}")

    def slack(self, z: complex) -> float:
        if not self.points:
            return -math.inf
        return -min(abs(z - p) for p in self.points)


@dataclass(frozen=True)
class RegionUnion:
    children: tuple["Region", ...]

    def slack(self, z: complex) -> float:
        return max((c.slack(z) for c in self.children), default=-math.inf)


@dataclass(frozen=True)
class RegionIntersection:
    children: tuple["Region", ...]

    def slack(self, z: complex) -> float:
        return min((c.slack(z) for c in self.children), default=-math.inf)


Region = Union[Disk, CassiniOval, PointSet, RegionUnion, RegionIntersection]


def region_slack(region: Region, z: complex) -> float:
    """Signed margin of ``z``: >= 0 inside, < 0 outside, 0 on the boundary.

    Slack is measured against each leaf's defining inequality (distance for
    disks and point sets, distance product for ovals), combined as max over
    unions and min over intersections.
    """
    return region.slack(complex(z))


def region_contains(region: Region, z: complex, tol: float = 0.0) -> bool:
    """Membership with slack >= -tol; ``tol`` must be nonnegative."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return region.slack(complex(z)) >= -tol


def region_slack_grid(region: Region, zs: np.ndarray) -> np.ndarray:
    """Vectorised :func:`region_slack` over an array of complex points."""
    zs = np.asarray(zs, dtype=complex)
    if isinstance(region, Disk):
        return region.radius - np.abs(zs - region.center)
    if isinstance(region, CassiniOval):
        return region.radius_product - np.abs(zs - region.focus_a) * np.abs(
            zs - region.focus_b
        )
    if isinstance(region, PointSet):
        out = np.full(zs.shape, -np.inf)
        for p in region.points:
            out = np.maximum(out, -np.abs(zs - p))
        return out
    if isinstance(region, RegionUnion):
        out = np.full(zs.shape, -np.inf)
        for child in region.children:
            out = np.maximum(out, region_slack_grid(child, zs))
        return out
    if isinstance(region, RegionIntersection):
        out = np.full(zs.shape, np.inf)
        for child in region.children:
            out = np.minimum(out, region_slack_grid(child, zs))
        return out
    raise TypeError(f"not a region: {region!r}")


# ---------------------------------------------------------------------------
# complex-matrix plumbing


def _as_matrix(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix of dimension >= 1, got shape {a.shape}")
    return a


def row_sums(matrix) -> np.ndarray:
    """Complex sum of each row."""
    return _as_matrix(matrix).sum(axis=1)


def constant_row_sum(matrix, tol: float | None = None) -> complex | None:
    """The common row sum when all rows agree within tolerance, else None.

    The default tolerance is ``1e-9 * (1 + max |row sum|)``: graph matrices
    are exact while user matrices may carry float noise.  Agreement is
    measured as the maximum pairwise deviation between row sums.
    """
    sums = row_sums(matrix)
    if tol is None:
        tol = 1e-9 * (1.0 + float(np.max(np.abs(sums))))
    deviation = float(np.max(np.abs(sums[:, None] - sums[None, :])))
    if deviation > tol:
        return None
    return complex(sums.mean())


def _require_gamma(matrix, tol: float | None) -> tuple[np.ndarray, complex]:
    a = _as_matrix(matrix)
    gamma = constant_row_sum(a, tol)
    if gamma is None:
        raise ValueError("matrix does not have a constant row sum within tolerance")
    return a, gamma


def deleted_row_sums(matrix) -> np.ndarray:
    """r_i = sum over j != i of |a_ij|, for each row i."""
    a = _as_matrix(matrix)
    return np.abs(a).sum(axis=1) - np.abs(np.diag(a))


def deflate(matrix, k: int, tol: float | None = None) -> np.ndarray:
    """Deflated matrix of dimension n-1 for a constant-row-sum matrix.

    Entry (u, v) of the result is ``a_uv - a_kv`` for u, v ranging over the
    indices other than ``k`` (1-based).  The spectrum of the input equals
    the row sum plus the spectrum of the result, as multisets.
    """
    a, _ = _require_gamma(matrix, tol)
    n = a.shape[0]
    if n < 2:
        raise ValueError("cannot deflate a 1x1 matrix")
    if not (1 <= k <= n):
        raise ValueError(f"deflation index {k} out of range 1..{n}")
    keep = [u for u in range(n) if u != k - 1]
    return a[np.ix_(keep, keep)] - a[k - 1, keep][None, :]


# ---------------------------------------------------------------------------
# the four inclusion regions


def gersgorin_region(matrix) -> RegionUnion:
    """Union of the n disks centred at a_ii with radius r_i."""
    a = _as_matrix(matrix)
    r = deleted_row_sums(a)
    return RegionUnion(
        tuple(Disk(complex(a[i, i]), float(r[i])) for i in range(a.shape[0]))
    )


def brauer_region(matrix) -> RegionUnion:
    """Union of the n(n-1)/2 ovals with foci (a_ii, a_jj) and product r_i r_j."""
    a = _as_matrix(matrix)
    n = a.shape[0]
    if n < 2:
        raise ValueError("the oval region needs dimension >= 2")
    r = deleted_row_sums(a)
    return RegionUnion(
        tuple(
            CassiniOval(complex(a[i, i]), complex(a[j, j]), float(r[i] * r[j]))
            for i, j in combinations(range(n), 2)
        )
    )


def rowsum_gersgorin_region(
    matrix, tol: float | None = None, with_gamma: bool = True
) -> RegionIntersection:
    """Intersection over deflation rows i of the deflated disk unions.

    Component i is the union over k != i of the disk centred at
    ``a_kk - a_ik`` with radius ``sum over j not in {i, k} of |a_kj - a_ij|``
    (the entries of the i-deflated matrix), together with the forced
    eigenvalue gamma as a point leaf.  ``with_gamma=False`` drops the point
    leaves; the result then only encloses the deflated spectra, which is
    what the closed-form bound derivations consume.
    """
    a, gamma = _require_gamma(matrix, tol)
    n = a.shape[0]
    if n < 2:
        raise ValueError("the deflated disk region needs dimension >= 2")
    components = []
    for i in range(n):
        leaves: list[Region] = []
        for k in range(n):
            if k == i:
                continue
            radius = sum(
                abs(a[k, j] - a[i, j]) for j in range(n) if j != i and j != k
            )
            leaves.append(Disk(complex(a[k, k] - a[i, k]), float(radius)))
        if with_gamma:
            leaves.append(PointSet((gamma,)))
        components.append(RegionUnion(tuple(leaves)))
    return RegionIntersection(tuple(components))


def rowsum_brauer_region(
    matrix, tol: float | None = None, with_gamma: bool = True
) -> RegionIntersection:
    """Intersection over deflation rows i of the deflated oval unions.

    Component i is the union over unordered pairs {j, k} of the remaining
    indices of the oval with foci ``a_jj - a_ij`` and ``a_kk - a_ik`` and
    radius product ``r_j * r_k`` where ``r_j = sum over l not in {i, j} of
    |a_jl - a_il|``, plus the forced eigenvalue gamma as a point leaf.
    """
    a, gamma = _require_gamma(matrix, tol)
    n = a.shape[0]
    if n < 3:
        raise ValueError("the deflated oval region needs dimension >= 3")
    components = []
    for i in range(n):
        rest = [k for k in range(n) if k != i]
        r = {
            j: sum(abs(a[j, l] - a[i, l]) for l in range(n) if l != i and l != j)
            for j in rest
        }
        leaves: list[Region] = [
            CassiniOval(
                complex(a[j, j] - a[i, j]),
                complex(a[k, k] - a[i, k]),
                float(r[j] * r[k]),
            )
            for j, k in combinations(rest, 2)
        ]
        if with_gamma:
            leaves.append(PointSet((gamma,)))
        components.append(RegionUnion(tuple(leaves)))
    return RegionIntersection(tuple(components))


# ---------------------------------------------------------------------------
# real-axis sections


@dataclass(frozen=True)
class RealSection:
    """Intersection of a region with the real axis.

    ``intervals`` are closed, pairwise disjoint and sorted; zero-width
    intervals are allowed.  ``isolated_points`` are sorted and never
    interior to any interval.
    """

    intervals: tuple[tuple[float, float], ...]
    isolated_points: tuple[float, ...]

    def is_empty(self) -> bool:
        return not self.intervals and not self.isolated_points


_EMPTY_SECTION = RealSection((), ())


def section_contains(section: RealSection, x: float, tol: float = 0.0) -> bool:
    """Membership of a real point, with endpoints widened by ``tol``."""
    for lo, hi in section.intervals:
        if lo - tol <= x <= hi + tol:
            return True
    return any(abs(x - p) <= tol for p in section.isolated_points)


def _normalized_section(
    intervals: list[tuple[float, float]], points: list[float], tol: float
) -> RealSection:
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    kept: list[float] = []
    for p in sorted(points):
        if any(lo <= p <= hi for lo, hi in merged):
            continue
        if kept and abs(p - kept[-1]) <= tol:
            continue
        kept.append(p)
    return RealSection(tuple((lo, hi) for lo, hi in merged), tuple(kept))


def _section_union(a: RealSection, b: RealSection, tol: float) -> RealSection:
    return _normalized_section(
        list(a.intervals) + list(b.intervals),
        list(a.isolated_points) + list(b.isolated_points),
        tol,
    )


def _section_intersection(a: RealSection, b: RealSection, tol: float) -> RealSection:
    intervals = [
        (max(lo1, lo2), min(hi1, hi2))
        for lo1, hi1 in a.intervals
        for lo2, hi2 in b.intervals
        if max(lo1, lo2) <= min(hi1, hi2)
    ]
    points = [p for p in a.isolated_points if section_contains(b, p, tol)]
    points += [p for p in b.isolated_points if section_contains(a, p, tol)]
    return _normalized_section(intervals, points, tol)


def _disk_section(disk: Disk) -> RealSection:
    gap = disk.radius * disk.radius - disk.center.imag * disk.center.imag
    if gap < 0:
        return _EMPTY_SECTION
    half = math.sqrt(gap)
    x = disk.center.real
    return RealSection(((x - half, x + half),), ())


def _oval_section(oval: CassiniOval, tol: float) -> RealSection:
    a, b, p = oval.focus_a, oval.focus_b, oval.radius_product
    if p == 0.0:
        pts = [float(f.real) for f in (a, b) if oval.slack(f.real) >= -tol]
        return _normalized_section([], pts, tol)
    # q(y) = |y-u|^2 |y-v|^2 - p^2, a real quartic that is negative inside the
    # oval, with y = (x - s) / scale measured from the centre so that no
    # coefficient cancels against the foci's distance from the origin, and
    # in units of the oval's size so that none overflows; scale is a power
    # of two, so dividing by it is exact
    s = 0.5 * (a.real + b.real)
    scale = math.ldexp(1.0, math.frexp(max(abs(a - s), abs(b - s), math.sqrt(p)))[1])
    u, v, p = (a - s) / scale, (b - s) / scale, p / scale / scale
    q = np.polymul(
        [1.0, -2.0 * u.real, u.real * u.real + u.imag * u.imag],
        [1.0, -2.0 * v.real, v.real * v.real + v.imag * v.imag],
    )
    q[-1] -= p * p
    dq = np.polyder(q)
    d2q = np.polyder(dq)
    touch_tol = tol / scale / scale

    def spread(y: float) -> float:
        return abs(y - u) * abs(y - v)

    def exact_q(y: float) -> float:
        # q in factored form, exact where the expanded coefficients cancel
        m = spread(y)
        return m * m - p * p

    def polish(y: float) -> float:
        slope = np.polyval(dq, y)
        return float(y if slope == 0.0 else y - exact_q(y) / slope)

    # Every root of q must be among the ends; ends that are not roots only
    # split an interval or a gap, whose sign is read at its midpoint.  Two
    # roots closer than about sqrt(eps) come back from np.roots as a complex
    # pair or as a spread-out real pair round the extremum of q between
    # them: the extremum as an end fences off the spurious pair, and the
    # quadratic model of q there gives the true pair.
    roots = np.roots(q)
    ends = [polish(y) for y in roots[roots.imag == 0.0].real]
    touches = []
    critical = np.roots(dq)
    for y in critical[critical.imag == 0.0].real:
        y = float(y)
        g, curvature = exact_q(y), float(np.polyval(d2q, y))
        ends.append(y)
        if g * curvature < 0.0:
            half = math.sqrt(-2.0 * g / curvature)
            ends += [y - half, y + half]
        # a tangency is a double root of q but a simple root of q'
        if p - spread(y) >= -touch_tol:
            touches.append(s + scale * y)
    ends.sort()
    intervals = [
        (s + scale * left, s + scale * right)
        for left, right in zip(ends, ends[1:])
        if left < right and spread(0.5 * (left + right)) <= p
    ]
    return _normalized_section(intervals, touches, tol)


def real_section(region: Region, tol: float = 1e-9) -> RealSection:
    """The region's intersection with the real axis as intervals + points.

    Disks section analytically.  An oval's section is where the quartic
    ``q(x) = |x-a|^2 |x-b|^2 - p^2``, written about the oval's centre, is
    at most 0.  Its exactly-real roots (``np.roots``, each polished by one
    Newton step) and the real roots of ``q'`` cut the axis into pieces, and
    the pieces with nonnegative slack at their midpoint are kept; two roots
    too close for ``np.roots`` to resolve are found from the quadratic
    model of ``q`` at the extremum between them.  A point where an oval
    only touches the axis is a double root of ``q``; it is found as a real
    root of ``q'`` and kept as an isolated point when its slack is at least
    ``-tol``.  Unions and intersections combine by interval algebra.
    ``tol`` also controls how close to the axis a point leaf must be to
    count as real and how point matching behaves under intersection.
    Tangent disks keep their zero-width interval.
    """
    if isinstance(region, Disk):
        return _disk_section(region)
    if isinstance(region, CassiniOval):
        return _oval_section(region, tol)
    if isinstance(region, PointSet):
        pts = [p.real for p in region.points if abs(p.imag) <= tol]
        return _normalized_section([], pts, tol)
    if isinstance(region, RegionUnion):
        acc = _EMPTY_SECTION
        for child in region.children:
            acc = _section_union(acc, real_section(child, tol), tol)
        return acc
    if isinstance(region, RegionIntersection):
        if not region.children:
            return _EMPTY_SECTION
        acc = real_section(region.children[0], tol)
        for child in region.children[1:]:
            acc = _section_intersection(acc, real_section(child, tol), tol)
        return acc
    raise TypeError(f"not a region: {region!r}")


# ---------------------------------------------------------------------------
# JSON interchange


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def region_to_json(region: Region) -> dict:
    """Nested dict form: union/intersection nodes plus disk/oval/points leaves."""
    if isinstance(region, Disk):
        return {"disk": {"center": _pair(region.center), "radius": region.radius}}
    if isinstance(region, CassiniOval):
        return {
            "oval": {
                "a": _pair(region.focus_a),
                "b": _pair(region.focus_b),
                "p": region.radius_product,
            }
        }
    if isinstance(region, PointSet):
        return {"points": [_pair(p) for p in region.points]}
    if isinstance(region, RegionUnion):
        return {"op": "union", "children": [region_to_json(c) for c in region.children]}
    if isinstance(region, RegionIntersection):
        return {
            "op": "intersection",
            "children": [region_to_json(c) for c in region.children],
        }
    raise TypeError(f"not a region: {region!r}")


def _json_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _json_pair(value) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise TypeError(f"not a [re, im] pair: {value!r}")
    return complex(_json_number(value[0]), _json_number(value[1]))


def region_from_json(obj: dict) -> Region:
    """Parse :func:`region_to_json` output.

    Numbers must be ints or floats (``true`` is not one), pairs must be
    ``[re, im]`` and every value finite; any malformed node is a ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"bad region node {obj!r}")
    try:
        if "disk" in obj:
            d = obj["disk"]
            return Disk(_json_pair(d["center"]), _json_number(d["radius"]))
        if "oval" in obj:
            o = obj["oval"]
            return CassiniOval(_json_pair(o["a"]), _json_pair(o["b"]), _json_number(o["p"]))
        if "points" in obj:
            return PointSet(tuple(_json_pair(p) for p in obj["points"]))
        if obj.get("op") == "union":
            return RegionUnion(tuple(region_from_json(c) for c in obj["children"]))
        if obj.get("op") == "intersection":
            return RegionIntersection(tuple(region_from_json(c) for c in obj["children"]))
    except (TypeError, KeyError, OverflowError) as exc:
        # OverflowError: an integer past the double range
        raise ValueError(f"bad region node {obj!r}: {exc}") from None
    raise ValueError(f"bad region node {obj!r}")


def matrix_to_json(matrix) -> str:
    """Row-major ``{"n": n, "entries": [[{"re", "im"}, ...], ...]}``."""
    a = _as_matrix(matrix)
    entries = [
        [{"re": float(z.real), "im": float(z.imag)} for z in row] for row in a
    ]
    return json.dumps({"n": a.shape[0], "entries": entries})


def matrix_from_json(text: str) -> np.ndarray:
    """Parse :func:`matrix_to_json` output.

    ``n`` must equal the row count (``2.7`` or ``true`` never does), every
    cell must be ``{"re": x, "im": y}`` with numbers x and y (``true`` and
    ``"1"`` are not numbers) and every entry finite; anything else is a
    ValueError.
    """
    obj = json.loads(text)
    try:
        n = obj["n"]
        entries = obj["entries"]
    except (TypeError, KeyError):
        raise ValueError("matrix JSON must have keys 'n' and 'entries'") from None
    try:
        if isinstance(n, bool) or len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("matrix entries are not n rows of n values")
        n = len(entries)
        a = np.empty((n, n), dtype=complex)
        for i, row in enumerate(entries):
            for j, cell in enumerate(row):
                a[i, j] = complex(_json_number(cell["re"]), _json_number(cell["im"]))
    except (TypeError, KeyError, OverflowError):
        raise ValueError("matrix cells must be {'re': number, 'im': number}") from None
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a
