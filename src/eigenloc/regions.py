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
never from a rasterisation.  Each node class owns its ``slack`` (one numpy
path for a point or an array of points), ``section`` and ``to_json``.
"""

from __future__ import annotations

import cmath
import functools
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


# ---------------------------------------------------------------------------
# region tree.  A class's _max_slack(nodes, z) is the largest slack over
# several of its nodes, with the leaves along a trailing axis of z, so that a
# union takes all its leaves of one class in one numpy pass.


def _distance(z, c: complex):
    # np.hypot of the parts rounds like Python's abs(complex); numpy's complex abs may not
    d = z - c
    return np.hypot(d.real, d.imag)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


class _Leaf:
    """Slack is ``_max_slack`` of the leaf alone; extent() bounds the leaf's drawing."""

    def slack(self, z):
        return self._max_slack((self,), z)

    def leaves(self) -> tuple:
        return (self,)


class _Combination:
    """Union or intersection of ``children``; with no children it is empty."""

    def leaves(self) -> tuple:
        return tuple(leaf for child in self.children for leaf in child.leaves())

    @staticmethod
    def _max_slack(nodes, z):
        return functools.reduce(np.maximum, (node.slack(z) for node in nodes))

    def section(self, tol: float) -> RealSection:
        if not self.children:
            return _EMPTY_SECTION
        combine = functools.partial(self._section_op, tol=tol)
        return functools.reduce(combine, (c.section(tol) for c in self.children))

    def to_json(self) -> dict:
        return {"op": self._op, "children": [child.to_json() for child in self.children]}


@dataclass(frozen=True)
class Disk(_Leaf):
    """Closed disk { z : |z - center| <= radius }."""

    center: complex
    radius: float

    def __post_init__(self) -> None:
        if not 0 <= self.radius < math.inf:
            raise ValueError(f"disk radius must be finite and nonnegative, got {self.radius}")
        if not cmath.isfinite(self.center):
            raise ValueError(f"disk centre must be finite, got {self.center}")

    @staticmethod
    def _max_slack(disks, z):
        center = np.array([d.center for d in disks], dtype=complex)
        radius = np.array([d.radius for d in disks], dtype=float)
        return (radius - _distance(np.asarray(z)[..., None], center)).max(axis=-1)

    def section(self, tol: float) -> RealSection:
        gap = self.radius * self.radius - self.center.imag * self.center.imag
        if gap < 0:
            return _EMPTY_SECTION
        half = math.sqrt(gap)
        x = self.center.real
        return RealSection(((x - half, x + half),), ())

    def to_json(self) -> dict:
        return {"disk": {"center": _pair(self.center), "radius": self.radius}}

    def extent(self) -> tuple[complex, ...]:
        corner = complex(self.radius, self.radius)
        return (self.center - corner, self.center + corner)


@dataclass(frozen=True)
class CassiniOval(_Leaf):
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

    @staticmethod
    def _max_slack(ovals, z):
        a = np.array([o.focus_a for o in ovals], dtype=complex)
        b = np.array([o.focus_b for o in ovals], dtype=complex)
        p = np.array([o.radius_product for o in ovals], dtype=float)
        z = np.asarray(z)[..., None]
        return (p - _distance(z, a) * _distance(z, b)).max(axis=-1)

    def section(self, tol: float) -> RealSection:
        """Where ``q(x) = |x-a|^2 |x-b|^2 - p^2`` is <= 0, cut at the real roots of q and q'.

        A point where the oval only touches the axis (a double root of q) and
        the real point of each focus are kept as isolated points when their
        slack is at least ``-tol``; the foci keep a lobe too narrow for the
        quartic to resolve at their magnitude.
        """
        a, b, p = self.focus_a, self.focus_b, self.radius_product
        points = [float(f.real) for f in (a, b) if self.slack(f.real) >= -tol]
        if p == 0.0:
            return _normalized_section([], points, tol)
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
                points.append(s + scale * y)
        ends.sort()
        intervals = [
            (s + scale * left, s + scale * right)
            for left, right in zip(ends, ends[1:])
            if left < right and spread(0.5 * (left + right)) <= p
        ]
        return _normalized_section(intervals, points, tol)

    def to_json(self) -> dict:
        oval = {"a": _pair(self.focus_a), "b": _pair(self.focus_b), "p": self.radius_product}
        return {"oval": oval}

    def extent(self) -> tuple[complex, ...]:
        spread = math.sqrt(self.radius_product) + abs(self.focus_a - self.focus_b)
        corner = complex(spread, spread)
        return tuple(f + sign * corner for f in (self.focus_a, self.focus_b) for sign in (-1, 1))


@dataclass(frozen=True)
class PointSet(_Leaf):
    """Finite set of complex points; membership means being within tolerance."""

    points: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not all(cmath.isfinite(p) for p in self.points):
            raise ValueError(f"points must be finite, got {self.points}")

    @staticmethod
    def _max_slack(sets, z):
        points = np.array([p for s in sets for p in s.points], dtype=complex)
        return (-_distance(np.asarray(z)[..., None], points)).max(axis=-1, initial=-np.inf)

    def section(self, tol: float) -> RealSection:
        return _normalized_section([], [p.real for p in self.points if abs(p.imag) <= tol], tol)

    def to_json(self) -> dict:
        return {"points": [_pair(p) for p in self.points]}

    def extent(self) -> tuple[complex, ...]:
        return self.points


@dataclass(frozen=True)
class RegionUnion(_Combination):
    """Points in some child; slack is the largest child slack."""

    children: tuple["Region", ...]
    _op = "union"

    @staticmethod
    def _section_op(a: RealSection, b: RealSection, tol: float) -> RealSection:
        return _normalized_section(
            list(a.intervals) + list(b.intervals),
            list(a.isolated_points) + list(b.isolated_points),
            tol,
        )

    def slack(self, z):
        if not self.children:
            return np.full(np.shape(z), -np.inf)
        # each child class's _max_slack takes all its children at once
        groups: dict[type, list] = {}
        for child in self.children:
            groups.setdefault(type(child), []).append(child)
        return functools.reduce(np.maximum, (k._max_slack(nodes, z) for k, nodes in groups.items()))


@dataclass(frozen=True)
class RegionIntersection(_Combination):
    """Points in every child; slack is the smallest child slack."""

    children: tuple["Region", ...]
    _op = "intersection"

    @staticmethod
    def _section_op(a: RealSection, b: RealSection, tol: float) -> RealSection:
        intervals = [
            (max(lo1, lo2), min(hi1, hi2))
            for lo1, hi1 in a.intervals
            for lo2, hi2 in b.intervals
            if max(lo1, lo2) <= min(hi1, hi2)
        ]
        points = [p for p in a.isolated_points if section_contains(b, p, tol)]
        points += [p for p in b.isolated_points if section_contains(a, p, tol)]
        return _normalized_section(intervals, points, tol)

    def slack(self, z):
        if not self.children:
            return np.full(np.shape(z), -np.inf)
        return functools.reduce(np.minimum, (c.slack(z) for c in self.children))


Region = Union[Disk, CassiniOval, PointSet, RegionUnion, RegionIntersection]


def region_slack(region: Region, z: complex) -> float:
    """Signed margin of ``z``: >= 0 inside, < 0 outside, 0 on the boundary.

    Slack is measured against each leaf's defining inequality (distance for
    disks and point sets, distance product for ovals), combined as max over
    unions and min over intersections.
    """
    return float(region.slack(complex(z)))


def region_contains(region: Region, z: complex, tol: float = 0.0) -> bool:
    """Membership with slack >= -tol; ``tol`` must be nonnegative."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return region_slack(region, z) >= -tol


def region_slack_grid(region: Region, zs: np.ndarray) -> np.ndarray:
    """:func:`region_slack` at each point of an array, bit for bit; a union
    holds one (points x its leaves of one class) array at a time."""
    return region.slack(np.asarray(zs, dtype=complex))


def real_section(region: Region, tol: float = 1e-9) -> RealSection:
    """The region's intersection with the real axis as intervals + points.

    Disks section analytically and ovals in closed form (see
    :meth:`CassiniOval.section`); unions and intersections combine by
    interval algebra.  ``tol`` also controls how close to the axis a point
    leaf must be to count as real and how point matching behaves under
    intersection.  Tangent disks keep their zero-width interval.
    """
    return region.section(tol)


def region_to_json(region: Region) -> dict:
    """Nested dict form: union/intersection nodes plus disk/oval/points leaves."""
    return region.to_json()


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


def _require_gamma(matrix) -> tuple[np.ndarray, complex]:
    a = _as_matrix(matrix)
    gamma = constant_row_sum(a)
    if gamma is None:
        raise ValueError("matrix does not have a constant row sum within tolerance")
    return a, gamma


def deleted_row_sums(matrix) -> np.ndarray:
    """r_i = sum over j != i of |a_ij|, for each row i."""
    a = _as_matrix(matrix)
    return np.abs(a).sum(axis=1) - np.abs(np.diag(a))


def deflate(matrix, k: int) -> np.ndarray:
    """Deflated matrix of dimension n-1 for a constant-row-sum matrix.

    Entry (u, v) of the result is ``a_uv - a_kv`` for u, v ranging over the
    indices other than ``k`` (1-based).  The spectrum of the input equals
    the row sum plus the spectrum of the result, as multisets.
    """
    a, _ = _require_gamma(matrix)
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


def rowsum_gersgorin_region(matrix) -> RegionIntersection:
    """Intersection over deflation rows i of the deflated disk unions.

    Component i is the union over k != i of the disk centred at
    ``a_kk - a_ik`` with radius ``sum over j not in {i, k} of |a_kj - a_ij|``
    (the entries of the i-deflated matrix), together with the forced
    eigenvalue gamma as a point leaf.
    """
    a, gamma = _require_gamma(matrix)
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
        leaves.append(PointSet((gamma,)))
        components.append(RegionUnion(tuple(leaves)))
    return RegionIntersection(tuple(components))


def rowsum_brauer_region(matrix) -> RegionIntersection:
    """Intersection over deflation rows i of the deflated oval unions.

    Component i is the union over unordered pairs {j, k} of the remaining
    indices of the oval with foci ``a_jj - a_ij`` and ``a_kk - a_ik`` and
    radius product ``r_j * r_k`` where ``r_j = sum over l not in {i, j} of
    |a_jl - a_il|``, plus the forced eigenvalue gamma as a point leaf.
    """
    a, gamma = _require_gamma(matrix)
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
        leaves.append(PointSet((gamma,)))
        components.append(RegionUnion(tuple(leaves)))
    return RegionIntersection(tuple(components))


# ---------------------------------------------------------------------------
# JSON interchange


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
