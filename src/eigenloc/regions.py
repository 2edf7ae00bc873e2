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
No oval's foci are so far apart that their distance overflows, so the
slack of a finite point is never NaN.

Underneath the tree, each union keeps a leaf table: the parameters of its
disks, ovals and points as arrays, so that its slack is one (points x
leaves) numpy pass and an intersection's is one such pass per union, and
an intersection sections the leaves of all its unions at once.  The four
builders fill their tables with array arithmetic.  A classical builder
returns one union; a row-sum builder returns the intersection of one
union per deflation row, each a view of one row of the builder's arrays.
A builder's union makes its ``children`` from its table when they are
first read.

:class:`MatrixFacts` is a stack of matrices of one size, such as the two
or three matrices of a graph, and owns what the builders read of them:
each fact is made for the whole stack by one array pass, from the
matrices alone; a builder reads a stack of one.  For the region methods
asked for, :func:`stack_least_slacks` takes each one's least slack for
every matrix of a stack over its own points without building a region,
from two tables of distances for the whole stack: one to the diagonals
for the Gersgorin and Brauer sets, one to the deflated centres and gamma
for the two row-sum sets.  It bounds a large region of any kind pair by
pair (union, point) in two passes at most, into a table of union slacks
that leaves only pairs above the least, and reads every table by one rule.
A table too large for one block first keeps the two widest leaves at
each centre.  The pass carries no leaf.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .graphs import _integer

__all__ = [
    "Disk",
    "CassiniOval",
    "PointSet",
    "RegionUnion",
    "RegionIntersection",
    "Region",
    "RealSection",
    "RegionUnavailable",
    "MatrixFacts",
    "METHODS",
    "stack_least_slacks",
    "constant_row_sum",
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
    intervals are allowed.  ``isolated_points`` are sorted, distinct and
    never interior to any interval.
    """

    intervals: tuple[tuple[float, float], ...]
    isolated_points: tuple[float, ...]

    def is_empty(self) -> bool:
        return not self.intervals and not self.isolated_points


def section_contains(section: RealSection, x: float, tol: float = 0.0) -> bool:
    """Membership of a real point, or a complex one on the axis, with endpoints
    widened by ``tol``; refused as by :func:`region_contains`, and off the axis."""
    _check_membership(x, tol)
    if np.iscomplexobj(x) and x.imag:
        raise ValueError(f"a real section takes a real point, got {x!r}")
    return _in_section(section, x.real, tol)


def _in_section(section: RealSection, x: float, tol: float) -> bool:
    return (any(lo - tol <= x <= hi + tol for lo, hi in section.intervals)
            or any(abs(x - p) <= tol for p in section.isolated_points))


# a point leaf, a focus's foot or an oval's touch this near the axis is real,
# and a point this near another union's section survives their intersection
_NEAR_AXIS = 1e-9


def _normalized_section(intervals: list[tuple[float, float]], points: list[float]) -> RealSection:
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    kept: list[float] = []
    for p in sorted(points):
        if not (kept and p == kept[-1] or any(lo <= p <= hi for lo, hi in merged)):
            kept.append(p)
    return RealSection(tuple((lo, hi) for lo, hi in merged), tuple(kept))


# ---------------------------------------------------------------------------
# region tree


def _distance(z, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|z - c| into ``out``: of real arrays one subtraction and one abs; of
    complex ones np.hypot of the parts, which rounds like Python's
    abs(complex) (numpy's complex abs may not) and is |Re(z - c)| exactly
    where Im(z - c) is zero (C99 Annex F).  A distance past the float range
    is inf; the caller ignores overflow once for its whole table operation."""
    if not (np.iscomplexobj(z) or np.iscomplexobj(c)):
        return np.abs(np.subtract(z, c, out=out), out=out)
    return np.hypot(z.real - c.real, z.imag - c.imag, out=out)


def _reach(z, anchors: np.ndarray) -> np.ndarray:
    """The distance from each point of ``z`` to each of ``anchors``, the
    points' axes first, along a trailing axis that ends in an exact 1.0; the
    caller ignores overflow, as for :func:`_distance`."""
    z = np.asarray(z)[..., None]
    reach = np.empty(np.broadcast(z, anchors).shape[:-1] + (anchors.shape[-1] + 1,))
    reach[..., -1] = 1.0
    _distance(z, anchors, reach[..., :-1])
    return reach


def _products(values: np.ndarray, first, second) -> np.ndarray:
    """``values[..., first] * values[..., second]``, inf past the float range;
    ``first`` and ``second`` are index arrays or slices."""
    return np.multiply(values[..., first], values[..., second])


def _margins(reach: np.ndarray, first, second, bounds) -> np.ndarray:
    """Each leaf row's slack at each point along the trailing axis, from the
    points' ``reach`` (see :class:`_LeafTable`); -inf where a distance or a
    product passes the float range."""
    margin = _products(reach, first, second)
    return np.subtract(bounds, margin, out=margin)


def _union_slack(margins: np.ndarray, axis: int = -1) -> np.ndarray:
    """A union's slack from its rows' ``margins`` along ``axis``: the largest,
    -inf if none.  A zero is +0.0 where some row's is, so that its sign does
    not rest on the order in which numpy's reduction meets a +0.0 and a -0.0."""
    slack = np.maximum.reduce(margins, axis=axis, initial=-np.inf)
    if (zero := slack == 0.0).any():
        positive = ((margins == 0.0) & ~np.signbit(margins)).any(axis=axis)
        slack = np.where(zero & positive, 0.0, slack)
    return slack


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


_TOO_FAR = "an oval's foci are too far apart: their distance is past the float range"


_DISK, _OVAL, _POINT = 0, 1, 2


class _LeafTable:
    """The leaves of one union as rows of arrays.

    With ``d`` a point's distances to each of ``anchors`` followed by an
    exact 1.0 (index -1), row k's slack is
    ``bounds[k] - d[first[k]] * d[second[k]]``, which rounds exactly like
    the leaf's own inequality:

    - a disk (``kinds[k] == _DISK``): first its centre, second -1, bound its radius;
    - an oval (``_OVAL``): first and second its foci, bound its radius product;
    - a point (``_POINT``): first the point, second -1, bound -0.0, so that
      the slack is the negated distance, -0.0 on the point itself.

    The ovals of a builder share their foci, so a point's distance to each
    focus is taken once, not once per oval.  ``nested`` holds the union's
    children that are not leaves, whose slack is taken from the node.
    """

    def __init__(self, anchors, first, second, bounds, kinds, nested: tuple = ()) -> None:
        self.anchors, self.first, self.second = anchors, first, second
        self.bounds, self.kinds, self.nested = bounds, kinds, nested

    @classmethod
    def of(cls, nodes) -> "_LeafTable":
        """The table of a union of ``nodes``, which are already validated."""
        anchors: list[complex] = []
        rows: list[tuple[int, int, int, float]] = []
        for node in nodes:
            at = len(anchors)
            if isinstance(node, Disk):
                anchors.append(node.center)
                rows.append((_DISK, at, -1, node.radius))
            elif isinstance(node, CassiniOval):
                anchors += [node.focus_a, node.focus_b]
                rows.append((_OVAL, at, at + 1, node.radius_product))
            elif isinstance(node, PointSet):
                anchors += node.points
                rows += [(_POINT, at + k, -1, -0.0) for k in range(len(node.points))]
        kinds, first, second, bounds = zip(*rows) if rows else ((), (), (), ())
        return cls(
            np.array(anchors, dtype=complex),
            np.array(first, dtype=np.intp),
            np.array(second, dtype=np.intp),
            np.array(bounds, dtype=float),
            kinds,
            tuple(node for node in nodes if isinstance(node, _Combination)),
        )

    def leaves(self) -> tuple:
        """Leaf objects of every row, in row order, a point set for each point."""
        anchors = self.anchors.tolist()
        return tuple(_leaf(kind, anchors[a], anchors[b], bound) for kind, a, b, bound in zip(
            self.kinds, self.first.tolist(), self.second.tolist(), self.bounds.tolist()))

    @np.errstate(over="ignore")
    def margins(self, z) -> np.ndarray:
        """Each row's slack at each point of ``z``, along a trailing axis."""
        return _margins(_reach(z, self.anchors), self.first, self.second, self.bounds)

    def slack(self, z):
        """The union's slack at ``z``."""
        slack = _union_slack(self.margins(z))
        for node in self.nested:
            slack = np.maximum(slack, node.slack(z))
        return slack

    def section(self) -> RealSection:
        """The union's real section: disks in closed form, points within
        ``_NEAR_AXIS`` of the axis, and each oval where ``q(x) = |x-a|^2
        |x-b|^2 - p^2`` is <= 0, cut at the real roots of q and q'.

        A point where an oval only touches the axis (a double root of q) and
        the real point of each focus are kept as isolated points when their
        slack is at least ``-_NEAR_AXIS`` (a touch's in the oval's units);
        the foci keep a lobe too narrow for the quartic to resolve at their
        magnitude.  Isolated points merge only where they are equal.
        """
        return _sections([self])[0]


def _sections(tables: list[_LeafTable]) -> list[RealSection]:
    """:meth:`_LeafTable.section` of each table, all tables' rows at once."""
    owner = np.repeat(np.arange(len(tables)), [len(t.kinds) for t in tables])
    kinds = np.array([kind for t in tables for kind in t.kinds], dtype=int)
    at = np.concatenate([t.anchors[t.first] for t in tables])
    bound = np.concatenate([t.bounds for t in tables])
    disk = np.flatnonzero(kinds == _DISK)
    # r^2 - y^2, taken where a square overflows in units of a power of two
    # near r (at most 2**1023, as 2**1024 is inf), so that a huge disk keeps
    # its half-width and one touching the axis its point; only an end past
    # the float range is -inf or inf
    with np.errstate(over="ignore", invalid="ignore"):
        r, y = bound[disk], at[disk].imag
        gap = r * r - y * y
        finite = np.isfinite(gap)
        unit = np.where(finite, 1.0, np.ldexp(1.0, np.minimum(np.frexp(r)[1], 1023)))
        r, y = r / unit, y / unit
        gap = np.where(finite, gap, (r - y) * (r + y))
        disk, half = disk[gap >= 0.0], unit[gap >= 0.0] * np.sqrt(gap[gap >= 0.0])
        point = np.flatnonzero((kinds == _POINT) & (np.abs(at.imag) <= _NEAR_AXIS))
        # the rows, low and high ends of the intervals, then the rows and
        # values of the isolated points
        pieces = [(disk, at[disk].real - half, at[disk].real + half, point, at[point].real)]
    oval = np.flatnonzero(kinds == _OVAL)
    if len(oval):
        to = np.concatenate([t.anchors[t.second] for t in tables])[oval]
        span, low, high, mark, x = _oval_sections(at[oval], to, bound[oval])
        pieces.append((oval[span], low, high, oval[mark], x))
    spans, lows, highs, marks, xs = (np.concatenate(part) for part in zip(*pieces))
    spans, marks = owner[spans], owner[marks]
    sections = []
    for k, table in enumerate(tables):
        intervals = list(zip(lows[spans == k].tolist(), highs[spans == k].tolist()))
        isolated = xs[marks == k].tolist()
        for node in table.nested:
            nested = node.section()
            intervals += nested.intervals
            isolated += nested.isolated_points
        sections.append(_normalized_section(intervals, isolated))
    return sections


def _real_roots(coeffs: np.ndarray) -> np.ndarray:
    """np.roots of each row (leading coefficient nonzero), NaN where a root
    is not real: the eigenvalues of the companion matrix with first row
    ``-c[1:] / c[0]`` and ones below the diagonal, one stacked eigvals call
    per degree, then a root 0.0 for each trailing zero coefficient stripped."""
    count, degree = coeffs.shape[0], coeffs.shape[1] - 1
    roots = np.zeros((count, degree), dtype=complex)
    kept = degree - np.argmin(coeffs[:, ::-1] == 0.0, axis=1)
    for m in set(kept[kept > 0].tolist()):
        rows = kept == m
        companion = np.zeros((np.count_nonzero(rows), m, m))
        companion[:, 0, :] = -coeffs[rows, 1 : m + 1] / coeffs[rows, :1]
        companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        roots[rows, :m] = np.linalg.eigvals(companion)
    return np.where(roots.imag == 0.0, roots.real, np.nan)


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.polyval of row k's polynomial at row k of ``x``, rounding as it does."""
    value = np.zeros_like(x)
    for c in coeffs.T:
        value = value * x + c[:, None]
    return value


def _oval_sections(a, b, p):
    """The real sections of the ovals with foci ``a``, ``b`` and radius
    products ``p``: each interval's oval, low and high end, then each
    isolated point's oval and value, as arrays."""
    a, b, p = a[:, None], b[:, None], p[:, None]
    with np.errstate(over="ignore"):
        s = 0.5 * (a.real + b.real)
    feet = np.hstack([a.real, b.real])
    kept = p - np.hypot(feet - a.real, a.imag) * np.hypot(feet - b.real, b.imag) >= -_NEAR_AXIS
    live = np.flatnonzero(p != 0.0)
    a, b, p = a[live], b[live], p[live]
    # q(y) = |y-u|^2 |y-v|^2 - p^2, a real quartic that is negative inside the
    # oval, with y = (x - s) / scale measured from the centre s (halved
    # before the sum where the sum overflows) so that no coefficient cancels
    # against the foci's distance from the origin, and in units of the
    # oval's size (at most 2**1023) so that none overflows; scale is a power
    # of two, so dividing by it is exact
    s = np.where(np.isfinite(s[live]), s[live], 0.5 * a.real + 0.5 * b.real)
    size = np.maximum(np.hypot(a.real - s, a.imag), np.hypot(b.real - s, b.imag))
    scale = np.ldexp(1.0, np.minimum(np.frexp(np.maximum(size, np.sqrt(p)))[1], 1023))
    ur, ui, vr, vi = (a.real - s) / scale, a.imag / scale, (b.real - s) / scale, b.imag / scale
    p = p / scale / scale
    mu, mv = -2.0 * ur, -2.0 * vr
    cu, cv = ur * ur + ui * ui, vr * vr + vi * vi
    # np.polymul's coefficients of (y^2 + mu y + cu)(y^2 + mv y + cv): np.convolve
    # takes the y^1 coefficient as a BLAS dot, which a 1 x 2 by 2 x 1 matmul
    # also calls, and so rounds alike
    dot = np.matmul(np.stack([mu, cu], -1), np.stack([cv, mv], -2))[:, 0]
    q = np.hstack([np.ones_like(p), mu + mv, cv + mu * mv + cu, dot, cu * cv - p * p])
    dq = q[:, :-1] * np.arange(4, 0, -1)
    d2q = dq[:, :-1] * np.arange(3, 0, -1)

    def spread(y):
        return np.hypot(y - ur, ui) * np.hypot(y - vr, vi)

    def exact_q(y):
        # q in factored form, exact where the expanded coefficients cancel
        m = spread(y)
        return m * m - p * p

    # Every root of q must be among the ends; ends that are not roots only
    # split an interval or a gap, whose sign is read at its midpoint.  Two
    # roots closer than about sqrt(eps) come back from the eigenvalues as a
    # complex pair or as a spread-out real pair round the extremum of q
    # between them: the extremum as an end fences off the spurious pair, and
    # the quadratic model of q there gives the true pair.
    roots = _real_roots(q)
    slope = _horner(dq, roots)
    roots -= np.divide(exact_q(roots), slope, out=np.zeros_like(roots), where=slope != 0.0)
    critical = _real_roots(dq)
    g, curvature = exact_q(critical), _horner(d2q, critical)
    # Two overflows to inf are exact answers: a subnormal curvature (foci
    # about 1e-160 apart in these units) puts that pair's ends at -inf and
    # inf, outside every oval, and a subnormal scale**2 makes the tangency
    # tolerance wider than any spread the critical points can have
    with np.errstate(over="ignore"):
        spacing = np.divide(-2.0 * g, curvature, out=np.full_like(g, np.nan), where=g * curvature < 0.0)
        reach = -_NEAR_AXIS / scale / scale
    half = np.sqrt(spacing)
    rescued = np.stack([critical, critical - half, critical + half], -1).reshape(len(p), 9)
    ends = np.sort(np.hstack([roots, rescued]), axis=1, kind="stable")
    left, right = ends[:, :-1], ends[:, 1:]
    inside = (left < right) & (spread(0.5 * (left + right)) <= p)
    # a tangency is a double root of q but a simple root of q'
    tangent = p - spread(critical) >= reach
    return (
        live[np.nonzero(inside)[0]], (s + scale * left)[inside], (s + scale * right)[inside],
        np.concatenate([np.nonzero(kept)[0], live[np.nonzero(tangent)[0]]]),
        np.concatenate([feet[kept], (s + scale * critical)[tangent]]),
    )


def _leaf(kind: int, a: complex, b: complex, bound: float):
    """The leaf of a table row of ``kind`` with anchors ``a``, ``b`` and ``bound``."""
    if kind == _DISK:
        return Disk(a, bound)
    if kind == _OVAL:
        return CassiniOval(a, b, bound)
    return PointSet((a,))


class _Leaf:
    """Slack and section are those of a table of the leaf alone; extent()
    bounds the leaf's drawing."""

    def slack(self, z):
        return _LeafTable.of((self,)).slack(z)

    def section(self) -> RealSection:
        return _LeafTable.of((self,)).section()

    def leaves(self) -> tuple:
        return (self,)


class _Combination:
    """Union or intersection of ``children``; with no children it is empty."""

    def leaves(self) -> tuple:
        return tuple(leaf for child in self.children for leaf in child.leaves())

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
        d = self.focus_a - self.focus_b
        if math.hypot(d.real, d.imag) == math.inf:
            raise ValueError(_TOO_FAR)

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

    def to_json(self) -> dict:
        return {"points": [_pair(p) for p in self.points]}

    def extent(self) -> tuple[complex, ...]:
        return self.points


@dataclass(frozen=True)
class RegionUnion(_Combination):
    """Points in some child; slack is the largest child slack.

    Slack and section come from the union's leaf table, made from
    ``children`` or, for a builder's union, by the builder; such a union
    makes ``children`` from its table when they are first read.
    """

    children: tuple["Region", ...]
    _op = "union"

    def __post_init__(self) -> None:
        object.__setattr__(self, "_table", _LeafTable.of(self.children))

    @classmethod
    def _from_table(cls, table: _LeafTable) -> "RegionUnion":
        node = object.__new__(cls)
        object.__setattr__(node, "_table", table)
        return node

    def __getattr__(self, name: str):
        # only reached when normal lookup fails: a table-made union's children
        if name != "children" or "_table" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__["children"] = children = self._table.leaves()
        return children

    def slack(self, z):
        return self._table.slack(z)

    def section(self) -> RealSection:
        return self._table.section()


@dataclass(frozen=True)
class RegionIntersection(_Combination):
    """Points in every child; slack is the smallest child slack."""

    children: tuple["Region", ...]
    _op = "intersection"

    @staticmethod
    def _section_op(a: RealSection, b: RealSection) -> RealSection:
        intervals = [
            (max(lo1, lo2), min(hi1, hi2))
            for lo1, hi1 in a.intervals
            for lo2, hi2 in b.intervals
            if max(lo1, lo2) <= min(hi1, hi2)
        ]
        points = [p for one, other in ((a, b), (b, a)) for p in one.isolated_points
                  if _in_section(other, p, _NEAR_AXIS)]
        return _normalized_section(intervals, points)

    def section(self) -> RealSection:
        if not self.children:
            return RealSection((), ())
        # the children's tables, a union's own or one holding the child
        tables = [getattr(c, "_table", None) or _LeafTable.of((c,)) for c in self.children]
        return functools.reduce(self._section_op, _sections(tables))

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
    """Membership with slack >= -tol; ``tol`` must be finite and nonnegative, ``z`` finite."""
    _check_membership(z, tol)
    return region_slack(region, z) >= -tol


def _check_tolerance(tol) -> None:
    """Refuse, with ValueError, a tolerance that is not finite and nonnegative: every check's rule."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")


def _check_membership(point, tol) -> None:
    _check_tolerance(tol)
    if not cmath.isfinite(point):
        raise ValueError(f"point must be finite, got {point!r}")


def region_slack_grid(region: Region, zs: np.ndarray) -> np.ndarray:
    """:func:`region_slack` at each point of an array, bit for bit; a union
    holds one (points x its leaves) array at a time."""
    return region.slack(np.asarray(zs, dtype=complex))


def _points(z: np.ndarray, count: int) -> np.ndarray:
    """The array of points ``z`` (see :func:`_array`) as ``count`` rows, one
    per matrix of a stack; real where every imaginary part is zero; empty or
    non-finite points raise ValueError."""
    z = (z if z.dtype == float else np.asarray(z, dtype=complex)).reshape(count, -1)
    if not (z.size and np.isfinite(z).all()):
        raise ValueError("points must be nonempty and finite")
    return z.real.copy() if z.dtype == complex and not z.imag.any() else z


def _array(points) -> np.ndarray:
    """``np.asarray(points)``; ragged rows raise ValueError in our words."""
    try:
        return np.asarray(points)
    except ValueError:
        lengths = ", ".join(str(len(row) if hasattr(row, "__len__") else 1) for row in points)
        raise ValueError("points must be rows of one length (one row per matrix of a stack): "
                         f"got rows of lengths {lengths}") from None


@np.errstate(over="ignore")
def _least_slacks(z: np.ndarray, centers, radii, gamma, kinds) -> list[list]:
    """The least of :func:`region_slack_grid` over the finite points ``z[m]``
    of the region ``_table_region(centers[m], radii[m], kind, gamma[m])`` of
    each matrix m of a stack, for each of ``kinds``: per kind, per matrix,
    (least slack, index of the first point at it).

    The kinds share one table of distances from the points to the centres
    (and gamma), made for a block of points of every matrix at a time so
    that no kind's margins pass ``_PASS_ROWS`` rows in a block; each point's
    slack is the grid's bit for bit.  The tables put the leaf rows first
    and the points last, so that a leaf row of every point is one slab,
    gathered, multiplied and compared whole.  A kind whose margins over one
    matrix's points would pass ``_PASS_ROWS`` rows is bounded by
    :func:`_bounded_slacks` instead, a matrix at a time.  Where its disks
    would, it first keeps the two widest leaves at a centre.

    Either route gives a (component x matrix x point) table of union slacks,
    read by one rule: the least over components in order, as the grid's
    np.minimum takes them, then over points, and the first point at it.  A
    pair the bound leaves is inf, above the least, and a zero beats it as
    it beats the grid's positive value: neither the least's bits nor its
    first point moves.
    """
    stacked = gamma is not None
    (matrices, points), comps = z.shape, centers.shape[-2]
    if points * comps * (centers.shape[-1] + stacked) > _PASS_ROWS:
        centers, radii = _distinct_leaves(centers, radii)
    anchors, padded = _anchors(centers, gamma), _padded(radii, stacked)
    plans = []  # kind, leaves, width, bounded, slacks
    for kind in kinds:
        # a disk's rows are the anchors' distances before the 1.0, times it
        leaves = (slice(-1), slice(-1, None)) if kind == _DISK else _rows(radii.shape[-1], kind, stacked)
        width = anchors.shape[-1] if kind == _DISK else len(leaves[0])
        plans.append([kind, leaves, width, points * comps * width > _PASS_ROWS, []])
    direct = [plan for plan in plans if not plan[3]]
    step = max(1, _PASS_ROWS // (matrices * comps * max([plan[2] for plan in direct] + [1])))
    # anchors, then component, matrix and point
    foci = anchors.T[..., None]
    bounds = [_products(padded, *plan[1]).T[..., None] for plan in direct]
    for lo in range(0, points if direct else 0, step):
        block = z[:, lo : lo + step]
        reach = np.empty((len(foci) + 1,) + foci.shape[1:-2] + block.shape)
        reach[-1] = 1.0
        _distance(block, foci, reach[:-1])
        for plan, bound in zip(direct, bounds):
            first, second = plan[1]
            margins = np.multiply(reach[first], reach[second])
            plan[4].append(_union_slack(np.subtract(bound, margins, out=margins), axis=0))
    found = []
    for kind, leaves, width, bounded, slacks in plans:
        if bounded:
            tables = [_bounded_slacks(z[m], anchors[m], radii[m], padded[m], kind, leaves, width)
                      for m in range(matrices)]
            slacks = [np.stack(tables, axis=1)]
        table = slacks[0] if len(slacks) == 1 else np.concatenate(slacks, axis=-1)
        point = np.minimum.accumulate(table)[-1]
        found.append(list(zip(point.min(axis=-1), point.argmin(axis=-1).tolist())))
    return found


def _distinct_leaves(centers, radii) -> tuple[np.ndarray, np.ndarray]:
    """The leaves (centre, radius) of each row along the last axis, the two
    widest at each centre, sorted and padded to the widest row with dropped
    leaves; two passes of ``_PASS_ROWS`` leaves at a time.  Leaves at one
    centre are at one distance from every point and rounding is monotone,
    so a dropped leaf's disk or oval has no larger margin than a kept one's
    of wider radii; no such margin is -0.0, so every union's slack, a
    zero's sign included, is unchanged."""
    count = centers.shape[-1]
    rows = centers.reshape(-1, count), radii.reshape(-1, count)
    step = max(1, _PASS_ROWS // max(count, 1))
    blocks, width = [slice(lo, lo + step) for lo in range(0, len(rows[0]), step)], 0
    for block in blocks:
        last = _sorted_leaves(rows[0][block], rows[1][block])
        width = max(width, count - int(last[2].sum(axis=-1).min()))
    if width == count:
        return centers, radii
    out = np.empty((len(rows[0]), width), centers.dtype), np.empty((len(rows[0]), width))
    for block in blocks:  # a lone block is sorted once
        *leaves, third = last if len(blocks) == 1 else _sorted_leaves(rows[0][block], rows[1][block])
        order = np.argsort(third, axis=-1, kind="stable")[:, :width]  # the kept first
        for part, leaf in zip(out, leaves):
            part[block] = np.take_along_axis(leaf, order, -1)
    return tuple(part.reshape(centers.shape[:-1] + (width,)) for part in out)


def _sorted_leaves(centers, radii) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's centres and radii sorted by (centre, radius), and where
    each leaf has two leaves after it, at least as wide, at its centre."""
    if np.iscomplexobj(centers):
        order = np.lexsort((radii, centers.imag, centers.real))
        centers, radii = np.take_along_axis(centers, order, -1), np.take_along_axis(radii, order, -1)
    else:  # one sort of a complex key, far cheaper than a lexsort
        key = np.empty(centers.shape, complex)
        key.real, key.imag = centers, radii
        key.sort(axis=-1)
        centers, radii = key.real, key.imag
    same = centers[:, 1:] == centers[:, :-1]
    third = np.zeros(centers.shape, bool)
    third[:, :-2] = same[:, 1:] & same[:, :-1]
    return centers, radii, third


def _bounded_slacks(z, anchors, radii, padded, kind: int, rows, count: int) -> np.ndarray:
    """Branch and bound over the (component, point) pairs of a region whose
    unions have ``count`` rows of disks or ovals (``kind``), and gamma's
    point where it has one, in at most two passes of ``_PASS_ROWS`` rows:
    the (component x point) table of the unions' slacks, inf where left.

    Each component's top leaf (the disk of its largest radius in ``radii``,
    the oval of its two largest) is a row of its union and rounds like it,
    so its margin bounds the union's slack from below (-inf past the float
    range, never NaN).  Pass 1 takes every component at the point of least
    bound, pass 2 every other pair whose bound is at most pass 1's least b.
    A pair left is above b, so above the region's least: the table holds
    every pair at the least, and every zero where the least is zero.
    """
    n, step = len(anchors), max(1, _PASS_ROWS // count)
    slacks = np.full((n, len(z)), np.inf)
    # every component's bounds at once where they fit in one pass
    bounds = _products(padded, *rows) if n * count <= _PASS_ROWS else None

    def visit(comps: np.ndarray, points: np.ndarray) -> None:
        for lo in range(0, len(comps), step):
            c, p = comps[lo : lo + step], points[lo : lo + step]
            part = _products(padded[c], *rows) if bounds is None else bounds[c]
            slacks[c, p] = _union_slack(_margins(_reach(z[p], anchors[c]), *rows, part))

    # each component's largest radius, or two largest (a disk's kind is 0, an oval's 1)
    top = np.arange(n)[:, None], np.argsort(radii, axis=1)[:, -1 - kind :]
    pair = [0], [kind or -1]  # the top oval's foci, or the disk's centre and the 1.0
    largest = _products(_padded(radii[top], False), *pair)[:, None]
    lower = _margins(_reach(z, anchors[top][:, None]), *pair, largest)[..., 0]
    visit(np.arange(n), np.full(n, np.unravel_index(lower.argmin(), lower.shape)[1]))
    # a union's slack at a finite point is never inf: inf is a pair not visited
    visit(*np.nonzero((slacks == np.inf) & (lower <= slacks.min())))
    return slacks


# rows of margins in one table operation: a block of points, or of
# (component, point) pairs of a region, holds at most so many
_PASS_ROWS = 2**14


def real_section(region: Region) -> RealSection:
    """The region's intersection with the real axis as intervals + points.

    Disks section analytically and ovals in closed form, every leaf of an
    intersection's unions at once (see :meth:`_LeafTable.section`); the
    sections combine by interval algebra, where a point of one union within
    ``_NEAR_AXIS`` of another's section survives.  Tangent disks keep their
    zero-width interval, and distinct isolated points stay distinct.
    """
    return region.section()


def region_to_json(region: Region) -> dict:
    """Nested dict form: union/intersection nodes plus disk/oval/points leaves."""
    return region.to_json()


# ---------------------------------------------------------------------------
# complex-matrix plumbing


def _as_matrix(matrix, dtype=complex) -> np.ndarray:
    a = np.asarray(matrix, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix of dimension >= 1, got shape {a.shape}")
    return a


def _finite_matrix(matrix) -> np.ndarray:
    a = _as_matrix(matrix)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def constant_row_sum(matrix) -> complex | None:
    """The common row sum when all rows agree within tolerance, else None.

    The tolerance is ``1e-9 * min(max_i sum_j |a_ij|, 1 + max |row sum|)``:
    graph matrices are exact while user matrices may carry float noise, and
    a matrix near zero is held to its own magnitude.  Agreement is measured
    as the maximum pairwise deviation between row sums.  A NaN or infinite
    entry raises ValueError.
    """
    return _row_sums_gamma(_finite_matrix(matrix)[None])[0]


class RegionUnavailable(ValueError):
    """A region (or :func:`deflate`) needs a constant row sum or a larger matrix."""


_NO_ROW_SUM = "matrix does not have a constant row sum within tolerance"


def _row_sums_gamma(a: np.ndarray) -> list:
    """:func:`constant_row_sum` of each of the (k, n, n) stack ``a``, which a
    NaN or infinite entry makes NaN or infinite rather than refused (and its
    tolerance infinite or NaN).  The complex and the absolute row sums take a
    few rows at a time; the largest pairwise deviation of real ones is fl(max - min)."""
    k, n = a.shape[:2]
    step = max(1, _PASS_ROWS // (k * n))  # rows of every matrix a cast
    chunks = [a[:, lo : lo + step] for lo in range(0, n, step)]
    with np.errstate(over="ignore", invalid="ignore"):  # regions reject a sum that overflows
        sums = np.concatenate([chunk.astype(complex).sum(axis=-1) for chunk in chunks], axis=-1)
        norm = np.concatenate([np.abs(chunk).sum(axis=-1) for chunk in chunks], axis=-1).max(axis=-1)
        tol = 1e-9 * np.minimum(norm, 1.0 + np.abs(sums).max(axis=-1))
        if np.iscomplexobj(a):
            deviation = np.abs(sums[:, :, None] - sums[:, None, :]).max(axis=(-2, -1))
        else:
            deviation = sums.real.max(axis=-1) - sums.real.min(axis=-1)
        mean = sums.mean(axis=-1).tolist()
    return [None if d > t else mean[k] for k, (d, t) in enumerate(zip(deviation.tolist(), tol.tolist()))]


@np.errstate(over="ignore", invalid="ignore")  # the builders refuse inf and NaN
def _deflation_tables(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:attr:`MatrixFacts.deflation_table` of each of the (k, n, n) stack
    ``a``, read-only (k, n, n - 1).  A real matrix whose entries off the
    diagonal are all 0 or one finite v, as a graph matrix's are, counts on
    its 0/1 pattern P there: of the terms |a_kl - a_il|, c_ik = d_i + d_k -
    2(PP^T)_ik - P_ik - P_ki are |v| and the rest +0.0, so its radius is c_ik
    copies of |v| added in order from +0.0 (inf past the float range).
    PP^T, made once per pattern, sums integers below 2^53 exactly.  Others
    take :func:`_generic_radii`."""
    k, n = a.shape[:2]
    off = np.flatnonzero(~np.eye(n, dtype=bool))  # each row's entries k != i
    # take, unlike [:, off], keeps a stack of more than one C-ordered
    centers = (a.diagonal(0, -2, -1)[:, None, :] - a).reshape(k, n * n).take(off, axis=1)
    radii, counts, two = np.empty(centers.shape), {}, np.zeros(k, bool)  # c_ik over k != i, by pattern
    if not np.iscomplexobj(a):  # which matrices are two-valued, all at once
        entries = a.reshape(k, n * n).take(off, axis=1)
        lo, hi = entries.min(axis=1, initial=0.0), entries.max(axis=1, initial=0.0)
        # v = lo + hi; one of them is 0 unless the matrix has entries of both signs
        v, pattern = lo + hi, entries != 0.0
        two = ((lo == 0.0) | (hi == 0.0)) & np.isfinite(v) & (~pattern | (entries == v[:, None])).all(axis=1)
    for m in np.flatnonzero(two).tolist():
        if (key := pattern[m].tobytes()) not in counts:
            p = np.zeros((n, n))
            p.flat[off] = pattern[m]
            d = p.sum(axis=1)
            counts[key] = (d[:, None] + d - p - p.T - 2.0 * (p @ p.T)).take(off).astype(np.intp)
        radii[m] = np.add.accumulate(np.append(0.0, np.full(n, abs(v[m])))).take(counts[key])
    if generic := np.flatnonzero(~two).tolist():
        rows = generic if len(generic) < k else slice(None)  # the whole stack as a view
        radii[rows] = _generic_radii(a[rows]).reshape(len(generic), n * n).take(off, axis=1)
    table = tuple(part.reshape(k, n, n - 1) for part in (centers, radii))
    for column in table:
        column.flags.writeable = False
    return table


def _generic_radii(a: np.ndarray) -> np.ndarray:
    """The deflation radii [matrix, i, k] of the (k, n, n) stack ``a``: the
    terms [l, matrix, i, k], the skipped ones +0.0, a chunk of l at a time
    behind the running sums, reduced in order along the leading axis; the
    caller ignores overflow and invalid values, as :func:`_deflation_tables` does."""
    k, n = a.shape[:2]
    step = max(1, _PASS_ROWS // (k * n * n) - 1)  # terms of l a chunk
    terms = np.zeros((min(step, n) + 1, k, n, n))
    radii = np.zeros((k, n, n))
    for lo in range(0, n, step):
        l = np.arange(lo, min(lo + step, n))
        chunk, column = terms[: len(l) + 1], a.transpose(2, 0, 1)[l]
        chunk[0] = radii
        _distance(column[..., None, :], column[..., None], chunk[1:])  # |a_kl - a_il|
        chunk[1 + np.arange(len(l)), :, l] = 0.0
        chunk[1 + np.arange(len(l)), :, :, l] = 0.0
        np.add.reduce(chunk, axis=0, out=radii)
    return radii


class MatrixFacts:
    """A stack of k square matrices of one size, the (k, n, n) array
    ``matrix``, and what the four builders and :func:`stack_least_slacks`
    read of them, each fact made for all k on first read and then kept, by
    one array pass that takes each matrix's numbers in the order its own
    pass would, so that they are each matrix's own bit for bit in any stack.
    ``MatrixFacts(matrix)`` is a stack of one, as each builder makes of
    its matrix."""

    def __init__(self, *matrices) -> None:
        arrays = [_as_matrix(m, complex if np.iscomplexobj(m) else float) for m in matrices]
        if not arrays:
            raise ValueError("a stack needs at least one matrix")
        if len({a.shape for a in arrays}) > 1:
            raise ValueError("the matrices of a stack must have one shape")
        # every graph matrix is real: a distance is then one subtraction and
        # one abs, bit for bit the complex one since hypot(x, 0) is |x|
        self.matrix = np.stack([a if np.iscomplexobj(a) and a.imag.any() else a.real for a in arrays])

    @functools.cached_property
    def gamma(self) -> list:
        """Each matrix's :func:`constant_row_sum`, NaN or infinite where an
        entry is: the builders refuse it as a region parameter."""
        return _row_sums_gamma(self.matrix)

    @functools.cached_property
    def deleted_row_sums(self) -> np.ndarray:
        """r_i = sum over j != i of |a_ij|, for each row i of each matrix,
        read-only (k, n)."""
        with np.errstate(over="ignore", invalid="ignore"):  # the builders refuse inf and NaN
            r = np.abs(self.matrix).sum(axis=-1) - np.abs(self.matrix.diagonal(0, -2, -1))
        r.flags.writeable = False
        return r

    @functools.cached_property
    def deflation_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Disk centres and radii of every deflation of each matrix,
        read-only (k, n, n - 1) arrays.

        Row [m, i] lists, for k != i in ascending order, matrix m's centre
        ``a_kk - a_ik`` and radius ``sum over l not in {i, k} of |a_kl - a_il|``:
        the terms [l, i, k], the skipped ones +0.0, added in order from +0.0,
        as Python's ``sum`` adds them (see :func:`_deflation_tables`).
        """
        return _deflation_tables(self.matrix)

    def _shape(self, method: str) -> tuple[int, bool]:
        """The leaf kind of the region of ``method`` (a CLI name, e.g.
        "rowsum-brauer") and whether it is deflated; RegionUnavailable where
        n is too small for it."""
        if method not in METHODS:
            raise ValueError(f"unknown region method {method!r}; expected one of {METHODS}")
        kind, deflated = _METHOD_SHAPES[method]
        if self.matrix.shape[1] < 1 + kind + deflated:  # an oval and a deflation take one each
            shape = "deflated " * deflated + ("disk", "oval")[kind]
            raise RegionUnavailable(f"the {shape} region needs dimension >= {1 + kind + deflated}")
        return kind, deflated

    def sources(self, deflated: bool, at: list[int]) -> tuple:
        """The centres, radii and gamma (None for the classical regions) of
        the regions of the matrices ``at``, along a leading axis and then a
        component axis (of one, classical), as :func:`_least_slacks` reads
        them; gamma real where the stack is.
        Matrices next to each other in the stack give views of its tables,
        not copies."""
        rows = slice(at[0], at[-1] + 1) if at == list(range(at[0], at[-1] + 1)) else at
        if not deflated:
            diagonal = np.ascontiguousarray(self.matrix.diagonal(0, -2, -1)[rows, None])
            return diagonal, self.deleted_row_sums[rows, None], None
        gamma = np.array([self.gamma[i] for i in at])
        centers, radii = self.deflation_table
        return centers[rows], radii[rows], gamma if np.iscomplexobj(self.matrix) else gamma.real


def stack_least_slacks(facts: MatrixFacts, points, methods) -> list[dict[str, float]]:
    """For each matrix of the stack ``facts``, the least slack of each of
    ``methods`` whose region exists for it over its own row of ``points``
    (one row per matrix, of one length): the least of
    :func:`region_slack_grid` of the builder's region there, bit for bit,
    from one pass for the whole stack
    (:func:`_least_slacks`, one table of distances for the classical regions
    of every matrix and one for the row-sum regions of those with a constant
    row sum).

    A ValueError is one that a matrix of the stack raises alone, in a
    builder's words or the pass's own: points that are not one row per
    matrix, of one length, first, then each group's parameters, then the
    points.  A stack of one refuses in its builders' order.
    """
    k = len(facts.matrix)
    points = _array(points)
    if (rows := len(points) if points.ndim else 0) != k:
        raise ValueError(f"points must be one row per matrix: got {rows} rows for a stack of {k}")
    shapes = {}  # each method's (leaf kind, deflated), of the regions that the dimension allows
    for method in methods:
        with contextlib.suppress(RegionUnavailable):
            shapes[method] = facts._shape(method)
    # a group: the methods of one table, classical or row-sum, and its
    # matrices; gamma is read only where a row-sum region is asked for
    classical, rowsum = ([m for m, shape in shapes.items() if shape[1] == side] for side in (False, True))
    groups = [(False, classical, list(range(k)))] if classical else []
    if rowsum and (members := [at for at, gamma in enumerate(facts.gamma) if gamma is not None]):
        groups.append((True, rowsum, members))
    tables = [facts.sources(deflated, members) for deflated, _, members in groups]
    # an oval refuses all that a disk of the same radii refuses, in its words
    for (_, group, _), (centers, radii, gamma) in zip(groups, tables):
        _check_source(centers, radii, max(shapes[m][0] for m in group), gamma)
    z = _points(points, k)
    least = [{} for _ in range(k)]
    for (_, group, members), (centers, radii, gamma) in zip(groups, tables):
        slacks = _least_slacks(z[members], centers, radii, gamma, [shapes[m][0] for m in group])
        for method, per_matrix in zip(group, slacks):
            for at, (slack, _) in zip(members, per_matrix):
                least[at][method] = float(slack)
    return [{m: found[m] for m in shapes if m in found} for found in least]


# each region method's leaf kind and whether it is deflated (a row-sum region)
_METHOD_SHAPES = {"gersgorin": (_DISK, False), "brauer": (_OVAL, False),
                  "rowsum-gersgorin": (_DISK, True), "rowsum-brauer": (_OVAL, True)}
METHODS = tuple(_METHOD_SHAPES)


def deflate(matrix, k: int) -> np.ndarray:
    """Deflated matrix of dimension n-1 for a constant-row-sum matrix.

    Entry (u, v) of the result is ``a_uv - a_kv`` for u, v ranging over the
    indices other than ``k`` (1-based), an integer or an integral float;
    any other ``k`` raises ValueError.  The spectrum of the input equals
    the row sum plus the spectrum of the result, as multisets.
    """
    a = _finite_matrix(matrix)
    if constant_row_sum(a) is None:
        raise RegionUnavailable(_NO_ROW_SUM)
    n, k = a.shape[0], _integer(k, "deflation index")
    if n < 2:
        raise ValueError("cannot deflate a 1x1 matrix")
    if not (1 <= k <= n):
        raise ValueError(f"deflation index {k} out of range 1..{n}")
    keep = [u for u in range(n) if u != k - 1]
    return a[np.ix_(keep, keep)] - a[k - 1, keep][None, :]


# ---------------------------------------------------------------------------
# the four inclusion regions


def _anchors(centers: np.ndarray, gamma) -> np.ndarray:
    """The centres, then gamma (an array of one per matrix of a stack) as one
    more column where given."""
    if gamma is None:
        return centers
    gamma = np.asarray(gamma)
    anchors = np.empty(centers.shape[:-1] + (centers.shape[-1] + 1,), np.result_type(centers, gamma))
    anchors[..., :-1] = centers
    anchors[..., -1] = gamma[..., None]
    return anchors


def _rows(count: int, kind: int, stacked: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each leaf row's anchors (first, second) over ``count`` centres: disks
    (k, -1) or ovals (j, k), j < k in the order of combinations(); stacked,
    then the point gamma (count, -1)."""
    if kind == _DISK:
        first, second = np.arange(count), np.full(count, -1)
    else:
        first, second = np.nonzero(np.arange(count)[:, None] < np.arange(count))
    if stacked:
        return np.append(first, count), np.append(second, -1)
    return first, second


def _padded(radii: np.ndarray, stacked: bool) -> np.ndarray:
    """The radii along the last axis, then -0.0 for gamma where stacked and
    an exact 1.0, so that ``_products(padded, *rows)`` are the rows' bounds."""
    count = radii.shape[-1]
    padded = np.empty(radii.shape[:-1] + (count + 1 + stacked,))
    padded[..., :count] = radii
    padded[..., count:] = (-0.0, 1.0) if stacked else 1.0
    return padded


def _check_source(centers, radii, kind: int, gamma=None) -> None:
    """Refuse, with ValueError, parameters no leaf accepts: a NaN or infinite
    centre, radius, radius product or gamma, then foci too far apart; of
    one matrix, or of every matrix of a stack along a leading axis."""
    if kind == _OVAL:
        # each component's largest product, of its two largest radii, which
        # is not finite if any radius is not
        with np.errstate(over="ignore", invalid="ignore"):
            radii = np.sort(radii, axis=-1)[..., -2:].prod(axis=-1)
    if not (np.isfinite(centers).all() and np.isfinite(radii).all()
            and (gamma is None or np.isfinite(gamma).all())):
        raise ValueError("region parameters must be finite; the matrix has a NaN or "
                         "infinite entry or its row sums overflow")
    # foci closer to the origin than 2**1021 are less than 2**1023 apart
    if kind == _OVAL and np.abs(centers.view(float)).max() >= 2.0**1021:
        first, second = _rows(centers.shape[-1], kind, False)
        with np.errstate(over="ignore"):
            apart = _distance(centers[..., first], centers[..., second],
                              np.empty(centers.shape[:-1] + first.shape))
        if not np.isfinite(apart).all():
            raise ValueError(_TOO_FAR)


def _region(matrix, method: str):
    """The builders' region of ``method`` of a matrix."""
    facts = MatrixFacts(matrix)
    if _METHOD_SHAPES[method][1] and facts.gamma[0] is None:
        raise RegionUnavailable(_NO_ROW_SUM)
    kind, deflated = facts._shape(method)
    centers, radii, gamma = (None if part is None else part[0] for part in facts.sources(deflated, [0]))
    return _table_region(centers, radii, kind, gamma)


def _table_region(centers, radii, kind: int, gamma: complex | None = None):
    """The union of the disks (centre k, radius r_k) or the ovals (foci
    j < k in the order of combinations(), radius product r_j r_k), made
    from one leaf table; given gamma, the intersection of such a union with
    the point gamma for each row of a leading deflation axis, each union's
    table a view of that row."""
    _check_source(centers, radii, kind, gamma)
    stacked = gamma is not None
    first, second = _rows(centers.shape[-1], kind, stacked)
    kinds = (kind,) * (len(first) - stacked) + (_POINT,) * stacked
    anchors = _anchors(centers, gamma).astype(complex)
    bounds = _products(_padded(radii, stacked), first, second)
    unions = tuple(RegionUnion._from_table(_LeafTable(a, first, second, b, kinds)) for a, b in zip(
        anchors.reshape(-1, anchors.shape[-1]), bounds.reshape(-1, bounds.shape[-1])))
    return RegionIntersection(unions) if stacked else unions[0]


def gersgorin_region(matrix) -> RegionUnion:
    """Union of the n disks centred at a_ii with radius r_i."""
    return _region(matrix, "gersgorin")


def brauer_region(matrix) -> RegionUnion:
    """Union of the n(n-1)/2 ovals with foci (a_ii, a_jj) and product r_i r_j."""
    return _region(matrix, "brauer")


def rowsum_gersgorin_region(matrix) -> RegionIntersection:
    """Intersection over deflation rows i of the deflated disk unions.

    Component i is the union over k != i of the disk centred at
    ``a_kk - a_ik`` with radius ``sum over j not in {i, k} of |a_kj - a_ij|``
    (the entries of the i-deflated matrix), together with the forced
    eigenvalue gamma as a point leaf.
    """
    return _region(matrix, "rowsum-gersgorin")


def rowsum_brauer_region(matrix) -> RegionIntersection:
    """Intersection over deflation rows i of the deflated oval unions.

    Component i is the union over unordered pairs {j, k} of the remaining
    indices of the oval with foci ``a_jj - a_ij`` and ``a_kk - a_ik`` and
    radius product ``r_j * r_k`` where ``r_j = sum over l not in {i, j} of
    |a_jl - a_il|``, plus the forced eigenvalue gamma as a point leaf.
    """
    return _region(matrix, "rowsum-brauer")


# ---------------------------------------------------------------------------
# JSON interchange


def _json_number(value) -> float:
    if type(value) in (float, int):  # the JSON parser's own types, past the ABC check
        return float(value)
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
        values = [(cell["re"], cell["im"]) for row in entries for cell in row]
        # the JSON parser's own number types; a bool is not a number
        if not {float, int}.issuperset(map(type, itertools.chain.from_iterable(values))):
            raise TypeError("a cell holds a value that is not a number")
        parts = np.array(values, dtype=float).reshape(n, n, 2)
        # the parts are set one by one: re + 1j * im would turn a real -0.0 into +0.0
        a = np.empty((n, n), dtype=complex)
        a.real, a.imag = parts[..., 0], parts[..., 1]
    except (TypeError, KeyError, OverflowError):
        raise ValueError("matrix cells must be {'re': number, 'im': number}") from None
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a
