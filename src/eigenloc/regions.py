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

Underneath the tree, each union keeps a leaf table: the parameters of its
disks, ovals and points as arrays, so that its slack is one (points x
leaves) numpy pass and an intersection's is one such pass per component,
and an intersection sections the leaves of all its components at once.
The four builders fill the tables with array arithmetic and make no leaf
objects; a builder's union makes its ``children`` from its table when they
are first read.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import numbers
from dataclasses import dataclass
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
    "RegionUnavailable",
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
# region tree


def _distance(z, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|z - c| into ``out``, as np.hypot of the parts, which rounds like
    Python's abs(complex) (numpy's complex abs may not).  Where every
    imaginary part of z - c is zero that is |Re(z - c)| exactly (hypot(x, 0)
    is |x|, C99 Annex F), so the far slower hypot is skipped."""
    dx = z.real - c.real
    dy = z.imag - c.imag
    if np.count_nonzero(dy):
        return np.hypot(dx, dy, out=out)
    return np.abs(dx, out=out)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


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
        """Leaf objects in row order, a point set for each point."""
        anchors = self.anchors.tolist()
        made: list[Region] = []
        for kind, a, b, bound in zip(
            self.kinds, self.first.tolist(), self.second.tolist(), self.bounds.tolist()
        ):
            if kind == _DISK:
                made.append(Disk(anchors[a], bound))
            elif kind == _OVAL:
                made.append(CassiniOval(anchors[a], anchors[b], bound))
            else:
                made.append(PointSet((anchors[a],)))
        return tuple(made)

    def slack(self, z):
        z = np.asarray(z)
        reach = np.empty(z.shape + (len(self.anchors) + 1,))
        reach[..., -1] = 1.0
        _distance(z[..., None], self.anchors, reach[..., :-1])
        margin = reach[..., self.first]
        margin *= reach[..., self.second]
        np.subtract(self.bounds, margin, out=margin)
        slack = np.maximum.reduce(margin, axis=-1, initial=-np.inf)
        for node in self.nested:
            slack = np.maximum(slack, node.slack(z))
        return slack

    def section(self, tol: float) -> RealSection:
        """The union's real section: disks in closed form, points within
        ``tol`` of the axis, and each oval where ``q(x) = |x-a|^2 |x-b|^2 - p^2``
        is <= 0, cut at the real roots of q and q'.

        A point where an oval only touches the axis (a double root of q) and
        the real point of each focus are kept as isolated points when their
        slack is at least ``-tol``; the foci keep a lobe too narrow for the
        quartic to resolve at their magnitude.
        """
        return _sections([self], tol)[0]


def _sections(tables: list[_LeafTable], tol: float) -> list[RealSection]:
    """:meth:`_LeafTable.section` of each table, all tables' rows at once."""
    owner = np.repeat(np.arange(len(tables)), [len(t.kinds) for t in tables])
    kinds = np.array([kind for t in tables for kind in t.kinds], dtype=int)
    at = np.concatenate([t.anchors[t.first] for t in tables])
    bound = np.concatenate([t.bounds for t in tables])
    disk = np.flatnonzero(kinds == _DISK)
    with np.errstate(over="ignore"):  # a radius past 1e154 sections to the whole axis
        gap = bound[disk] * bound[disk] - at[disk].imag * at[disk].imag
    disk, half = disk[gap >= 0.0], np.sqrt(gap[gap >= 0.0])
    point = np.flatnonzero((kinds == _POINT) & (np.abs(at.imag) <= tol))
    # the rows, low and high ends of the intervals, then the rows and values
    # of the isolated points
    pieces = [(disk, at[disk].real - half, at[disk].real + half, point, at[point].real)]
    oval = np.flatnonzero(kinds == _OVAL)
    if len(oval):
        to = np.concatenate([t.anchors[t.second] for t in tables])[oval]
        span, low, high, mark, x = _oval_sections(at[oval], to, bound[oval], tol)
        pieces.append((oval[span], low, high, oval[mark], x))
    spans, lows, highs, marks, xs = (np.concatenate(part) for part in zip(*pieces))
    spans, marks = owner[spans], owner[marks]
    sections = []
    for k, table in enumerate(tables):
        intervals = list(zip(lows[spans == k].tolist(), highs[spans == k].tolist()))
        isolated = xs[marks == k].tolist()
        for node in table.nested:
            nested = node.section(tol)
            intervals += nested.intervals
            isolated += nested.isolated_points
        sections.append(_normalized_section(intervals, isolated, tol))
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


def _oval_sections(a, b, p, tol: float):
    """The real sections of the ovals with foci ``a``, ``b`` and radius
    products ``p``: each interval's oval, low and high end, then each
    isolated point's oval and value, as arrays."""
    a, b, p = a[:, None], b[:, None], p[:, None]
    feet = np.hstack([a.real, b.real])
    kept = p - np.hypot(feet - a.real, a.imag) * np.hypot(feet - b.real, b.imag) >= -tol
    live = np.flatnonzero(p != 0.0)
    a, b, p = a[live], b[live], p[live]
    # q(y) = |y-u|^2 |y-v|^2 - p^2, a real quartic that is negative inside the
    # oval, with y = (x - s) / scale measured from the centre so that no
    # coefficient cancels against the foci's distance from the origin, and
    # in units of the oval's size so that none overflows; scale is a power
    # of two, so dividing by it is exact
    s = 0.5 * (a.real + b.real)
    size = np.maximum(np.hypot(a.real - s, a.imag), np.hypot(b.real - s, b.imag))
    scale = np.ldexp(1.0, np.frexp(np.maximum(size, np.sqrt(p)))[1])
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
    spacing = np.divide(-2.0 * g, curvature, out=np.full_like(g, np.nan), where=g * curvature < 0.0)
    half = np.sqrt(spacing)
    rescued = np.stack([critical, critical - half, critical + half], -1).reshape(len(p), 9)
    ends = np.sort(np.hstack([roots, rescued]), axis=1, kind="stable")
    left, right = ends[:, :-1], ends[:, 1:]
    inside = (left < right) & (spread(0.5 * (left + right)) <= p)
    # a tangency is a double root of q but a simple root of q'
    tangent = p - spread(critical) >= -tol / scale / scale
    return (
        live[np.nonzero(inside)[0]], (s + scale * left)[inside], (s + scale * right)[inside],
        np.concatenate([np.nonzero(kept)[0], live[np.nonzero(tangent)[0]]]),
        np.concatenate([feet[kept], (s + scale * critical)[tangent]]),
    )


class _Leaf:
    """Slack and section are those of a table of the leaf alone; extent()
    bounds the leaf's drawing."""

    def slack(self, z):
        return _LeafTable.of((self,)).slack(z)

    def section(self, tol: float) -> RealSection:
        return _LeafTable.of((self,)).section(tol)

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
    ``children``.  A builder's union starts from its table instead and makes
    ``children`` from it when they are first read.
    """

    children: tuple["Region", ...]
    _op = "union"

    @classmethod
    def _from_table(cls, table: _LeafTable) -> "RegionUnion":
        union = object.__new__(cls)
        object.__setattr__(union, "_table", table)
        return union

    def __getattr__(self, name: str):
        # only reached when normal lookup fails: a table-made union's children
        if name != "children" or "_table" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        children = self._table.leaves()
        object.__setattr__(self, "children", children)
        return children

    def __post_init__(self) -> None:
        object.__setattr__(self, "_table", _LeafTable.of(self.children))

    def slack(self, z):
        return self._table.slack(z)

    def section(self, tol: float) -> RealSection:
        return self._table.section(tol)


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

    def section(self, tol: float) -> RealSection:
        if not self.children:
            return RealSection((), ())
        # the children's tables, a union's own or one holding the child
        tables = [getattr(c, "_table", None) or _LeafTable.of((c,)) for c in self.children]
        return functools.reduce(
            functools.partial(self._section_op, tol=tol), _sections(tables, tol)
        )

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
    holds one (points x its leaves) array at a time."""
    return region.slack(np.asarray(zs, dtype=complex))


def real_section(region: Region, tol: float = 1e-9) -> RealSection:
    """The region's intersection with the real axis as intervals + points.

    Disks section analytically and ovals in closed form, every leaf of an
    intersection's unions at once (see :meth:`_LeafTable.section`); the
    sections combine by interval algebra.  ``tol`` also controls how close
    to the axis a point leaf must be to count as real and how point
    matching behaves under intersection.  Tangent disks keep their
    zero-width interval.
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


class RegionUnavailable(ValueError):
    """A region (or :func:`deflate`) needs a constant row sum or a larger matrix."""


def _require_gamma(matrix) -> tuple[np.ndarray, complex]:
    a = _as_matrix(matrix)
    gamma = constant_row_sum(a)
    if gamma is None:
        raise RegionUnavailable("matrix does not have a constant row sum within tolerance")
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


def _require_finite(*arrays) -> None:
    # a NaN or infinite entry, or an overflow, is a parameter no leaf accepts
    if not all(np.isfinite(x).all() for x in arrays):
        raise ValueError("region parameters must be finite; the matrix has a NaN or "
                         "infinite entry or its row sums overflow")


def _deflated_leaves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Disk centres and radii of every deflation, shape (n, n - 1) each.

    Row i lists, for k != i in ascending order, the centre ``a_kk - a_ik``
    and the radius ``sum over l not in {i, k} of |a_kl - a_il|``.  The sum
    runs left to right over l, with the skipped terms added as +0.0, so it
    rounds exactly like Python's ``sum`` over the same terms.
    """
    n = a.shape[0]
    radii = np.zeros((n, n))
    term = np.empty((n, n))
    for l in range(n):
        _distance(a[None, :, l], a[:, l, None], term)  # [i, k] = |a_kl - a_il|
        term[l, :] = 0.0
        term[:, l] = 0.0
        radii += term
    centers = a.diagonal()[None, :] - a
    off = ~np.eye(n, dtype=bool)
    return centers[off].reshape(n, n - 1), radii[off].reshape(n, n - 1)


def _deflation_components(anchors, first, second, bounds, kind: int, gamma: complex):
    """Intersection over i of the union of the leaves of one ``kind`` with row
    i of ``anchors`` and ``bounds`` (``first`` and ``second`` are shared)
    and the point gamma."""
    n, count = anchors.shape
    anchors = np.column_stack([anchors, np.full(n, gamma)])
    bounds = np.column_stack([bounds, np.full(n, -0.0)])
    first, second = np.append(first, count), np.append(second, -1)
    kinds = (kind,) * (len(first) - 1) + (_POINT,)
    return RegionIntersection(tuple(
        RegionUnion._from_table(_LeafTable(anchors[i], first, second, bounds[i], kinds))
        for i in range(n)
    ))


def gersgorin_region(matrix) -> RegionUnion:
    """Union of the n disks centred at a_ii with radius r_i."""
    a = _as_matrix(matrix)
    n = a.shape[0]
    centers, radii = a.diagonal().copy(), deleted_row_sums(a)
    _require_finite(centers, radii)
    return RegionUnion._from_table(
        _LeafTable(centers, np.arange(n), np.full(n, -1), radii, (_DISK,) * n)
    )


def brauer_region(matrix) -> RegionUnion:
    """Union of the n(n-1)/2 ovals with foci (a_ii, a_jj) and product r_i r_j."""
    a = _as_matrix(matrix)
    n = a.shape[0]
    if n < 2:
        raise RegionUnavailable("the oval region needs dimension >= 2")
    foci, r = a.diagonal().copy(), deleted_row_sums(a)
    i, j = np.triu_indices(n, 1)  # the pairs i < j in the order of combinations()
    products = r[i] * r[j]
    _require_finite(foci, products)
    return RegionUnion._from_table(_LeafTable(foci, i, j, products, (_OVAL,) * len(i)))


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
        raise RegionUnavailable("the deflated disk region needs dimension >= 2")
    centers, radii = _deflated_leaves(a)
    _require_finite(centers, radii, gamma)
    return _deflation_components(
        centers, np.arange(n - 1), np.full(n - 1, -1), radii, _DISK, gamma
    )


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
        raise RegionUnavailable("the deflated oval region needs dimension >= 3")
    centers, radii = _deflated_leaves(a)
    j, k = np.triu_indices(n - 1, 1)  # the pairs in the order of combinations()
    products = radii[:, j] * radii[:, k]
    _require_finite(centers, products, gamma)
    return _deflation_components(centers, j, k, products, _OVAL, gamma)


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
