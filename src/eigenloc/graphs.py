"""Simple undirected graphs, named families, and their spectral matrices.

Vertices are labelled 1..n in all public interfaces.  Graphs are immutable
after construction and safe to share across threads.  Adjacency is stored
as one integer bitmask per vertex, which keeps degree / common-neighbour
queries exact and cheap even when a test corpus enumerates millions of
small graphs.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "DegreeProfile",
    "GraphMatrixKind",
    "StructureReport",
    "parse_edge_list",
    "generate",
    "degrees",
    "common_neighbors",
    "randic_index",
    "build_matrix",
    "classify",
    "graph_to_json",
    "graph_from_json",
    "FAMILY_NAMES",
    "MAX_VERTICES",
]

# largest vertex count a graph may have, and the Jacobi oracle's dimension cap
MAX_VERTICES = 2048


class GraphMatrixKind(Enum):
    """Which of the three graph matrices to build."""

    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    NORMALIZED_ADJACENCY = "normalized"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertex labels 1..n.

    ``edges`` holds unordered pairs normalised as ``(u, v)`` with ``u < v``.
    No self-loops, no multi-edges.  ``n`` and every label must be builtin
    ints (not bools); :meth:`from_edges` and the parsing / generator helpers
    normalise and convert other input.  ``degree_sequence`` holds the
    degrees of vertices 1..n in order, computed once at construction.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    degree_sequence: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"vertex count must be a positive builtin int (see "
                             f"Graph.from_edges), got {self.n!r}")
        if self.n > MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} exceeds the {MAX_VERTICES} cap")
        adj = [0] * (self.n + 1)
        for e in self.edges:
            u, v = e
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge {e!r} needs builtin int labels (see Graph.from_edges)")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge {e} has an endpoint outside 1..{self.n}")
            if u > v:
                raise ValueError(f"edge {e} is not normalised as (min, max)")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "_adj", tuple(adj))
        object.__setattr__(self, "degree_sequence", tuple(mask.bit_count() for mask in adj[1:]))

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an iterable of 1-based pairs.

        Duplicate edges (in either orientation) are merged silently;
        self-loops and labels that are not integers are rejected.
        """
        seen: set[tuple[int, int]] = set()
        for u, v in pairs:
            if type(u) is not int or type(v) is not int:
                u, v = _integer(u, "edge label"), _integer(v, "edge label")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            seen.add((u, v) if u < v else (v, u))
        return cls(n=_integer(n, "vertex count"), edges=frozenset(seen))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def neighbors_mask(self, i: int) -> int:
        """Bitmask of the open neighbourhood of vertex ``i`` (bit v set iff i~v)."""
        self._check_vertex(i)
        return self._adj[i]  # type: ignore[attr-defined]

    def degree(self, i: int) -> int:
        self._check_vertex(i)
        return self.degree_sequence[i - 1]

    def has_edge(self, i: int, j: int) -> bool:
        self._check_vertex(i)
        self._check_vertex(j)
        return bool(self._adj[i] >> j & 1)  # type: ignore[attr-defined]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def _check_vertex(self, i: int) -> None:
        if not (1 <= i <= self.n):
            raise ValueError(f"vertex {i} out of range 1..{self.n}")


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degrees plus the aggregates the bound formulas consume.

    ``average_degree`` is kept as an exact rational so that
    ``average_degree * n == sum(degrees)`` holds identically.
    """

    degrees: tuple[int, ...]
    average_degree: Fraction
    sum_squares: int

    @property
    def average(self) -> float:
        return float(self.average_degree)


@dataclass(frozen=True)
class StructureReport:
    """Structural flags consumed by the bound preconditions.

    ``regular`` is the common degree or None.  ``biregular`` is ``(c, d)``
    when the graph is bipartite, every vertex on the side holding vertex 1
    has degree c and every other vertex degree d (0 when that side is
    empty); in each further component the side holding its lowest vertex
    counts as vertex 1's side.  ``dominating`` lists every vertex of degree
    n-1 in increasing order.
    """

    connected: bool
    regular: int | None
    bipartite: bool
    biregular: tuple[int, int] | None
    dominating: tuple[int, ...]


# ---------------------------------------------------------------------------
# parsing and serialisation


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    The first non-blank line is ``"n m"``; each of the following ``m``
    non-blank lines is ``"u v"`` with 1-based labels.  Duplicate edges are
    merged silently; self-loops and out-of-range labels are errors.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge list: missing 'n m' header")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"malformed header {lines[0]!r}: expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}: expected two integers") from None
    if n < 1 or m < 0:
        raise ValueError(f"invalid header values n={n}, m={m}")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"malformed edge line {ln!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge label out of range in line {ln!r}")
        pairs.append((u, v))
    return Graph.from_edges(n, pairs)


def graph_to_json(g: Graph) -> str:
    """Serialise as ``{"n": int, "edges": [[u, v], ...]}`` with sorted edges."""
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.sorted_edges()]})


def graph_from_json(text: str) -> Graph:
    obj = json.loads(text)
    try:
        n = obj["n"]
        edges = obj["edges"]
    except (TypeError, KeyError):
        raise ValueError("graph JSON must have keys 'n' and 'edges'") from None
    if not isinstance(edges, list):
        raise ValueError("'edges' must be a list of pairs")
    n = _integer(n, "'n'")
    pairs = []
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise ValueError(f"bad edge entry {e!r}")
        u, v = (_integer(x, f"edge label in {e!r}") for x in e)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge label out of range in {e!r}")
        pairs.append((u, v))
    return Graph.from_edges(n, pairs)


def _integer(value, what: str) -> int:
    """``value`` as an int: ints, numpy integers and integral floats such as
    ``3.0``; bools, strings, NaN and every other value raise ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            if isinstance(value, float) and value.is_integer():
                return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# named families


def complete(n: int) -> Graph:
    _require(n >= 1, f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, ((i, j) for i in range(1, n) for j in range(i + 1, n + 1)))


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q} with part X = {1..p} and part Y = {p+1..p+q}."""
    _require(p >= 1 and q >= 1, f"complete bipartite needs p, q >= 1, got ({p}, {q})")
    return Graph.from_edges(p + q, ((i, p + j) for i in range(1, p + 1) for j in range(1, q + 1)))


def cycle(n: int) -> Graph:
    _require(n >= 3, f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def star(n: int) -> Graph:
    """Star on n vertices: centre 1 joined to 2..n."""
    _require(n >= 2, f"star needs n >= 2, got {n}")
    return Graph.from_edges(n, ((1, i) for i in range(2, n + 1)))


def path(n: int) -> Graph:
    _require(n >= 1, f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, ((i, i + 1) for i in range(1, n)))


def petersen() -> Graph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(5 + i, 5 + (i + 1) % 5 + 1) for i in range(1, 6)]
    return Graph.from_edges(10, outer + spokes + inner)


def circulant(n: int, connections: Iterable[int]) -> Graph:
    """Circulant graph: i ~ j iff (i - j) mod n is in the connection set.

    Offsets are integers taken modulo n; 0 (a self-loop) is rejected.
    """
    _require(n >= 2, f"circulant needs n >= 2, got {n}")
    offsets = set()
    for s in connections:
        s = _integer(s, "circulant offset") % n
        if s == 0:
            raise ValueError("circulant connection 0 would be a self-loop")
        offsets.add(min(s, n - s))
    _require(bool(offsets), "circulant needs a non-empty connection set")
    pairs = []
    for i in range(1, n + 1):
        for s in offsets:
            j = (i - 1 + s) % n + 1
            pairs.append((i, j))
    return Graph.from_edges(n, pairs)


def complete_minus_edge(n: int) -> Graph:
    """Complete graph with the edge (1, 2) removed."""
    _require(n >= 2, f"complete minus an edge needs n >= 2, got {n}")
    g = complete(n)
    return Graph(g.n, g.edges - {(1, 2)})


# family name -> (constructor, integer parameters, other parameters), each
# tuple in call order
_FAMILIES = {
    "complete": (complete, ("n",), ()),
    "complete_bipartite": (complete_bipartite, ("p", "q"), ()),
    "cycle": (cycle, ("n",), ()),
    "star": (star, ("n",), ()),
    "path": (path, ("n",), ()),
    "petersen": (petersen, (), ()),
    "circulant": (circulant, ("n",), ("connections",)),
    "complete_minus_edge": (complete_minus_edge, ("n",), ()),
}
FAMILY_NAMES = tuple(_FAMILIES)


def generate(family: str, **params) -> Graph:
    """Build the canonical member of a named family.

    Accepted families and parameters::

        complete(n)             complete_bipartite(p, q)   cycle(n)
        star(n)                 path(n)                    petersen
        circulant(n, connections=iterable of offsets)
        complete_minus_edge(n)

    Raises ValueError for an unknown family, a missing parameter, a size
    or offset that is not an integer, or invalid parameters.
    """
    family = family.lower().replace("-", "_")
    if family not in _FAMILIES:
        raise ValueError(f"unknown graph family {family!r}")
    build, integers, others = _FAMILIES[family]
    try:
        args = [_integer(params[name], name) for name in integers]
        args += [params[name] for name in others]
    except KeyError as missing:
        raise ValueError(f"family {family!r} is missing parameter {missing}") from None
    return build(*args)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# invariants


def degrees(g: Graph) -> DegreeProfile:
    """Exact degree sequence with its average (rational) and sum of squares."""
    ds = g.degree_sequence
    return DegreeProfile(
        degrees=ds,
        average_degree=Fraction(sum(ds), g.n),
        sum_squares=sum(d * d for d in ds),
    )


def common_neighbors(g: Graph, i: int, j: int) -> int:
    """|N(i) ∩ N(j)| for distinct vertices, via bitmask intersection."""
    if i == j:
        raise ValueError("common_neighbors needs two distinct vertices")
    return (g.neighbors_mask(i) & g.neighbors_mask(j)).bit_count()


def randic_index(g: Graph, alpha: float) -> float:
    """Sum of (d_i * d_j)**alpha over edges i~j, each edge counted once.

    Integer exponents are summed in exact rational arithmetic before the
    final rounding, so e.g. the exponent -1 index of a complete bipartite
    graph is exactly 1.0.  Rejects graphs with an isolated vertex when
    alpha < 0, since those exponents divide by degrees.
    """
    ds = g.degree_sequence
    if alpha < 0 and min(ds) == 0:
        raise ValueError("negative exponent with an isolated vertex divides by zero")
    if float(alpha).is_integer():
        return float(_exact_randic_index(g, int(alpha)))
    return float(sum((ds[u - 1] * ds[v - 1]) ** alpha for u, v in g.edges))


def _exact_randic_index(g: Graph, exponent: int) -> Fraction:
    """The integer-exponent connectivity index as an exact rational.

    The normalized two-trace bounds form their radicands from it in
    rationals and round once: rounding the index first leaves about 4e-15
    where K_n's radicand is exactly 0, and the square root turns that into
    an interval error near 5e-10.
    """
    ds = g.degree_sequence
    products = Counter(ds[u - 1] * ds[v - 1] for u, v in g.edges)
    return sum(
        (count * Fraction(p) ** exponent for p, count in products.items()), Fraction(0)
    )


def build_matrix(g: Graph, kind: GraphMatrixKind) -> np.ndarray:
    """Dense real matrix of the requested kind.

    Adjacency is symmetric 0/1, the Laplacian has exact zero row sums, and
    the normalized adjacency is row-stochastic (needs no isolated vertex).
    """
    n = g.n
    a = np.zeros((n, n), dtype=float)
    for u, v in g.edges:
        a[u - 1, v - 1] = 1.0
        a[v - 1, u - 1] = 1.0
    if kind == GraphMatrixKind.ADJACENCY:
        return a
    d = np.array(g.degree_sequence, dtype=float)
    if kind == GraphMatrixKind.LAPLACIAN:
        return np.diag(d) - a
    if kind == GraphMatrixKind.NORMALIZED_ADJACENCY:
        if np.any(d == 0):
            raise ValueError("normalized adjacency undefined with an isolated vertex")
        return a / d[:, None]
    raise ValueError(f"unknown matrix kind {kind!r}")


def classify(g: Graph) -> StructureReport:
    """Structure report: connectivity, regularity, bipartition, dominating vertices.

    One breadth-first two-colouring per component, each started from its
    lowest vertex (the first from vertex 1) and run a layer at a time on
    bitmasks; ``connected`` means there is one component.  Once an edge
    joins two vertices of one colour the comparison is skipped.
    """
    n = g.n
    adj = g._adj  # type: ignore[attr-defined]
    ds = g.degree_sequence
    unseen = ((1 << n) - 1) << 1
    colour = [0, 0]  # bitmask per colour; colour 0 holds each component's start
    colour_degrees: tuple[set[int], set[int]] = (set(), set())
    components = 0
    bipartite = True
    while unseen:
        components += 1
        layer, side = unseen & -unseen, 0
        while layer:
            unseen ^= layer
            colour[side] |= layer
            reach = 0
            while layer:
                low = layer & -layer
                layer ^= low
                v = low.bit_length() - 1
                reach |= adj[v]
                colour_degrees[side].add(ds[v - 1])
            if bipartite and reach & colour[side]:
                bipartite = False
            layer, side = reach & unseen, 1 - side
    biregular: tuple[int, int] | None = None
    c, d = colour_degrees
    if bipartite and len(c) == 1 and len(d) <= 1:
        biregular = (min(c), min(d, default=0))
    return StructureReport(
        connected=components == 1,
        regular=ds[0] if len(set(ds)) == 1 else None,
        bipartite=bipartite,
        biregular=biregular,
        dominating=tuple(i for i, d_i in enumerate(ds, 1) if d_i == n - 1),
    )
