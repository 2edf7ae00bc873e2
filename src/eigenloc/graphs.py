"""Simple undirected graphs, named families, their spectral matrices and spectra.

Vertices are labelled 1..n in all public interfaces.  Graphs are immutable
after construction and safe to share across threads.  Adjacency is stored
as one integer bitmask per vertex, which keeps degree and adjacency
queries exact and cheap.  The spectra come from :mod:`oracle`'s symmetric route.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, NoReturn

import numpy as np

from . import oracle

__all__ = [
    "Graph",
    "GraphMatrixKind",
    "StructureReport",
    "parse_edge_list",
    "generate",
    "build_matrix",
    "classify",
    "graph_to_json",
    "graph_from_json",
    "FAMILY_NAMES",
    "MAX_VERTICES",
]

# largest vertex count a graph may have: the symmetric oracle's dimension cap
MAX_VERTICES = oracle._MAX_SYMMETRIC_DIM


class GraphMatrixKind(Enum):
    """Which of the three graph matrices to build."""

    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    NORMALIZED_ADJACENCY = "normalized"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertex labels 1..n.

    ``edges`` holds unordered pairs normalised as ``(u, v)`` with ``u < v``.
    No self-loops, no multi-edges: the constructor keeps a frozenset of
    tuples as it is given, and reads any other iterable of pairs once, as a
    list, and keeps the frozenset of its pairs as tuples, so a repeated pair
    counts once.  It alone checks the vertex count, the labels' type and
    range and self-loops, with one test per edge; the first edge to fail it,
    in the iterable's order, is refused by name.
    ``n`` and every label must be builtin ints (not bools), and
    :meth:`from_edges` converts and orients other input.
    ``degree_sequence`` holds the degrees of vertices 1..n in order,
    computed once at construction; ``structure`` (the :func:`classify`
    report), the read-only matrices of :meth:`matrix`, ``adjacency`` (A)
    among them, their spectra (:meth:`spectrum`), ``common_neighbor_table``
    (the read-only A·A) and ``randic_index`` are made on first read and
    then kept; no other module writes into a graph.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    degree_sequence: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, edges = self.n, self.edges
        if type(n) is not int or n < 1:
            raise ValueError(f"vertex count must be a positive builtin int (see "
                             f"Graph.from_edges), got {n!r}")
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} exceeds the {MAX_VERTICES} cap")
        if type(edges) is not frozenset or not {tuple}.issuperset(map(type, edges)):
            # read once, in the caller's order; a pair that is an iterator
            # too is read once, into a tuple
            edges = [tuple(e) if isinstance(e, Iterator) else e for e in edges]
        adj = [0] * (n + 1)
        bit = [1 << v for v in range(n + 1)]
        for e in edges:
            u, v = e
            if not (type(u) is int is type(v) and 1 <= u < v <= n):
                _refuse_edge(e, u, v, n)
            adj[u] |= bit[v]
            adj[v] |= bit[u]
        if edges is not self.edges:
            object.__setattr__(self, "edges", frozenset(map(tuple, edges)))
        object.__setattr__(self, "_adj", tuple(adj))
        object.__setattr__(self, "degree_sequence", tuple(map(int.bit_count, adj[1:])))

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from 1-based pairs: ``n`` and the labels converted by the
        integer rule, each pair oriented as (min, max), so duplicates merge."""
        seen: set[tuple[int, int]] = set()
        for u, v in pairs:
            if type(u) is not int or type(v) is not int:
                u, v = _integer(u, "edge label"), _integer(v, "edge label")
            seen.add((u, v) if u < v else (v, u))
        return cls(n=_integer(n, "vertex count"), edges=frozenset(seen))

    @functools.cached_property
    def structure(self) -> StructureReport:
        """The graph's :func:`classify` report, made on first read."""
        return classify(self)

    @functools.cached_property
    def adjacency(self) -> np.ndarray:
        """The 0/1 adjacency matrix as floats, unpacked on first read from the
        bitmask rows (bit v of row u, for v = 1..n); read-only."""
        n, width = self.n, self.n // 8 + 1
        masks = self._adj[1:]  # type: ignore[attr-defined]
        rows = b"".join([mask.to_bytes(width, "little") for mask in masks])
        bits = np.unpackbits(np.frombuffer(rows, np.uint8).reshape(n, width), axis=1,
                             count=n + 1, bitorder="little")
        return _read_only(bits[:, 1:].astype(float))

    def matrix(self, kind: GraphMatrixKind) -> np.ndarray:
        """The read-only ``kind`` matrix: ``adjacency`` itself, or L = D - A or
        D^{-1}A, each made from ``adjacency`` on first read and then kept.
        Anything but a GraphMatrixKind, and the normalized kind of a graph
        with an isolated vertex, raise ValueError."""
        _check_kind(kind)
        _require(_has_matrix(self, kind), _ISOLATED)
        if kind == GraphMatrixKind.ADJACENCY:
            return self.adjacency
        return self._laplacian if kind == GraphMatrixKind.LAPLACIAN else self._normalized_adjacency

    @functools.cached_property
    def _laplacian(self) -> np.ndarray:
        return _read_only(np.diag(np.array(self.degree_sequence, dtype=float)) - self.adjacency)

    @functools.cached_property
    def _normalized_adjacency(self) -> np.ndarray:
        return _read_only(self.adjacency / np.array(self.degree_sequence, dtype=float)[:, None])

    def spectrum(self, kind: GraphMatrixKind) -> oracle.Spectrum:
        """The spectrum of ``matrix(kind)`` by :func:`oracle.symmetric_eigenvalues`,
        made on first read and then kept, and refused as :meth:`matrix` refuses.

        The adjacency is solved.  A k-regular graph (k >= 1) derives its other
        two spectra from that one, as L = kI - A and D^{-1}A = A / k: k - lambda
        in reversed order and lambda / k, with its iteration count.  Any other
        graph's Laplacian is solved, and its D^{-1}A on the similar symmetric
        matrix a_ij / sqrt(d_i d_j), which is not kept.  Without an isolated
        vertex every component has top normalized value 1, so a normalized
        spectrum whose top value is more than 1e-9 from 1 raises RuntimeError.
        """
        _check_kind(kind)
        _require(_has_matrix(self, kind), _ISOLATED)
        if kind == GraphMatrixKind.ADJACENCY:
            return self._adjacency_spectrum
        return self._laplacian_spectrum if kind == GraphMatrixKind.LAPLACIAN else self._normalized_spectrum

    @functools.cached_property
    def _adjacency_spectrum(self) -> oracle.Spectrum:
        return oracle.symmetric_eigenvalues(self.adjacency)

    @functools.cached_property
    def _laplacian_spectrum(self) -> oracle.Spectrum:
        if not (k := self.structure.regular):
            return oracle.symmetric_eigenvalues(self._laplacian)
        spec = self._adjacency_spectrum
        return oracle.Spectrum(tuple(k - x for x in reversed(spec.values)), iterations=spec.iterations)

    @functools.cached_property
    def _normalized_spectrum(self) -> oracle.Spectrum:
        if k := self.structure.regular:
            adjacency = self._adjacency_spectrum
            spec = oracle.Spectrum(tuple(x / k for x in adjacency.values), iterations=adjacency.iterations)
        else:
            d = np.array(self.degree_sequence, dtype=float)
            spec = oracle.symmetric_eigenvalues(self.adjacency / np.sqrt(np.outer(d, d)))
        if abs(spec.values[0] - 1.0) > 1e-9:
            raise RuntimeError(f"top normalized eigenvalue {spec.values[0]!r} is not 1 within 1e-9")
        return spec

    @functools.cached_property
    def randic_index(self) -> Fraction:
        """The connectivity index R_{-1}, the sum of 1/(d_i d_j) over edges i~j,
        as an exact rational, made on first read.

        Thm4.1 and Thm4.3 form their radicands from it in rationals and round
        once: rounding the index first leaves about 4e-15 where K_n's radicand
        is exactly 0, and the square root turns that into an interval error
        near 5e-10.
        """
        ds = self.degree_sequence
        products = Counter(ds[u - 1] * ds[v - 1] for u, v in self.edges)
        return sum((Fraction(count, p) for p, count in products.items()), Fraction(0))

    @functools.cached_property
    def common_neighbor_table(self) -> np.ndarray:
        """The read-only float (n, n) product A·A of ``adjacency``, made on
        first read: N(i,k) = |N(i) & N(k)| off the diagonal and d_i on it,
        exact below 2^53."""
        return _read_only(self.adjacency @ self.adjacency)

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def neighbors_mask(self, i: int) -> int:
        """Bitmask of the open neighbourhood of vertex ``i`` (bit v set iff i~v)."""
        return self._adj[self._vertex(i)]  # type: ignore[attr-defined]

    def degree(self, i: int) -> int:
        return self.degree_sequence[self._vertex(i) - 1]

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self._adj[self._vertex(i)] >> self._vertex(j) & 1)  # type: ignore[attr-defined]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def _vertex(self, i) -> int:
        """The label ``i`` as an int by the integer rule; ValueError unless in 1..n."""
        i = _integer(i, "vertex")
        if not (1 <= i <= self.n):
            raise ValueError(f"vertex {i} out of range 1..{self.n}")
        return i


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _refuse_edge(e, u, v, n: int) -> NoReturn:
    """Raise ``Graph``'s refusal of the edge ``e`` = (u, v) on ``n`` vertices:
    label type, then self-loop, then range, then orientation."""
    if type(u) is not int or type(v) is not int:
        raise ValueError(f"edge {e!r} needs builtin int labels (see Graph.from_edges)")
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (1 <= u <= n and 1 <= v <= n):
        raise ValueError(f"edge {e} has an endpoint outside 1..{n}")
    raise ValueError(f"edge {e} is not normalised as (min, max)")


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
    non-blank lines is ``"u v"`` with 1-based labels, read by ``int()``
    (once per distinct label string).  One comprehension orients the pairs
    as (min, max), so duplicate and reversed lines merge silently, and hands
    them to ``Graph`` as a frozenset of tuples, which it keeps; ``Graph``
    rejects self-loops and out-of-range labels.  A malformed line is named
    before any label fault: the first one in file order.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
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
    body = lines[1:]
    if len(body) != m:
        raise ValueError(f"expected {m} edge lines, found {len(body)}")
    words = list(map(str.split, body))
    try:
        if set(map(len, words)) - {2}:
            raise ValueError("an edge line is not two labels")
        label = {word: int(word) for word in set(itertools.chain.from_iterable(words))}
    except ValueError:
        raise ValueError(f"malformed edge line {_first_malformed(body)!r}") from None
    edges = {(u, v) if u < v else (v, u) for a, b in words for u, v in [(label[a], label[b])]}
    return Graph(n, frozenset(edges))


def _first_malformed(lines: list[str]) -> str | None:
    """The first of ``lines`` that is not two integers."""
    for ln in lines:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            return ln
    return None


def graph_to_json(g: Graph) -> str:
    """Serialise as ``{"n": int, "edges": [[u, v], ...]}`` with sorted edges."""
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.sorted_edges()]})


def graph_from_json(text: str) -> Graph:
    """Parse ``{"n": n, "edges": [[u, v], ...]}``; ``Graph.from_edges`` takes the values."""
    obj = json.loads(text)
    try:
        n, edges = obj["n"], obj["edges"]
    except (TypeError, KeyError):
        raise ValueError("graph JSON must have keys 'n' and 'edges'") from None
    if not isinstance(edges, list):
        raise ValueError("'edges' must be a list of pairs")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2):
            raise ValueError(f"edge entry {e!r} is not a pair")
    return Graph.from_edges(n, edges)


def _integer(value, what: str) -> int:
    """``value`` as an int: ints, numpy integers and integral floats, numpy's too,
    such as ``3.0``; bools, strings, NaN and every other value raise ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            if isinstance(value, (float, np.floating)) and value.is_integer():
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
    return Graph.from_edges(n, ((i, (i - 1 + s) % n + 1) for i in range(1, n + 1) for s in offsets))


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


def _family(name: str) -> str:
    """The family table's key of ``name``, in any case and with hyphens for
    underscores; ValueError, naming that key, if there is no such family."""
    family = name.lower().replace("-", "_")
    if family not in _FAMILIES:
        raise ValueError(f"unknown graph family {family!r}")
    return family


def generate(family: str, **params) -> Graph:
    """Build the canonical member of a named family.

    Accepted families and parameters::

        complete(n)             complete_bipartite(p, q)   cycle(n)
        star(n)                 path(n)                    petersen
        circulant(n, connections=iterable of offsets)
        complete_minus_edge(n)

    Raises ValueError for an unknown family, a missing parameter or one the
    family does not take, a size or offset that is not an integer, or
    invalid parameters.
    """
    family = _family(family)
    build, integers, others = _FAMILIES[family]
    extra = sorted(set(params).difference(integers, others))
    if extra:
        raise ValueError(f"family {family!r} takes no parameter {extra[0]!r}")
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


def build_matrix(g: Graph, kind: GraphMatrixKind) -> np.ndarray:
    """A fresh writable copy of ``g.matrix(kind)``; the Laplacian has exact
    zero row sums and the normalized adjacency is row-stochastic."""
    return g.matrix(kind).copy()


_ISOLATED = "normalized adjacency undefined with an isolated vertex"


def _has_matrix(g: Graph, kind: GraphMatrixKind) -> bool:
    """Whether g has a ``kind`` matrix: the normalized one needs no isolated vertex (``_ISOLATED``)."""
    return kind != GraphMatrixKind.NORMALIZED_ADJACENCY or 0 not in g.degree_sequence


def _check_kind(kind) -> None:
    """Refuse, with ValueError, anything but a :class:`GraphMatrixKind`, the
    name of one included."""
    if not isinstance(kind, GraphMatrixKind):
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
