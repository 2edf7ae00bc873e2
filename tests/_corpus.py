"""Graph corpora for the soundness sweeps, and the per-graph check they share.

Every bound is a graph invariant, and so is every spectrum, so one graph
per isomorphism class stands for all its labellings (``test_bounds`` checks
that relabelling leaves every report unchanged).  ``atlas_graphs`` walks
networkx's *Atlas of Graphs* (Read & Wilson, 1998): every graph on 1 to 7
vertices, one per isomorphism class.  ``family_corpus`` adds the named
families up to n = 32.

``check_graph_with_library`` runs each graph through the library's own
path (``bounds_report``, both Thm5.4 modes), checks that no interval or
combined interval of either mode has its lower end above its upper and
that ``report_to_json`` writes each report byte for byte as
``json.dumps(..., indent=2)`` does, and checks every interval against two
oracles: the package's
``Graph.spectrum`` and LAPACK (``numpy.linalg.eigvalsh``) on matrices built
here from the edge list, independent of ``build_matrix``.  The two oracles
must agree within 1e-9.
"""

from __future__ import annotations

import functools
import json

import networkx as nx
import numpy as np

from eigenloc.bounds import (
    LAMBDA_1,
    LAMBDA_2,
    LAMBDA_N,
    LAMBDA_N_MINUS_1,
    _report_obj,
    bounds_report,
    report_to_json,
)
from eigenloc.graphs import (
    Graph,
    GraphMatrixKind,
    circulant,
    complete,
    complete_bipartite,
    complete_minus_edge,
    cycle,
    path,
    petersen,
    star,
)

_POSITION = {LAMBDA_1: 0, LAMBDA_2: 1, LAMBDA_N_MINUS_1: -2, LAMBDA_N: -1}
# index into a DESCENDING eigenvalue array


@functools.cache
def atlas_graphs() -> tuple[tuple[nx.Graph, Graph], ...]:
    """``(networkx graph, Graph)`` for each of the 1,252 non-empty atlas graphs."""
    return tuple(
        (h, Graph.from_edges(len(h), [(u + 1, v + 1) for u, v in h.edges()]))
        for h in nx.graph_atlas_g()
        if len(h)
    )


def _lapack_spectrum(g: Graph, kind: GraphMatrixKind) -> np.ndarray:
    """Descending spectrum of A, L or D^-1/2 A D^-1/2 from LAPACK."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u - 1, v - 1] = a[v - 1, u - 1] = 1.0
    deg = a.sum(axis=1)
    if kind is GraphMatrixKind.LAPLACIAN:
        a = np.diag(deg) - a
    elif kind is GraphMatrixKind.NORMALIZED_ADJACENCY:
        root = np.sqrt(deg)
        a = a / root[:, None] / root[None, :]
    return np.linalg.eigvalsh(a)[::-1]


def check_graph_with_library(g: Graph, slack: float = 1e-8) -> tuple[int, list]:
    """Check every applicable theorem (both Thm5.4 modes) against both oracles,
    the order of the ends of every interval and combined interval, and each
    report's JSON text.

    Returns (interval checks performed, failures).
    """
    checks = 0
    bad = []
    for kind in GraphMatrixKind:
        published, corrected = [bounds_report(g, kind, mode=mode)
                                 for mode in ("published", "corrected")]
        for report in (published, corrected):
            bad += [("reversed", b.theorem, b.target, kind.value, g.n, g.m, b.lower, b.upper)
                    for b in report.bounds + report.combined if not b.lower <= b.upper]
            if report_to_json(report) != json.dumps(_report_obj(report), indent=2):
                bad.append(("json text", kind.value, report.mode, g.n, g.m))
        intervals = list(published.bounds)
        intervals += [b for b in corrected.bounds if b.theorem == "Thm5.4"]
        if not intervals:
            continue
        ours = np.array(g.spectrum(kind).values)
        lapack = _lapack_spectrum(g, kind)
        gap = float(np.max(np.abs(ours - lapack)))
        if gap > 1e-9:
            bad.append(("oracles disagree", kind.value, g.n, g.m, gap))
        for bound in intervals:
            checks += 1
            for value in (ours[_POSITION[bound.target]], lapack[_POSITION[bound.target]]):
                if not (bound.lower - slack <= value <= bound.upper + slack):
                    bad.append(
                        (bound.theorem, bound.target, g.n, g.m, bound.assumptions,
                         bound.lower, bound.upper, float(value))
                    )
    return checks, bad


def family_corpus(max_n: int = 32) -> list[tuple[str, Graph]]:
    """Named family members for the soundness sweep, sizes up to max_n."""
    sizes = [n for n in list(range(3, 13)) + [16, 20, 24, 28, 32] if n <= max_n]
    items: list[tuple[str, Graph]] = []
    for n in sizes:
        items.append((f"complete:{n}", complete(n)))
        items.append((f"cycle:{n}", cycle(n)))
        items.append((f"star:{n}", star(n)))
        items.append((f"path:{n}", path(n)))
        items.append((f"complete_minus_edge:{n}", complete_minus_edge(n)))
    for p in range(1, 7):
        for q in range(p, 7):
            if p + q >= 4:
                items.append((f"complete_bipartite:{p},{q}", complete_bipartite(p, q)))
    for p, q in ((8, 8), (8, 24), (16, 16), (1, 31), (4, 12)):
        if p + q <= max_n:
            items.append((f"complete_bipartite:{p},{q}", complete_bipartite(p, q)))
    items.append(("petersen", petersen()))
    for n, conn in (
        (8, (1, 2)),
        (10, (1, 3)),
        (12, (1, 2, 3)),
        (13, (1, 5)),
        (16, (1, 2)),
        (17, (1, 4)),
        (20, (2, 5)),
        (24, (1, 3, 5)),
        (32, (1, 2, 4)),
    ):
        if n <= max_n:
            items.append((f"circulant:{n}", circulant(n, conn)))
    return items
