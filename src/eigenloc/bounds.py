"""Closed-form eigenvalue bounds for the three graph matrices.

Every bound returns labelled intervals for indexed eigenvalues under the
ordering lambda_1 >= lambda_2 >= ... >= lambda_n.  Adjacency and
normalized-adjacency bounds target lambda_2 and lambda_n; Laplacian bounds
target lambda_1 and lambda_{n-1} (the algebraic connectivity).  Each
theorem is tagged with a stable identifier ("Thm3.1", "Cor3.6", ...) that
the report JSON, the CSV output and the verify scope filters all share.

One registry maps each tag to its matrix kind, its targets, its structural
preconditions (connected, regular, bipartite, biregular, dominating vertex,
read from the graph's own ``structure`` report, which it makes once), its
minimum n and its theorem function.  Each precondition carries its skip
reason and its assumption label, so a theorem function computes only the
ends of its intervals.  Every theorem function takes only the graph (and
Thm5.4 its ``mode``): the hypotheses are facts of that graph, so no caller
can hand it another graph's report.  :func:`bounds_report` runs every
applicable theorem of the registry for a (graph, matrix kind) pair and
records the rest as skipped with the first failing precondition as the
reason.  A theorem function called directly on a graph it does not apply to
raises ``ValueError("<tag>: <skip reason>")``, e.g. ``"Thm3.1: not regular"``.

The paper's bounds are a few formulas applied several times: Thm3.1,
Thm4.1 and Thm5.2 are one deflated two-trace bound, Thm3.4, Cor3.6 and
Thm4.3 one bipartite lambda_2 bound, and Thm4.4, Thm4.5 and Thm5.4 deflate
at one dominating vertex.  The two-trace and bipartite radicands are formed
exactly from integer invariants (degrees, the exact connectivity index) and
rounded at most once, so none is negative.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, GraphMatrixKind, _check_kind, _exact_randic_index

__all__ = [
    "BoundInterval",
    "BoundReport",
    "regular_adjacency_bounds",
    "biregular_bipartite_lambda2_bounds",
    "regular_bipartite_lambda2_bounds",
    "regular_common_neighbor_bounds",
    "regular_brauer_common_neighbor_bounds",
    "normalized_trace_bounds",
    "normalized_bipartite_lambda2_bounds",
    "normalized_dominating_gersgorin_bounds",
    "normalized_dominating_brauer_bounds",
    "laplacian_trace_bounds",
    "laplacian_common_neighbor_bounds",
    "laplacian_dominating_brauer_bounds",
    "bounds_report",
    "report_to_json",
    "report_to_csv",
    "THEOREM_TAGS",
    "MODES",
    "TARGET_ALIASES",
    "TARGET_POSITION",
]

LAMBDA_1 = "lambda_1"
LAMBDA_2 = "lambda_2"
LAMBDA_N_MINUS_1 = "lambda_n_minus_1"
LAMBDA_N = "lambda_n"

TARGET_ALIASES = {LAMBDA_N_MINUS_1: "algebraic_connectivity"}
# index of each target in a spectrum sorted in descending order
TARGET_POSITION = {LAMBDA_1: 0, LAMBDA_2: 1, LAMBDA_N_MINUS_1: -2, LAMBDA_N: -1}

_ADJ = GraphMatrixKind.ADJACENCY
_NORM = GraphMatrixKind.NORMALIZED_ADJACENCY
_LAP = GraphMatrixKind.LAPLACIAN

# The theorem catalogue: tag -> (matrix kind, targets, preconditions in check
# order, minimum n, theorem function).  The function is stored by name and
# looked up in this module's namespace at call time, so a wrapper rebound onto
# the module attribute (a profiler or tracer) sees every call bounds_report
# makes.
_REGISTRY: dict[str, tuple[GraphMatrixKind, tuple[str, ...], tuple[str, ...], int, str]] = {
    "Thm3.1": (_ADJ, (LAMBDA_2, LAMBDA_N), ("connected", "regular"), 3, "regular_adjacency_bounds"),
    "Thm3.4": (_ADJ, (LAMBDA_2,), ("connected", "bipartite", "biregular"), 4, "biregular_bipartite_lambda2_bounds"),
    "Cor3.6": (_ADJ, (LAMBDA_2,), ("connected", "regular", "bipartite"), 4, "regular_bipartite_lambda2_bounds"),
    "Thm3.7": (_ADJ, (LAMBDA_2, LAMBDA_N), ("connected", "regular"), 2, "regular_common_neighbor_bounds"),
    "Thm3.9": (_ADJ, (LAMBDA_2, LAMBDA_N), ("connected", "regular"), 3, "regular_brauer_common_neighbor_bounds"),
    "Thm4.1": (_NORM, (LAMBDA_2, LAMBDA_N), ("connected",), 3, "normalized_trace_bounds"),
    "Thm4.3": (_NORM, (LAMBDA_2,), ("connected", "bipartite"), 4, "normalized_bipartite_lambda2_bounds"),
    "Thm4.4": (_NORM, (LAMBDA_2, LAMBDA_N), ("connected", "dominating"), 3, "normalized_dominating_gersgorin_bounds"),
    "Thm4.5": (_NORM, (LAMBDA_2, LAMBDA_N), ("connected", "dominating"), 3, "normalized_dominating_brauer_bounds"),
    "Thm5.2": (_LAP, (LAMBDA_1, LAMBDA_N_MINUS_1), ("connected",), 3, "laplacian_trace_bounds"),
    "Thm5.3": (_LAP, (LAMBDA_1, LAMBDA_N_MINUS_1), ("connected",), 2, "laplacian_common_neighbor_bounds"),
    "Thm5.4": (_LAP, (LAMBDA_1, LAMBDA_N_MINUS_1), ("connected", "dominating"), 3, "laplacian_dominating_brauer_bounds"),
}

# precondition name -> (test on the structure report, skip reason when it
# fails, assumption label when it holds)
_PRECONDITIONS = {
    "connected": (lambda rep: rep.connected, "not connected", lambda rep: "connected"),
    "regular": (lambda rep: rep.regular is not None, "not regular", lambda rep: f"{rep.regular}-regular"),
    "bipartite": (lambda rep: rep.bipartite, "not bipartite", lambda rep: "bipartite"),
    "biregular": (lambda rep: rep.biregular is not None, "not biregular",
                  lambda rep: "({},{})-biregular".format(*sorted(rep.biregular))),
    "dominating": (lambda rep: bool(rep.dominating), "no dominating vertex", lambda rep: "dominating vertex"),
}

THEOREM_TAGS = tuple(_REGISTRY)
# Thm5.4's deflated row sums: the paper's n - d_k, or the re-derived n - 1 - d_k
MODES = ("published", "corrected")

@dataclass(frozen=True)
class BoundInterval:
    """One labelled interval [lower, upper] for one eigenvalue index."""

    target: str
    lower: float
    upper: float
    theorem: str
    assumptions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-12:
            raise ValueError(
                f"{self.theorem}/{self.target}: lower {self.lower} exceeds upper {self.upper}"
            )


@dataclass(frozen=True)
class BoundReport:
    """All applicable bounds for one (graph, matrix kind, mode) triple."""

    graph_summary: dict
    matrix_kind: str
    mode: str
    bounds: tuple[BoundInterval, ...]
    skipped: tuple[tuple[str, str], ...]
    combined: tuple[BoundInterval, ...]


def _skip_reason(tag: str, g: Graph) -> str | None:
    """The first failing precondition of theorem ``tag`` on ``g``, or None when it applies."""
    _, _, preconditions, min_n, _ = _REGISTRY[tag]
    for name in preconditions:
        holds, reason, _ = _PRECONDITIONS[name]
        if not holds(g.structure):
            return reason
    return None if g.n >= min_n else f"needs n >= {min_n}"


def _checked(tag: str, g: Graph) -> None:
    """Raise ValueError("<tag>: <skip reason>") unless ``tag`` applies to ``g``,
    as its own ``structure`` report says."""
    reason = _skip_reason(tag, g)
    if reason is not None:
        raise ValueError(f"{tag}: {reason}")


def _intervals(
    tag: str, g: Graph, *ends: tuple[float, float], extra: tuple[str, ...] = ()
) -> list[BoundInterval]:
    """``tag``'s intervals: one (lower, upper) pair per registry target, or one for all.

    The assumptions are the labels of the theorem's preconditions on ``g``, then ``extra``.
    """
    _, targets, preconditions, _, _ = _REGISTRY[tag]
    assumptions = tuple(_PRECONDITIONS[name][2](g.structure) for name in preconditions) + extra
    if len(ends) == 1:
        ends *= len(targets)
    return [
        BoundInterval(target, lower, upper, tag, assumptions)
        for target, (lower, upper) in zip(targets, ends, strict=True)
    ]


# ---------------------------------------------------------------------------
# formulas shared by several theorems


def _deflated_trace(tag: str, g: Graph, base: float, radicand: float) -> list[BoundInterval]:
    """Thm3.1, Thm4.1 and Thm5.2: the two targets from the deflated mean and
    (n-1)^2 times its variance.

    Each theorem forms its radicand from exact integer or rational
    invariants, so it is a nonnegative number rounded at most once.
    """
    n = g.n
    wide = math.sqrt((n - 2.0) * radicand) / (n - 1.0)
    narrow = math.sqrt(radicand / (n - 2.0)) / (n - 1.0)
    return _intervals(tag, g, (base + narrow, base + wide), (base - wide, base - narrow))


def _bipartite_lambda2(tag: str, g: Graph, excess: float) -> list[BoundInterval]:
    """Thm3.4, Cor3.6 and Thm4.3: lambda_2 of a bipartite graph from its excess, m - cd or R_{-1} - 1."""
    n = g.n
    lo = math.sqrt(2.0 * excess / ((n - 2.0) * (n - 3.0)))
    hi = math.sqrt(2.0 * (n - 3.0) * excess / (n - 2.0))
    return _intervals(tag, g, (lo, hi))


def _degrees_but_dominating(g: Graph) -> tuple[int, ...]:
    """Degrees of all but the first dominating vertex; all have degree n - 1, so any gives the same."""
    i = g.structure.dominating[0]
    return g.degree_sequence[: i - 1] + g.degree_sequence[i:]


# ---------------------------------------------------------------------------
# adjacency matrix of regular / biregular graphs


def regular_adjacency_bounds(g: Graph) -> list[BoundInterval]:
    """Two-trace intervals for lambda_2 and lambda_n of a connected regular graph."""
    _checked("Thm3.1", g)
    n, d = g.n, g.structure.regular
    return _deflated_trace("Thm3.1", g, -d / (n - 1.0), n * d * (n - d - 1))


def biregular_bipartite_lambda2_bounds(g: Graph) -> list[BoundInterval]:
    """lambda_2 interval for a connected (c,d)-biregular bipartite graph."""
    _checked("Thm3.4", g)
    c, d = g.structure.biregular
    return _bipartite_lambda2("Thm3.4", g, g.m - c * d)


def regular_bipartite_lambda2_bounds(g: Graph) -> list[BoundInterval]:
    """lambda_2 interval for a connected d-regular bipartite graph: Thm3.4 at c = d."""
    _checked("Cor3.6", g)
    return _bipartite_lambda2("Cor3.6", g, g.m - g.structure.regular**2)


def regular_common_neighbor_bounds(g: Graph) -> list[BoundInterval]:
    """Common-neighbour disk bounds for a connected d-regular graph.

    Every deflated disk for deflation row i sits at -[k ~ i] with radius
    2d - 2N(i,k) - 2[k ~ i], so row i's disks cover [-2d + min alpha,
    2d - min beta] over k != i, with alpha = 2N(i,k) + [k ~ i] and
    beta = alpha + 2[k ~ i]: row minima over whole rows of A·A and A.
    The best row is taken for each end, and the spectral-radius guard d
    keeps the bound no worse than |lambda| <= d.  The chain
    L <= lambda_n <= lambda_2 <= U makes [L, U] valid for both targets.
    K_n's beta_ik = 2d + 1 tops beta_ii = 2d, so beta's diagonal is set to inf.
    """
    _checked("Thm3.7", g)
    d, a = g.structure.regular, g.adjacency
    alpha = 2 * g.common_neighbor_table + a
    beta = alpha + 2 * a
    np.fill_diagonal(beta, np.inf)
    lower = -2.0 * d + max(float(alpha.min(axis=1).max()), d)
    upper = 2.0 * d - max(float(beta.min(axis=1).max()), d)
    return _intervals("Thm3.7", g, (lower, upper))


def regular_brauer_common_neighbor_bounds(g: Graph) -> list[BoundInterval]:
    """Common-neighbour oval bounds for a connected d-regular graph.

    For each deflation row i and pair {j, k} of the other vertices the
    deflated oval sections to a real interval [alpha, beta] whose endpoints
    depend on how many of j, k are adjacent to i.  With
    x_j = d - N(i,j) - 1 for a neighbour j of i and y_j = d - N(i,j) for a
    non-neighbour:

        both adjacent:  -1   -/+ 2 sqrt(x_j x_k)
        neither:             -/+ 2 sqrt(y_j y_k)
        exactly one:    -1/2 -/+ sqrt(1/4 + 4 x_j y_k)

    Row i contributes the smallest alpha and the largest beta over its
    pairs; the bound is the largest such alpha and the smallest such beta
    over the rows.

    Both x_j >= 0 (j is not its own neighbour, so N(i,j) <= d - 1) and
    y_j >= 0, and alpha falls while beta rises with the product under the
    root.  So within each class the extreme alpha and beta come from the
    largest product: the two largest x, the two largest y, or the largest
    x times the largest y.  A row therefore needs only its top two values
    per class, O(n) work instead of O(n^2) pairs, taken for all rows at
    once by ``np.partition`` of whole rows with the other class set to -1;
    the diagonal's x_ii = -1 and y_ii = 0 change no top two.  Every row has
    d >= 2 neighbours and n - 1 - d non-neighbours, so a class exists in
    all rows or in none.  The roots see the pair loop's integers in its
    float order, and square roots round correctly, so the floats are identical.
    """
    _checked("Thm3.9", g)
    d, n = g.structure.regular, g.n
    adj, common = g.adjacency == 1, g.common_neighbor_table
    # the two largest x (and y) of each row: the second at n - 2, the largest after it
    x1, x2 = np.partition(np.where(adj, d - common - 1, -1), n - 2, axis=1)[:, -2:].T
    y1, y2 = np.partition(np.where(adj, -1, d - common), n - 2, axis=1)[:, -2:].T
    root = 2.0 * np.sqrt(x1 * x2)
    alphas, betas = [-1.0 - root], [-1.0 + root]
    if n - 1 - d >= 2:
        root = 2.0 * np.sqrt(y1 * y2)
        alphas.append(-root)
        betas.append(root)
    if n - 1 - d >= 1:
        root = np.sqrt(0.25 + (4.0 * x2) * y2)
        alphas.append(-0.5 - root)
        betas.append(-0.5 + root)
    lower = float(np.min(alphas, axis=0).max())
    upper = float(np.max(betas, axis=0).min())
    return _intervals("Thm3.9", g, (lower, upper))


# ---------------------------------------------------------------------------
# normalized adjacency matrix


def normalized_trace_bounds(g: Graph) -> list[BoundInterval]:
    """Two-trace intervals for lambda_2 and lambda_n of the normalized matrix.

    Driven by the exponent -1 connectivity index R: the deflated matrix has
    trace -1 and squared trace 2R - 1, so the spread radicand is
    2(n-1)R - n.
    """
    _checked("Thm4.1", g)
    n = g.n
    rad = float(2 * (n - 1) * _exact_randic_index(g) - n)
    return _deflated_trace("Thm4.1", g, -1.0 / (n - 1.0), rad)


def normalized_bipartite_lambda2_bounds(g: Graph) -> list[BoundInterval]:
    """lambda_2 interval for a connected bipartite graph's normalized matrix."""
    _checked("Thm4.3", g)
    return _bipartite_lambda2("Thm4.3", g, float(_exact_randic_index(g) - 1))


def normalized_dominating_gersgorin_bounds(g: Graph) -> list[BoundInterval]:
    """Deflated-disk bounds, deflating at a dominating vertex i.

    With t the smallest 1/d_k + 2d_k/(n-1) over the other vertices k, both
    targets lie in [-2 - 2/(n-1) + t, 2 - t].  t is taken as an exact
    rational over the distinct degrees and each end is rounded once, so K_n
    gives [-1/(n-1), -1/(n-1)] as one double.
    """
    _checked("Thm4.4", g)
    n = g.n
    t = min(Fraction(n - 1 + 2 * d * d, d * (n - 1)) for d in set(_degrees_but_dominating(g)))
    return _intervals("Thm4.4", g, (float(t - Fraction(2 * n, n - 1)), float(2 - t)))


def normalized_dominating_brauer_bounds(g: Graph) -> list[BoundInterval]:
    """Deflated-oval bounds, deflating at a dominating vertex.

    All ovals share the centre -1/(n-1); the half-width is the largest
    sqrt(rho_j * rho_k) over pairs of remaining vertices, where rho is the
    deflated deleted row sum 2 - 1/d - (2d-1)/(n-1) >= 0.
    """
    _checked("Thm4.5", g)
    n = g.n
    rest = _degrees_but_dominating(g)
    rho = sorted((max(0.0, 2.0 - 1.0 / d - (2.0 * d - 1.0) / (n - 1.0)) for d in rest), reverse=True)
    centre = -1.0 / (n - 1.0)
    half = math.sqrt(rho[0] * rho[1])
    return _intervals("Thm4.5", g, (centre - half, centre + half))


# ---------------------------------------------------------------------------
# Laplacian matrix


def laplacian_trace_bounds(g: Graph) -> list[BoundInterval]:
    """Two-trace intervals for lambda_1 and lambda_{n-1} of the Laplacian.

    The deflated matrix keeps trace sum(d) and squared trace
    sum(d^2) + sum(d), giving mean sum(d)/(n-1) and the integer spread
    radicand (n-1)(sum(d^2) + sum(d)) - sum(d)^2.
    """
    _checked("Thm5.2", g)
    n, ds = g.n, g.degree_sequence
    sum_d = sum(ds)
    radicand = (n - 1) * (sum(d * d for d in ds) + sum_d) - sum_d * sum_d
    return _deflated_trace("Thm5.2", g, sum_d / (n - 1), radicand)


def laplacian_common_neighbor_bounds(g: Graph) -> list[BoundInterval]:
    """Common-neighbour disk bounds for the Laplacian of a connected graph.

    For deflation row i, the disk of row k is centred at d_k + [k ~ i]
    with radius d_i + d_k - 2N(i,k) - 2[k ~ i].  The reported endpoints
    per (i, k) are

        alpha = -d_i + 2N(i,k) + [k ~ i]
        beta  =  d_i + 2d_k - 2N(i,k) - [k ~ i]

    (alpha relaxes the disk's left edge by 2[k ~ i], so it stays valid),
    combined as max over i of min over k for the lower bound and min over
    i of max over k for the upper, over whole rows of A and A·A.  Their
    diagonal, alpha_ii = beta_ii = d_i, decides no row: every other k has
    alpha_ik <= d_i <= beta_ik, as N(i,k) <= min(d_i, d_k) - [k ~ i].
    """
    _checked("Thm5.3", g)
    a, common = g.adjacency, g.common_neighbor_table
    ds = common.diagonal()
    lower = float((2 * common + a - ds[:, None]).min(axis=1).max())
    upper = float((ds[:, None] + 2 * ds - 2 * common - a).max(axis=1).min())
    return _intervals("Thm5.3", g, (lower, upper))


def laplacian_dominating_brauer_bounds(g: Graph, *, mode: str = "published") -> list[BoundInterval]:
    """Deflated-oval Laplacian bounds, deflating at a dominating vertex.

    The oval for the pair {j, k} of remaining vertices sections to

        (d_j + d_k + 2 +/- sqrt((d_j - d_k)^2 + 4 r_j r_k)) / 2

    with r_k = m - d_k: m = n in ``mode="published"``, the re-derived n - 1
    (k's non-neighbours among the remaining vertices) in ``mode="corrected"``.
    As (d_j - d_k)^2 + 4 r_j r_k = (r_j + r_k)^2, the union over pairs is
    [d_(1) + d_(2) + 1 - m, m + 1], from the two smallest remaining degrees.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")
    _checked("Thm5.4", g)
    m = g.n if mode == "published" else g.n - 1
    d1, d2 = sorted(_degrees_but_dominating(g))[:2]
    return _intervals("Thm5.4", g, (float(d1 + d2 + 1 - m), float(m + 1)), extra=(mode,))


# ---------------------------------------------------------------------------
# report assembly


def graph_summary(g: Graph) -> dict:
    rep = g.structure
    return {
        "n": g.n,
        "m": g.m,
        "connected": rep.connected,
        "regular": rep.regular,
        "bipartite": rep.bipartite,
        "biregular": list(rep.biregular) if rep.biregular else None,
        "dominating": list(rep.dominating),
    }


def bounds_report(g: Graph, kind: GraphMatrixKind, mode: str = "published") -> BoundReport:
    """Run every theorem whose preconditions hold for this matrix kind.

    Inapplicable theorems are listed as skipped with the first failing
    precondition as the reason.  Intervals are intersected per target into
    a combined best interval; skips are data, not errors.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")
    _check_kind(kind)
    bounds: list[BoundInterval] = []
    skipped: list[tuple[str, str]] = []
    for tag, (tag_kind, _, _, _, name) in _REGISTRY.items():
        if tag_kind != kind:
            continue
        reason = _skip_reason(tag, g)
        if reason is not None:
            skipped.append((tag, reason))
        elif tag == "Thm5.4":
            bounds.extend(globals()[name](g, mode=mode))
        else:
            bounds.extend(globals()[name](g))
    by_target: dict[str, list[BoundInterval]] = {}
    for b in bounds:
        by_target.setdefault(b.target, []).append(b)
    combined = tuple(
        BoundInterval(
            target,
            max(b.lower for b in items),
            min(b.upper for b in items),
            "combined",
            tuple(sorted({b.theorem for b in items})),
        )
        for target, items in sorted(by_target.items())
    )
    return BoundReport(
        graph_summary=graph_summary(g),
        matrix_kind=kind.value,
        mode=mode,
        bounds=tuple(bounds),
        skipped=tuple(skipped),
        combined=combined,
    )


def _interval_obj(b: BoundInterval) -> dict:
    obj = {
        "target": b.target,
        "lower": b.lower,
        "upper": b.upper,
        "theorem": b.theorem,
        "assumptions": list(b.assumptions),
    }
    alias = TARGET_ALIASES.get(b.target)
    if alias:
        obj["alias"] = alias
    return obj


def _report_obj(report: BoundReport) -> dict:
    return {
        "graph": report.graph_summary,
        "matrix": report.matrix_kind,
        "mode": report.mode,
        "bounds": [_interval_obj(b) for b in report.bounds],
        "skipped": [{"theorem": tag, "reason": reason} for tag, reason in report.skipped],
        "combined": [_interval_obj(b) for b in report.combined],
    }


def report_to_json(report: BoundReport) -> str:
    """The report as ``json.dumps(obj, indent=2)`` writes it, byte for byte."""
    return _indented_json(_report_obj(report))


# json.dumps' text of each scalar type; other values take json.dumps itself
_JSON_SCALARS = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: float.__repr__(x) if x - x == 0.0 else json.dumps(x),  # Infinity, NaN
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda x: "null",
}


def _indented_json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of str-keyed dicts, lists and scalars,
    without the pure-Python encoder that ``indent`` selects there."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner, keys = pad + "  ", isinstance(value, dict)
    texts = [write(item) if (write := _JSON_SCALARS.get(type(item))) else _indented_json(item, inner)
             for item in (value.values() if keys else value)]
    if keys:
        texts = [f"{_JSON_SCALARS[str](key)}: {text}" for key, text in zip(value, texts)]
    opening, closing = "{}" if keys else "[]"
    return opening + inner + f",{inner}".join(texts) + pad + closing


def report_to_csv(report: BoundReport) -> str:
    lines = ["theorem,target,lower,upper"]
    for b in list(report.bounds) + list(report.combined):
        lines.append(f"{b.theorem},{b.target},{b.lower!r},{b.upper!r}")
    return "\n".join(lines) + "\n"
