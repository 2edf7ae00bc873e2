"""Corpus machinery for the soundness sweeps.

Two paths:

* A vectorised bulk checker for the theorems that apply to arbitrary
  connected graphs (normalized + Laplacian families).  It re-expresses the
  library's closed forms in batched numpy, keeping the exact floating
  operation order of ``eigenloc.bounds`` so results are bit-identical;
  ``test_sweep_engine`` certifies that equivalence graph by graph.  Oracle
  spectra for the bulk path come from LAPACK (``numpy.linalg.eigvalsh``),
  independent of both the closed forms and the package's own oracles.

* A per-graph library path (``bounds_report`` + the package's Jacobi
  oracle) used for the adjacency-matrix theorems, whose preconditions
  (regular / biregular bipartite) select only a small slice of the
  exhaustive corpus, and for the named families up to n = 32.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from eigenloc.bounds import (
    LAMBDA_1,
    LAMBDA_2,
    LAMBDA_N,
    LAMBDA_N_MINUS_1,
    bounds_report,
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
from eigenloc.oracle import graph_spectrum

TARGET_INDEX = {LAMBDA_1: -1, LAMBDA_2: -2, LAMBDA_N: 0, LAMBDA_N_MINUS_1: 1}
# index into an ASCENDING eigenvalue array


def edge_pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def connected_graph_masks(n: int) -> np.ndarray:
    """All edge-subset masks on n labelled vertices yielding a connected graph."""
    pairs = edge_pairs(n)
    m = len(pairs)
    masks = np.arange(1 << m, dtype=np.int64)
    adjbits = np.zeros((1 << m, n), dtype=np.int16)
    for e, (u, v) in enumerate(pairs):
        bit = ((masks >> e) & 1).astype(np.int16)
        adjbits[:, u] |= bit << v
        adjbits[:, v] |= bit << u
    reach = np.ones(1 << m, dtype=np.int16)
    for _ in range(n - 1):
        for v in range(n):
            has = (reach >> v) & 1
            reach |= adjbits[:, v] * has
    return masks[reach == np.int16((1 << n) - 1)]


def graph_from_mask(mask: int, n: int) -> Graph:
    pairs = edge_pairs(n)
    edges = [(u + 1, v + 1) for e, (u, v) in enumerate(pairs) if mask >> e & 1]
    return Graph.from_edges(n, edges)


def masks_to_batch(masks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched dense adjacency (B, n, n) and degree (B, n) arrays."""
    b = len(masks)
    a = np.zeros((b, n, n))
    for e, (u, v) in enumerate(edge_pairs(n)):
        bit = ((masks >> e) & 1).astype(float)
        a[:, u, v] = bit
        a[:, v, u] = bit
    return a, a.sum(axis=2)


def batch_bipartite(masks: np.ndarray, n: int) -> np.ndarray:
    """Two-colourability of each (connected) graph by bitset propagation."""
    adjbits = np.zeros((len(masks), n), dtype=np.int16)
    for e, (u, v) in enumerate(edge_pairs(n)):
        bit = ((masks >> e) & 1).astype(np.int16)
        adjbits[:, u] |= bit << v
        adjbits[:, v] |= bit << u

    def neighbours(colour: np.ndarray) -> np.ndarray:
        out = np.zeros_like(colour)
        for v in range(n):
            out |= adjbits[:, v] * ((colour >> v) & 1)
        return out

    colour_a = np.ones(len(masks), dtype=np.int16)
    colour_b = np.zeros(len(masks), dtype=np.int16)
    for _ in range(n):
        colour_b |= neighbours(colour_a)
        colour_a |= neighbours(colour_b)
    return (colour_a & colour_b) == 0


def batch_oracle(a: np.ndarray, deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Laplacian and normalized-adjacency spectra via LAPACK."""
    b, n, _ = a.shape
    lap = -a.copy()
    idx = np.arange(n)
    lap[:, idx, idx] = deg
    root = np.sqrt(deg)
    sym = a / root[:, :, None] / root[:, None, :]
    return np.linalg.eigvalsh(lap), np.linalg.eigvalsh(sym)


class BulkRecord:
    """One theorem's vectorised intervals over a batch of graphs."""

    def __init__(self, theorem, target, lower, upper, applicable, oracle_kind):
        self.theorem = theorem
        self.target = target
        self.lower = lower
        self.upper = upper
        self.applicable = applicable
        self.oracle_kind = oracle_kind  # "laplacian" | "normalized"


def bulk_bounds(masks: np.ndarray, n: int) -> list[BulkRecord]:
    """Vectorised normalized/Laplacian bounds for connected graphs, n >= 3.

    Floating-point operation order mirrors eigenloc.bounds exactly; the
    exponent -1 connectivity index is assembled from integer numerators
    over the common denominator 3600 (degrees are at most 6 here), so it
    equals the library's exact-rational value bit for bit.
    """
    if n < 3 or n > 7:
        raise ValueError("bulk path covers 3 <= n <= 7")
    a, deg = masks_to_batch(masks, n)
    nf = float(n)
    idx = np.arange(n)
    records = []

    common = a @ a  # common-neighbour counts off the diagonal
    dominating = deg == nf - 1.0
    has_dominating = dominating.any(axis=1)
    every = np.ones(len(masks), dtype=bool)

    # ---- exponent -1 connectivity index, exact over denominator 3600
    prod = deg[:, :, None] * deg[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(a > 0, 3600.0 / np.where(prod > 0, prod, 1.0), 0.0)
    r_minus_1 = scaled.sum(axis=(1, 2)) / 2.0 / 3600.0

    # ---- normalized two-trace intervals
    rad = 2.0 * (nf - 1.0) * r_minus_1 - nf
    assert rad.min() > -1e-9
    rad = np.maximum(rad, 0.0)
    base = -1.0 / (nf - 1.0)
    wide = np.sqrt((nf - 2.0) * rad) / (nf - 1.0)
    narrow = np.sqrt(rad / (nf - 2.0)) / (nf - 1.0)
    records.append(
        BulkRecord("Thm4.1", LAMBDA_2, base + narrow, base + wide, every, "normalized")
    )
    records.append(
        BulkRecord("Thm4.1", LAMBDA_N, base - wide, base - narrow, every, "normalized")
    )

    # ---- normalized bipartite lambda_2
    if n >= 4:
        bip = batch_bipartite(masks, n)
        rad = r_minus_1 - 1.0
        if bip.any():
            assert rad[bip].min() > -1e-9
        rad = np.maximum(rad, 0.0)
        lo = np.sqrt(2.0 * rad / ((nf - 2.0) * (nf - 3.0)))
        hi = np.sqrt(2.0 * (nf - 3.0) * rad / (nf - 2.0))
        records.append(BulkRecord("Thm4.3", LAMBDA_2, lo, hi, bip, "normalized"))

    # ---- normalized dominating-vertex disk bounds
    val = 1.0 / deg + 2.0 * deg / (nf - 1.0)
    two_smallest = np.partition(val, 1, axis=1)[:, :2]
    argmin = val.argmin(axis=1)
    min_excl = np.where(
        idx[None, :] == argmin[:, None],
        two_smallest[:, 1][:, None],
        two_smallest[:, 0][:, None],
    )
    best = np.max(np.where(dominating, min_excl, -np.inf), axis=1)
    lower44 = -2.0 - 2.0 / (nf - 1.0) + best
    upper44 = 2.0 - best
    records.append(
        BulkRecord("Thm4.4", LAMBDA_2, lower44, upper44, has_dominating, "normalized")
    )
    records.append(
        BulkRecord("Thm4.4", LAMBDA_N, lower44, upper44, has_dominating, "normalized")
    )

    # ---- normalized dominating-vertex oval bounds
    rho = np.maximum(0.0, 2.0 - 1.0 / deg - (2.0 * deg - 1.0) / (nf - 1.0))
    top3 = -np.partition(-rho, 2, axis=1)[:, :3]
    r1, r2, r3 = top3[:, 0][:, None], top3[:, 1][:, None], top3[:, 2][:, None]
    prod_excl = np.where(rho == r1, r2 * r3, np.where(rho == r2, r1 * r3, r1 * r2))
    half = np.min(np.where(dominating, np.sqrt(prod_excl), np.inf), axis=1)
    centre = -1.0 / (nf - 1.0)
    records.append(
        BulkRecord("Thm4.5", LAMBDA_2, centre - half, centre + half, has_dominating, "normalized")
    )
    records.append(
        BulkRecord("Thm4.5", LAMBDA_N, centre - half, centre + half, has_dominating, "normalized")
    )

    # ---- Laplacian two-trace intervals
    sum_d = deg.sum(axis=1)
    sum_sq = (deg * deg).sum(axis=1)
    m = sum_d / (nf - 1.0)
    spread = sum_sq + sum_d - sum_d * sum_d / (nf - 1.0)
    assert spread.min() > -1e-9
    spread = np.maximum(spread, 0.0)
    wide = np.sqrt((nf - 2.0) * spread / (nf - 1.0))
    narrow = np.sqrt(spread / ((nf - 1.0) * (nf - 2.0)))
    records.append(BulkRecord("Thm5.2", LAMBDA_1, m + narrow, m + wide, every, "laplacian"))
    records.append(
        BulkRecord("Thm5.2", LAMBDA_N_MINUS_1, m - wide, m - narrow, every, "laplacian")
    )

    # ---- Laplacian common-neighbour disk bounds
    di = deg[:, :, None]
    dk = deg[:, None, :]
    alpha = -di + 2.0 * common + a
    beta = di + 2.0 * dk - 2.0 * common - a
    alpha[:, idx, idx] = np.inf
    beta[:, idx, idx] = -np.inf
    lower53 = alpha.min(axis=2).max(axis=1)
    upper53 = beta.max(axis=2).min(axis=1)
    records.append(BulkRecord("Thm5.3", LAMBDA_1, lower53, upper53, every, "laplacian"))
    records.append(
        BulkRecord("Thm5.3", LAMBDA_N_MINUS_1, lower53, upper53, every, "laplacian")
    )

    # ---- Laplacian dominating-vertex oval bounds, both radius modes
    for mode, offset in (("published", 0.0), ("corrected", 1.0)):
        rj = nf - offset - di
        rk = nf - offset - dk
        disc = np.sqrt((di - dk) ** 2 + 4.0 * rj * rk)
        lo_pair = 0.5 * (di + dk + 2.0 - disc)
        hi_pair = 0.5 * (di + dk + 2.0 + disc)
        best_lower = np.full(len(masks), -np.inf)
        best_upper = np.full(len(masks), np.inf)
        for i in range(n):
            mask = np.ones((n, n), dtype=bool)
            mask[i, :] = False
            mask[:, i] = False
            np.fill_diagonal(mask, False)
            lo_i = np.where(mask[None, :, :], lo_pair, np.inf).min(axis=(1, 2))
            hi_i = np.where(mask[None, :, :], hi_pair, -np.inf).max(axis=(1, 2))
            take = dominating[:, i]
            best_lower = np.where(take, np.maximum(best_lower, lo_i), best_lower)
            best_upper = np.where(take, np.minimum(best_upper, hi_i), best_upper)
        tag = f"Thm5.4[{mode}]"
        records.append(
            BulkRecord(tag, LAMBDA_1, best_lower, best_upper, has_dominating, "laplacian")
        )
        records.append(
            BulkRecord(
                tag, LAMBDA_N_MINUS_1, best_lower, best_upper, has_dominating, "laplacian"
            )
        )
    return records


def bulk_soundness_violations(
    masks: np.ndarray, n: int, slack: float = 1e-8, chunk: int = 1 << 16
) -> tuple[int, int, list]:
    """Check every bulk record against LAPACK spectra.

    Returns (checks_performed, violation_count, example_violations).
    """
    checks = 0
    violations = 0
    examples: list = []
    for start in range(0, len(masks), chunk):
        part = masks[start : start + chunk]
        a, deg = masks_to_batch(part, n)
        lap, nrm = batch_oracle(a, deg)
        spectra = {"laplacian": lap, "normalized": nrm}
        for rec in bulk_bounds(part, n):
            values = spectra[rec.oracle_kind][:, TARGET_INDEX[rec.target]]
            bad = rec.applicable & (
                (values < rec.lower - slack) | (values > rec.upper + slack)
            )
            checks += int(rec.applicable.sum())
            if bad.any():
                violations += int(bad.sum())
                for offset in np.flatnonzero(bad)[:3]:
                    examples.append(
                        (
                            rec.theorem,
                            rec.target,
                            int(part[offset]),
                            n,
                            float(rec.lower[offset]),
                            float(rec.upper[offset]),
                            float(values[offset]),
                        )
                    )
    return checks, violations, examples


# ---------------------------------------------------------------------------
# per-graph library path


_POSITION = {LAMBDA_1: 0, LAMBDA_2: 1, LAMBDA_N_MINUS_1: -2, LAMBDA_N: -1}
# index into a DESCENDING eigenvalue tuple


def check_graph_with_library(
    g: Graph, slack: float = 1e-8, kinds=tuple(GraphMatrixKind)
) -> tuple[int, list]:
    """Evaluate every applicable theorem (both Thm5.4 modes) via bounds_report."""
    checks = 0
    bad = []
    for kind in kinds:
        intervals = list(bounds_report(g, kind, mode="published").bounds)
        intervals += [
            b
            for b in bounds_report(g, kind, mode="corrected").bounds
            if b.theorem == "Thm5.4"
        ]
        if not intervals:
            continue
        values = graph_spectrum(g, kind).values
        for bound in intervals:
            value = values[_POSITION[bound.target]]
            checks += 1
            if not (bound.lower - slack <= value <= bound.upper + slack):
                bad.append(
                    (bound.theorem, bound.target, g.n, g.m, bound.assumptions,
                     bound.lower, bound.upper, value)
                )
    return checks, bad


def select_adjacency_subset(masks: np.ndarray, n: int) -> np.ndarray:
    """Masks of graphs where some adjacency-matrix theorem might apply.

    Over-selects (regular, or bipartite with at most two distinct degree
    values, which covers biregular); bounds_report makes the exact call.
    """
    _, deg = masks_to_batch(masks, n)
    regular = deg.max(axis=1) == deg.min(axis=1)
    if n < 4:
        return masks[regular]
    bip = batch_bipartite(masks, n)
    distinct = (np.diff(np.sort(deg, axis=1), axis=1) != 0).sum(axis=1) + 1
    return masks[regular | (bip & (distinct <= 2))]


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
