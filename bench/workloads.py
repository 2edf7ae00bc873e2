"""Seeded job generators for the three benchmark workloads.

A workload is a sequence of passes.  Every pass has the same job count and
the same size mix for every seed; the seed only chooses the graphs and
matrices.  Inputs are fresh in every pass (new random graphs, relabellings
and matrices), so a cache keyed on whole requests gains nothing across
passes, while the three requests for one graph (one per matrix kind) sit
next to each other in a pass, so a per-graph cache can.

The program only ever sees the generated files and the argv; each job also
carries the benchmark's own description of its input (edge lists, dense
matrices) for the LAPACK cross-checks in ``checks.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

KINDS = ("adjacency", "laplacian", "normalized")
WORKLOADS = ("graph_sweep", "graph_verify", "matrix_regions")
VERIFY_FAMILIES = ("complete", "cycle", "path", "star", "complete_bipartite", "complete_minus_edge")


@dataclass
class Job:
    """One request: a CLI argv (``request`` != "section") or a library call.

    ``graphs`` maps n to the edge list of every graph the request names (a
    sweep names several); ``matrix`` is the dense input of matrix requests.
    """

    request: str
    argv: list[str] = field(default_factory=list)
    kind: str = ""
    graphs: dict = field(default_factory=dict)
    matrix: np.ndarray | None = None
    method: str = ""
    files: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# graphs, built independently of eigenloc (labels are 1-based)


def family_edges(name: str, n: int, offsets=(1, 2)) -> list[tuple[int, int]]:
    """Edges of a named family, with the sweep subcommand's conventions."""
    if name == "complete":
        return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if name == "complete_minus_edge":
        return [e for e in family_edges("complete", n) if e != (1, 2)]
    if name == "cycle":
        return [(i, i + 1) for i in range(1, n)] + [(1, n)]
    if name == "path":
        return [(i, i + 1) for i in range(1, n)]
    if name == "star":
        return [(1, i) for i in range(2, n + 1)]
    if name == "complete_bipartite":
        p = n - n // 2
        return [(i, p + j) for i in range(1, p + 1) for j in range(1, n // 2 + 1)]
    if name == "circulant":
        steps = {min(s % n, n - s % n) for s in offsets}
        return sorted({tuple(sorted((i, (i - 1 + s) % n + 1))) for i in range(1, n + 1) for s in steps})
    raise ValueError(f"unknown family {name!r}")


def random_connected(rng, n: int, extra_degree: float = 2.0) -> list[tuple[int, int]]:
    """A random spanning tree plus each other pair with probability ~extra_degree/n."""
    order = rng.permutation(n) + 1
    edges = {tuple(sorted((int(order[i]), int(order[rng.integers(i)])))) for i in range(1, n)}
    p = min(1.0, extra_degree / n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < p:
                edges.add((i, j))
    return sorted(edges)


def relabel(rng, n: int, edges) -> list[tuple[int, int]]:
    perm = rng.permutation(n) + 1
    return sorted(tuple(sorted((int(perm[u - 1]), int(perm[v - 1])))) for u, v in edges)


def circulant_offsets(rng, n: int, count: int = 3) -> tuple[int, ...]:
    """Distinct offsets below n/2 whose gcd with n is 1, so the circulant is connected."""
    while True:
        offsets = tuple(int(s) for s in rng.choice(np.arange(1, (n - 1) // 2 + 1), count, replace=False))
        if np.gcd.reduce([n, *offsets]) == 1:
            return offsets


def edge_list_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def graph_json_text(n: int, edges) -> str:
    return json.dumps({"n": n, "edges": [list(e) for e in edges]})


def matrix_json_text(a: np.ndarray) -> str:
    rows = [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in a]
    return json.dumps({"n": a.shape[0], "entries": rows})


def random_matrix(rng, n: int, dist: str, rowsum: bool) -> np.ndarray:
    """``square``: entries uniform on the unit square; ``real``: uniform on [-1, 1].

    With ``rowsum`` the diagonal is shifted so every row sums to the mean
    row sum, the constant-row-sum case the deflated regions need.
    """
    if dist == "square":
        a = rng.random((n, n)) + 1j * rng.random((n, n))
    else:
        a = (2.0 * rng.random((n, n)) - 1.0).astype(complex)
    if rowsum:
        sums = a.sum(axis=1)
        a[np.arange(n), np.arange(n)] += sums.mean() - sums
    return a


class _Unique:
    """Redraws a request key until it is new in this run, while new keys last."""

    def __init__(self) -> None:
        self.used: set = set()

    def draw(self, rng, make):
        for _ in range(200):
            key, value = make(rng)
            if key not in self.used:
                break
        self.used.add(key)
        return value


# Pass layouts.  Each pass is laid out in cost classes so that the median
# and the 90th percentile of job latency fall inside a group of jobs of
# nearly equal cost, not in the gap between two groups: a quantile that
# falls in a gap jumps between the groups from run to run.


def _graph_file(workdir: str, name: str, fmt: str, n: int, edges) -> tuple[str, dict]:
    """Path and {path: text} of a graph file in edge-list or graph-JSON format."""
    path = f"{workdir}/{name}.{'txt' if fmt == 'edges' else 'json'}"
    return path, {path: edge_list_text(n, edges) if fmt == "edges" else graph_json_text(n, edges)}


def _per_kind(request: str, argv: list[str], graphs: dict, files: dict | None = None) -> list[Job]:
    """One job per matrix kind; the input file is written once, with the first."""
    return [Job(request, argv + ["--matrix", kind], kind, graphs, files=files if i == 0 and files else {})
            for i, kind in enumerate(KINDS)]


# ---------------------------------------------------------------------------
# graph_sweep: bounds + Jacobi over families and graph files, all three kinds

# small sweeps over two members of a family near n
_SWEEP_SPECS = [("cycle", 8), ("complete_bipartite", 11), ("complete_minus_edge", 9), ("circulant", 12)]
# small bounds requests on graph files: (file format, graph, n); they are the
# cheapest jobs and hold the median
_SWEEP_FILES = [("edges", "random", 8), ("json", "star", 10), ("edges", "random", 14),
                ("json", "complete_bipartite", 13), ("edges", "random", 20), ("json", "cycle", 24),
                ("json", "random", 10), ("edges", "complete_minus_edge", 12),
                ("json", "random", 16), ("edges", "random", 18)]
_SWEEP_LARGE_N = 90
# seven n = 80 adjacency reports put the 90th percentile mid-group: about a
# tenth of the pass (3 large sweeps + half of them) lies above it
_SWEEP_LARGE_FILES = 7
_BOUNDS_LARGE_N = 80


def _sweep_pass(rng, index: int, unique: _Unique, workdir: str) -> list[Job]:
    jobs: list[Job] = []
    for family, n in _SWEEP_SPECS:
        def make(r, family=family, n=n):
            lo, step = int(n + r.integers(-1, 2)), int(r.integers(1, 4))
            return (family, lo, step), (f"{family}:{lo}..{lo + step}:{step}", (lo, lo + step))
        spec, sizes = unique.draw(rng, make)
        jobs += _per_kind("sweep", ["sweep", spec, "--out", "-"],
                          {m: family_edges(family, m) for m in sizes})
    for slot, (fmt, graph, n) in enumerate(_SWEEP_FILES):
        edges = random_connected(rng, n) if graph == "random" else relabel(rng, n, family_edges(graph, n))
        path, files = _graph_file(workdir, f"p{index}_s{slot}", fmt, n, edges)
        for job in _per_kind("bounds", ["bounds", "--edges", path], {n: edges}, files):
            job.argv += ["--format", ("json", "csv")[int(rng.integers(2))]]
            jobs.append(job)
    # top of the pass: one large circulant sweep (n alternates around
    # _SWEEP_LARGE_N so that no request repeats and any run of passes has
    # the same mean size) and bounds on relabelled regular circulants
    step = (index + 1) // 2 * (1 if index % 2 else -1)
    n = _SWEEP_LARGE_N + step
    jobs += _per_kind("sweep", ["sweep", f"circulant:{n}..{n}", "--out", "-"],
                      {n: family_edges("circulant", n)})
    n = _BOUNDS_LARGE_N
    for slot in range(_SWEEP_LARGE_FILES):
        edges = relabel(rng, n, family_edges("circulant", n, circulant_offsets(rng, n)))
        path, files = _graph_file(workdir, f"p{index}_l{slot}", "edges", n, edges)
        jobs += _per_kind("bounds", ["bounds", "--edges", path, "--format", "json"], {n: edges}, files)
    return jobs


# ---------------------------------------------------------------------------
# graph_verify: regions + slack over all three graph matrices

# cheap jobs, named families only here; five random graphs at n = 12 around
# the median; four circulants at n = 28 around the 90th percentile; one at
# n = 32 on top
_VERIFY_SLOTS = [(6, "random"), (6, "family"), (7, "random"), (7, "family"), (8, "random"),
                 (8, "family"), (9, "random"), (10, "random"),
                 (12, "random"), (12, "random"), (12, "random"), (12, "random"), (12, "random"),
                 (14, "random"), (16, "circulant"), (20, "circulant"), (24, "random"),
                 (28, "circulant"), (28, "circulant"), (28, "circulant"), (28, "circulant"),
                 (32, "circulant")]


def _verify_pass(rng, index: int, unique: _Unique, workdir: str) -> list[Job]:
    jobs = []
    for slot, (n, cls) in enumerate(_VERIFY_SLOTS):
        if cls == "family":
            def make(r, n=n):
                family = VERIFY_FAMILIES[r.integers(len(VERIFY_FAMILIES))]
                m = int(n + r.integers(-1, 2))
                return (family, m), (family, m)
            family, m = unique.draw(rng, make)
            argv = ["verify", "--family", family]
            argv += ["--p", str(m - m // 2), "--q", str(m // 2)] if family == "complete_bipartite" else ["--n", str(m)]
            jobs.append(Job("verify", argv, graphs={m: family_edges(family, m)}))
            continue
        if cls == "circulant":
            edges = relabel(rng, n, family_edges("circulant", n, circulant_offsets(rng, n)))
        else:
            edges = random_connected(rng, n)
        path, files = _graph_file(workdir, f"p{index}_s{slot}", ("edges", "json")[slot % 2], n, edges)
        jobs.append(Job("verify", ["verify", "--edges", path], graphs={n: edges}, files=files))
    return jobs


# ---------------------------------------------------------------------------
# matrix_regions: charpoly + Aberth, region JSON/SVG, real sections

# (request, n, distribution, constant row sum, method), cheapest class first
_MATRIX_SLOTS = [
    # cheap: JSON regions, disk sections, small verify
    ("json", 3, "square", True, "rowsum-brauer"), ("json", 4, "real", False, "brauer"),
    ("json", 5, "square", True, "rowsum-gersgorin"), ("json", 6, "real", True, "rowsum-brauer"),
    ("json", 7, "square", False, "gersgorin"), ("json", 8, "real", True, "rowsum-gersgorin"),
    ("section", 8, "real", False, "gersgorin"), ("section", 8, "real", True, "rowsum-gersgorin"),
    ("verify", 4, "real", True, ""), ("verify", 6, "square", False, ""),
    ("verify", 8, "real", False, ""), ("verify", 10, "square", True, ""),
    # around the median: oval sections of nearly fixed cost
    ("section", 5, "real", False, "brauer"), ("section", 5, "real", False, "brauer"),
    ("section", 5, "square", False, "brauer"), ("section", 5, "real", True, "brauer"),
    ("section", 5, "square", True, "brauer"), ("section", 4, "real", True, "rowsum-brauer"),
    ("section", 4, "real", True, "rowsum-brauer"), ("section", 4, "square", True, "rowsum-brauer"),
    ("verify", 12, "real", True, ""), ("verify", 12, "square", False, ""),
    # heavy: SVG oval tracing, large sections, verify up to n = 16
    ("svg", 4, "real", False, "brauer"), ("svg", 4, "real", True, "rowsum-brauer"),
    ("verify", 14, "square", False, ""), ("svg", 6, "square", False, "brauer"),
    ("section", 5, "real", True, "rowsum-brauer"), ("section", 8, "square", False, "brauer"),
    ("verify", 16, "square", True, ""), ("verify", 16, "square", False, ""),
]


def _matrix_pass(rng, index: int, unique: _Unique, workdir: str) -> list[Job]:
    jobs = []
    for slot, (request, n, dist, rowsum, method) in enumerate(_MATRIX_SLOTS):
        a = random_matrix(rng, n, dist, rowsum)
        if request == "section":
            jobs.append(Job("section", matrix=a, method=method))
            continue
        path = f"{workdir}/p{index}_m{slot}.json"
        if request == "verify":
            job = Job("verify-matrix", ["verify", "--matrix-file", path])
        else:
            job = Job(f"regions-{request}", ["regions", "--matrix-file", path, "--method", method,
                                             "--emit", request], method=method)
        job.matrix, job.files = a, {path: matrix_json_text(a)}
        jobs.append(job)
    return jobs


_PASS_BUILDERS = {
    "graph_sweep": _sweep_pass,
    "graph_verify": _verify_pass,
    "matrix_regions": _matrix_pass,
}

# Timed time of one pass at run.py's reference speed, at the commit that
# introduced the benchmark.  A run makes a fixed number of passes, so the
# same seed always gives the same jobs, the same `attempted` and (outputs
# being deterministic) the same `failed`, however fast the machine is.
REF_PASS_S = {"graph_sweep": 5.9, "graph_verify": 4.1, "matrix_regions": 5.0}
MIN_JOBS = 100


def pass_count(name: str, seconds: float) -> int:
    """Passes in a run of about ``seconds`` at reference speed, and at least
    MIN_JOBS jobs, so that ten latencies lie beyond the 90th percentile."""
    per_pass = len(_PASS_BUILDERS[name](np.random.default_rng(0), 0, _Unique(), ""))
    return max(-(-MIN_JOBS // per_pass), round(seconds / REF_PASS_S[name]))


class Workload:
    """Seeded pass generator; pass k is the same for a given seed in every process."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        if name not in _PASS_BUILDERS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.workdir = workdir
        self._build = _PASS_BUILDERS[name]
        self._rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self._unique = _Unique()
        self._made = 0

    def next_pass(self) -> list[Job]:
        """Generate the next pass and write its input files."""
        jobs = self._build(self._rng, self._made, self._unique, self.workdir)
        self._made += 1
        for job in jobs:
            for path, text in job.files.items():
                with open(path, "w") as fh:
                    fh.write(text)
        return jobs
