"""Spans and counters recorded from outside the program.

The tracer wraps the public functions of ``eigenloc.graphs``, ``bounds``,
``regions``, ``oracle`` and ``cli``.  A module that did ``from .graphs
import classify`` holds its own reference, so each wrapper is patched into
every eigenloc module (and the package) that holds the original function.
``Capture`` uses the same patching to record what the two eigensolver
entry points returned, for the LAPACK cross-check.

Spans carry a name, start, end, parent and job id and stay in memory until
the run ends.  A layer's self time is its span's duration minus the part of
that interval covered by its child spans.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from importlib import import_module
from inspect import isfunction
from time import perf_counter

LAYER_MODULES = ("graphs", "bounds", "regions", "oracle", "cli")

_THEOREMS = {
    "regular_adjacency_bounds": "Thm3.1",
    "biregular_bipartite_lambda2_bounds": "Thm3.4",
    "regular_bipartite_lambda2_bounds": "Cor3.6",
    "regular_common_neighbor_bounds": "Thm3.7",
    "regular_brauer_common_neighbor_bounds": "Thm3.9",
    "normalized_trace_bounds": "Thm4.1",
    "normalized_bipartite_lambda2_bounds": "Thm4.3",
    "normalized_dominating_gersgorin_bounds": "Thm4.4",
    "normalized_dominating_brauer_bounds": "Thm4.5",
    "laplacian_trace_bounds": "Thm5.2",
    "laplacian_common_neighbor_bounds": "Thm5.3",
    "laplacian_dominating_brauer_bounds": "Thm5.4",
}
THEOREM_TAGS = tuple(_THEOREMS.values())

# span name per public function; the rest of a module's public functions
# record as "<module>.other"
SPAN_NAMES = {
    "graphs": {
        "parse_edge_list": "graphs.parse",
        "graph_from_json": "graphs.parse",
        "classify": "graphs.classify",
        "build_matrix": "graphs.build_matrix",
    },
    "bounds": {
        **{fn: f"bounds.{tag}" for fn, tag in _THEOREMS.items()},
        "bounds_report": "bounds.report",
        "report_to_json": "bounds.format",
        "report_to_csv": "bounds.format",
    },
    "regions": {
        **{fn: "regions.build" for fn in (
            "gersgorin_region", "brauer_region", "rowsum_gersgorin_region", "rowsum_brauer_region")},
        **{fn: "regions.slack" for fn in ("region_slack", "region_contains", "region_slack_grid")},
        "real_section": "regions.section",
        **{fn: "regions.json" for fn in (
            "region_to_json", "region_from_json", "matrix_to_json", "matrix_from_json")},
    },
    "oracle": {
        "symmetric_eigenvalues": "oracle.jacobi",
        "normalized_spectrum": "oracle.normalized",
        "charpoly": "oracle.charpoly",
        "complex_eigenvalues": "oracle.aberth",
    },
    "cli": {
        "main": "cli",
        "verify_graph": "cli",
        "verify_matrix": "cli",
        "check_interval": "cli.check",
        "check_region": "cli.check",
        "region_to_svg": "cli.svg",
    },
}
# called O(n^3) times by Thm3.9: counted, not spanned, so its time stays in
# the theorem that calls it
COUNT_ONLY = {("graphs", "common_neighbors"): "graphs.common_neighbors.calls"}

ROOT = "bench"


def patch_everywhere(original, replacement, undo: list) -> None:
    """Replace every reference to ``original`` held by an eigenloc module."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "eigenloc" or modname.startswith("eigenloc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def restore(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)
    undo.clear()


class Capture:
    """Records (function name, input matrix, eigenvalues) of every oracle call."""

    NAMES = ("symmetric_eigenvalues", "complex_eigenvalues")

    def __init__(self) -> None:
        self.calls: list = []
        self._undo: list = []

    def install(self) -> None:
        import eigenloc.oracle as oracle

        for name in self.NAMES:
            fn = getattr(oracle, name)

            def wrapper(matrix, *args, _fn=fn, _name=name, **kwargs):
                spectrum = _fn(matrix, *args, **kwargs)
                self.calls.append((_name, matrix, spectrum.values))
                return spectrum

            patch_everywhere(fn, wrapper, self._undo)

    def uninstall(self) -> None:
        restore(self._undo)


class Tracer:
    """Span recorder; records only while a job is open."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.counts: Counter = Counter()
        self.observed: list = []
        self._stack: list[int] = []
        self.job: int | None = None
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self.job)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def begin_job(self, job: int) -> int:
        self.job = job
        return self.open(ROOT)

    def end_job(self, root: int) -> None:
        self.close(root)
        self.job = None

    def _span(self, fn, name: str):
        observe = name in ("regions.build", "regions.slack", "regions.section", "bounds.report")

        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe:
                self.observed.append((name, idx, args[0] if args else None, result))
            self.counts[name] += 1
            return result

        return wrapper

    def _counter(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.job is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for layer in LAYER_MODULES:
            mod = import_module(f"eigenloc.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                count_name = COUNT_ONLY.get((layer, attr))
                if count_name:
                    wrapper = self._counter(fn, count_name)
                else:
                    wrapper = self._span(fn, SPAN_NAMES[layer].get(attr, f"{layer}.other"))
                patch_everywhere(fn, wrapper, self._undo)

    def uninstall(self) -> None:
        restore(self._undo)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the part of it its children cover."""
        covered = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                lo = max(self.starts[idx], self.starts[parent])
                hi = min(self.ends[idx], self.ends[parent])
                covered[parent] += max(0.0, hi - lo)
        return [e - s - c for s, e, c in zip(self.starts, self.ends, covered)]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "job": self.jobs[i],
                }) + "\n")

    def summary(self, job_walls: dict[int, float], passes: int, leaves) -> tuple[dict, dict, float]:
        """Per-pass self time per span name, per-pass counters, and the worst
        per-job accounting error |sum of self times - job wall time|.

        ``leaves(region)`` returns a region's leaf counts ``(leaves, ovals)``.
        """
        self_t = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        per_job: dict[int, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            by_name[name] += self_t[i]
            per_job[self.jobs[i]] += self_t[i]
        worst = max((abs(per_job[j] - wall) for j, wall in job_walls.items()), default=0.0)

        counts = Counter(self.counts)
        applied = considered = 0
        cache: dict[int, tuple[int, int]] = {}
        for name, idx, arg, result in self.observed:
            if name == "bounds.report":
                applied += len({b.theorem for b in result.bounds})
                considered += len({b.theorem for b in result.bounds}) + len(result.skipped)
                continue
            region = result if name == "regions.build" else arg
            if id(region) not in cache:
                cache[id(region)] = leaves(region)
            n_leaves, n_ovals = cache[id(region)]
            if name == "regions.build":
                counts["regions.leaves"] += n_leaves
            elif name == "regions.slack":
                counts["regions.slack_evals"] += n_leaves
            elif self.names[self.parents[idx]] != "regions.section":
                counts["regions.section.ovals"] += n_ovals
        layers = {name: total / passes for name, total in by_name.items()}
        per_pass = {name: value / passes for name, value in counts.items()}
        per_pass["bounds.applied_frac"] = applied / considered if considered else 0.0
        return layers, per_pass, worst
