"""Smoke test of the benchmark itself: python3 -m pytest bench -q

Runs one small job of every request type of each workload in-process,
untraced and traced, and checks the metric names and units against
BENCHMARK.json, that known-good jobs pass, that the trace accounts for
every job's wall time, and that wrong oracle values are counted as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import patch_everywhere, restore  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_jobs(name: str, workdir: Path) -> list:
    """The smallest job of each request type in the first pass."""
    picked = {}
    for job in Workload(name, seed=0, workdir=str(workdir)).next_pass():
        size = max(job.graphs) if job.graphs else job.matrix.shape[0]
        if job.request not in picked or size < picked[job.request][0]:
            picked[job.request] = (size, job)
    return [job for _, job in picked.values()]


def run_jobs(jobs, workdir: Path, mode: str = "run") -> dict:
    args = Namespace(mode=mode, passes=1, seconds=0.0, workdir=str(workdir))
    return worker.run(args, None, jobs)


@pytest.mark.parametrize("name", WORKLOADS)
def test_metrics_named_with_units_and_known_good_jobs_pass(name, tmp_path):
    jobs = tiny_jobs(name, tmp_path)
    plain = run_jobs(jobs, tmp_path)
    traced = run_jobs(jobs, tmp_path, mode="traced")
    assert plain["failures"] == [] and traced["failures"] == []

    ten = plain["latencies"] * 10  # a pass big enough for its 90th percentile
    big = dict(plain, latencies=ten, job_cals=plain["job_cals"] * 10, jobs_per_pass=len(ten))
    e2e = run.end_to_end(big, [0.3])
    layers = run.per_layer(traced, plain)
    units = {**run.END_TO_END, **{k: unit for k, (_, unit) in run.PER_LAYER.items()}}
    for group, measured in (("end_to_end", e2e), ("per_layer", layers)):
        declared = {m["name"]: m["unit"] for m in SPEC[group]}
        assert set(measured) == set(declared)
        assert all(units[metric] == unit for metric, unit in declared.items())
    assert traced["accounting_err_s"] <= 1e-4
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def _shifted(fn, shift):
    """The oracle with its last eigenvalue moved by ``shift`` (the top one of a
    normalized spectrum is checked inside the program and must stay)."""
    def wrong(matrix, *args, **kwargs):
        spectrum = fn(matrix, *args, **kwargs)
        values = spectrum.values[:-1] + (spectrum.values[-1] + shift,)
        return type(spectrum)(values, spectrum.max_residual)
    return wrong


@pytest.mark.parametrize("name, oracle", [
    ("graph_sweep", "symmetric_eigenvalues"),
    ("graph_verify", "symmetric_eigenvalues"),
    ("matrix_regions", "complex_eigenvalues"),
])
def test_wrong_oracle_value_counts_as_failed(name, oracle, tmp_path):
    import eigenloc.oracle

    jobs = [j for j in tiny_jobs(name, tmp_path) if j.request in ("sweep", "verify", "verify-matrix")]
    undo: list = []
    fn = getattr(eigenloc.oracle, oracle)
    patch_everywhere(fn, _shifted(fn, 1e-6), undo)
    try:
        report = run_jobs(jobs, tmp_path)
    finally:
        restore(undo)
    assert len(report["failures"]) == len(jobs)
    assert all("LAPACK" in " ".join(f["problems"]) for f in report["failures"])


def test_section_missing_a_real_eigenvalue_is_a_verdict_failure(tmp_path):
    from checks import Outcome, check_job
    from eigenloc import regions

    job = next(j for j in tiny_jobs("matrix_regions", tmp_path) if j.request == "section")
    job.matrix = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    empty = regions.RealSection((), ())
    problems, _ = check_job(job, Outcome(rc=0, value=empty))
    assert problems and all(verdict for verdict, _ in problems)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "graph_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
