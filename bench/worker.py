"""One workload in one fresh process: set up, run passes, check outputs.

Run by ``run.py``; prints nothing of its own and writes a JSON report to
``--report``.  Modes:

* ``setup``  -- import, generate the first pass, write its files, stop;
* ``run``    -- closed loop, one client, exactly ``--passes`` passes (fewer
  only if the timed time reaches MAX_SLOWDOWN x ``--seconds`` first);
* ``traced`` -- the same passes as the run before it, with every public
  eigenloc function wrapped in a span.

Input generation and output checks happen between passes, with the clock
stopped.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import eigenloc  # noqa: E402
from eigenloc import cli, regions  # noqa: E402

import checks  # noqa: E402
from tracer import ROOT as ROOT_SPAN, Capture, Tracer  # noqa: E402
from workloads import Workload  # noqa: E402

# a machine this many times slower than the reference stops early, so that
# the run still ends within its time limit
MAX_SLOWDOWN = 2.0
BUILDERS = {
    "gersgorin": "gersgorin_region",
    "brauer": "brauer_region",
    "rowsum-gersgorin": "rowsum_gersgorin_region",
    "rowsum-brauer": "rowsum_brauer_region",
}


def calibrate() -> float:
    """Time a fixed kernel with eigenloc's mix of interpreter work and small
    numpy operations.  It does not touch eigenloc, so it measures only the
    machine's current speed."""
    start = time.perf_counter()
    counts: dict[int, float] = {}
    acc = 0.0
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0.0) + i
        acc += math.sqrt(i + 1.0) + ((i, i + 1)[0] & 7)
    a = np.arange(64.0)
    for _ in range(60):
        a = np.abs(a - 1.5) * 1.0001
    return time.perf_counter() - start


def run_job(job) -> checks.Outcome:
    """Send one request through the public entry point and keep what it produced."""
    if job.request == "section":
        # looked up at call time so that the tracer's wrappers are used
        region = getattr(regions, BUILDERS[job.method])(job.matrix)
        return checks.Outcome(rc=0, value=regions.real_section(region))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(job.argv)
        except SystemExit as exc:
            rc = exc.code
    return checks.Outcome(rc=rc, stdout=out.getvalue(), stderr=err.getvalue())


def leaf_counts(region) -> tuple[int, int]:
    """(leaves, ovals) of a region tree."""
    if hasattr(region, "children"):
        parts = [leaf_counts(c) for c in region.children]
        return sum(p[0] for p in parts), sum(p[1] for p in parts)
    return 1, int(isinstance(region, regions.CassiniOval))


def run(args, workload: Workload, first_pass) -> dict:
    capture = Capture()
    tracer = Tracer() if args.mode == "traced" else None
    if tracer:
        tracer.install()
    capture.install()
    latencies: list[float] = []
    failures: list[dict] = []
    job_cals: list[float] = []
    lapack_max_err = 0.0
    jobs, passes = first_pass, 0
    while True:
        outcomes = []
        for job in jobs:
            job_cals.append(calibrate())
            capture.calls = []
            t0 = time.perf_counter()
            root = tracer.begin_job(len(latencies)) if tracer else None
            try:
                outcome = run_job(job)
            except Exception:  # a raising job is a failed job; the loop goes on
                outcome = checks.Outcome(error=traceback.format_exc(limit=3))
            finally:
                if tracer:
                    tracer.end_job(root)
            t1 = time.perf_counter()
            # traced, the job's time is its root span's, so that a pause
            # between the clock reads and the span's bookkeeping cannot
            # show up as unaccounted time
            latencies.append(tracer.ends[root] - tracer.starts[root] if tracer else t1 - t0)
            outcome.oracle_calls = capture.calls
            outcomes.append(outcome)
        passes += 1
        for job, outcome in zip(jobs, outcomes):
            try:
                problems, err = checks.check_job(job, outcome)
            except Exception as exc:  # output the checks cannot even parse
                problems, err = [(True, f"unparsable output: {exc!r}")], 0.0
            lapack_max_err = max(lapack_max_err, err)
            if problems:
                failures.append({
                    "request": " ".join(job.argv) or f"section {job.method} n={job.matrix.shape[0]}",
                    "verdict": any(v for v, _ in problems),
                    "problems": [msg for _, msg in problems][:3],
                })
        slow = args.mode == "run" and sum(latencies) >= MAX_SLOWDOWN * args.seconds
        if passes >= args.passes or slow:
            break
        jobs = workload.next_pass()
    capture.uninstall()
    report = {
        "latencies": latencies,
        "job_cals": job_cals,
        "passes": passes,
        "jobs_per_pass": len(first_pass),
        "failures": failures,
        "lapack_max_err": lapack_max_err,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.uninstall()
        tracer.write(os.path.join(args.workdir, "spans.jsonl"))
        layers, counts, worst = tracer.summary(dict(enumerate(latencies)), passes, leaf_counts)
        report.update(layers=layers, counts=counts, accounting_err_s=worst,
                      bench_self_s=layers.get(ROOT_SPAN, 0.0))
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()

    workload = Workload(args.workload, args.seed, args.workdir)
    first_pass = workload.next_pass()
    report = {
        "ready": time.monotonic(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "eigenloc": eigenloc.__version__,
        "setup_cal": statistics.median(calibrate() for _ in range(15)),
    }
    if args.mode != "setup":
        report.update(run(args, workload, first_pass))
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
