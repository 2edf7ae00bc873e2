"""Benchmark entry point.

    python3 bench/run.py --workload graph_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones (and, in the
table above the result, the end-to-end ones of its untraced run too).  The
last line of standard output is the result object; the lines before it are
a readable table, the environment and any failed jobs.

Each workload process is fresh and single-threaded (BLAS pinned to one
thread).  ``setup_s`` is the median over several fresh processes of the
time from spawning the interpreter to the first job being ready.

Times are reported at a reference machine speed: each is multiplied by
REF_CAL_S / (time of a fixed calibration kernel measured next to it, see
``worker.calibrate``): per job for the job metrics (the median of the
kernel timed before it and before each of its CAL_NEIGHBOURS neighbours on
either side), per process for ``setup_s``.  On a shared host the machine's
speed drifts by up to 1.7x between runs; the kernel follows it (correlation
0.98 with a fixed eigenloc job on a shared 2-vCPU Xeon virtual machine) but
does not run eigenloc, so a change to the program still shows in full.  The table above the result
also prints the raw wall-clock values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
# the calibration kernel's time on the reference machine: about its median
# on a shared 2-vCPU Xeon virtual machine at 2.1 GHz
REF_CAL_S = 1.5e-3
CAL_NEIGHBOURS = 2
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))
from tracer import THEOREM_TAGS  # noqa: E402
from workloads import WORKLOADS, pass_count  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metric -> (source in the traced report, unit)
PER_LAYER = {
    **{f"bounds.{tag}.self_s": (f"layers:bounds.{tag}", "s") for tag in THEOREM_TAGS},
    "graphs.common_neighbors.calls": ("counts:graphs.common_neighbors.calls", "count"),
    "graphs.parse.self_s": ("layers:graphs.parse", "s"),
    "graphs.classify.self_s": ("layers:graphs.classify", "s"),
    "graphs.classify.calls": ("counts:graphs.classify", "count"),
    "graphs.build_matrix.self_s": ("layers:graphs.build_matrix", "s"),
    "graphs.other.self_s": ("layers:graphs.other", "s"),
    "bounds.report.self_s": ("layers:bounds.report", "s"),
    "bounds.format.self_s": ("layers:bounds.format", "s"),
    "bounds.applied_frac": ("counts:bounds.applied_frac", "ratio"),
    "oracle.jacobi.self_s": ("layers:oracle.jacobi", "s"),
    "oracle.jacobi.calls": ("counts:oracle.jacobi", "count"),
    "oracle.normalized.self_s": ("layers:oracle.normalized", "s"),
    "regions.build.self_s": ("layers:regions.build", "s"),
    "regions.leaves": ("counts:regions.leaves", "count"),
    "regions.slack.self_s": ("layers:regions.slack", "s"),
    "regions.slack_evals": ("counts:regions.slack_evals", "count"),
    "regions.section.self_s": ("layers:regions.section", "s"),
    "regions.section.ovals": ("counts:regions.section.ovals", "count"),
    "regions.json.self_s": ("layers:regions.json", "s"),
    "regions.other.self_s": ("layers:regions.other", "s"),
    "cli.svg.self_s": ("layers:cli.svg", "s"),
    "oracle.charpoly.self_s": ("layers:oracle.charpoly", "s"),
    "oracle.aberth.self_s": ("layers:oracle.aberth", "s"),
    "oracle.complex.calls": ("counts:oracle.aberth", "count"),
    "oracle.lapack_max_err": ("report:lapack_max_err", "abs"),
    "cli.self_s": ("layers:cli", "s"),
    "cli.check.self_s": ("layers:cli.check", "s"),
    "bench.self_s": ("report:bench_self_s", "s"),
    "trace.overhead_frac": ("report:overhead_frac", "ratio"),
}


class BenchError(RuntimeError):
    pass


def spawn(args, mode: str, index: int, passes: int = 0) -> tuple[dict, float]:
    """Run one fresh worker process; returns its report and its set-up time."""
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    report_path = workdir / "report.json"
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--passes", str(passes), "--workdir", str(workdir.relative_to(ROOT)),
           "--report", str(report_path)]
    try:
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0 or not report_path.exists():
            raise BenchError(f"{mode} worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
        report = json.loads(report_path.read_text())
        if mode == "traced":
            # keep the spans of the latest traced run for inspection
            shutil.copy(workdir / "spans.jsonl", WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report, report["ready"] - t0


def environment(args, report: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": report["python"],
        "numpy": report["numpy"],
        "mpmath": report["mpmath"],
        "eigenloc": report["eigenloc"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "jobs": len(report["latencies"]),
        "passes": report["passes"],
        "jobs_per_pass": report["jobs_per_pass"],
    }


def scaled_latencies(report: dict, normalize: bool = True) -> list[float]:
    """Each job's latency at reference speed.  The machine's speed is taken
    as the median of the calibration kernels timed around the job: one
    kernel is too noisy (a 1.5-ms sample is often cut by the scheduler),
    a whole pass too long (the speed changes within seconds)."""
    lat, cals = report["latencies"], report["job_cals"]
    if not normalize:
        return list(lat)
    k = CAL_NEIGHBOURS
    return [t * REF_CAL_S / statistics.median(cals[max(0, i - k):i + k + 1])
            for i, t in enumerate(lat)]


def end_to_end(report: dict, setups: list[float], normalize: bool = True) -> dict:
    """The latency quantiles are taken per pass (every pass has the same job
    mix) and averaged over passes.  The machine's speed switches between
    fast and slow modes every 10-60 s; a quantile pooled over the whole run
    jumps between the modes as their shares cross, while the mean over
    passes moves in proportion to them."""
    lat, per = scaled_latencies(report, normalize), report["jobs_per_pass"]
    passes = [lat[i:i + per] for i in range(0, len(lat), per)]
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_s": statistics.fmean(statistics.median(p) for p in passes),
        "job_p90_s": statistics.fmean(statistics.quantiles(p, n=10)[8] for p in passes),
        "peak_rss_mb": report["maxrss_kb"] / 1024.0,
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    overhead = sum(scaled_latencies(traced)) / sum(scaled_latencies(untraced)) - 1.0
    traced = dict(traced, overhead_frac=overhead)
    out = {}
    for name, (source, _) in PER_LAYER.items():
        where, key = source.split(":", 1)
        table = traced if where == "report" else traced[where]
        out[name] = float(table.get(key, 0.0))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "eigenloc" / "__init__.py").is_file():
        print("error: src/eigenloc not found; run from the root of an eigenloc checkout",
              file=sys.stderr)
        return 2

    try:
        samples = [spawn(args, "setup", i) for i in range(0 if args.trace else SETUP_SAMPLES - 1)]
        report, setup = spawn(args, "run", SETUP_SAMPLES, pass_count(args.workload, args.seconds))
        samples.append((report, setup))
        raw_setups = [secs for _, secs in samples]
        setups = [secs * REF_CAL_S / rep["setup_cal"] for rep, secs in samples]
        e2e = end_to_end(report, setups)
        if args.trace:
            traced, _ = spawn(args, "traced", SETUP_SAMPLES + 1, passes=report["passes"])
            layers = per_layer(traced, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    run_report = traced if args.trace else report
    failures = run_report["failures"]
    attempted = len(run_report["latencies"])
    verdict_failures = [f for f in failures if f["verdict"]]
    accounting_ok = not args.trace or traced["accounting_err_s"] <= 1e-4

    raw = end_to_end(report, raw_setups, normalize=False)
    for name, value in e2e.items():
        print(f"{name:34s} {value:14.6g} {END_TO_END[name]:5s} (wall clock {raw[name]:.6g})")
    print(f"{'fail_frac':34s} {len(report['failures']) / len(report['latencies']):14.6g} "
          f"ratio ({len(report['failures'])}/{len(report['latencies'])} jobs)")
    if args.trace:
        for name, value in layers.items():
            print(f"{name:34s} {value:14.6g} {PER_LAYER[name][1]}")
        print(f"{'trace.accounting_err_s':34s} {traced['accounting_err_s']:14.6g} s")
    for f in failures:
        kind = "verdict" if f["verdict"] else "value"
        print(f"FAILED [{kind}] {f['request']}: {'; '.join(f['problems'])}")
    print("env " + json.dumps(environment(args, report)))

    if args.trace:
        metrics = {name: {"value": v, "unit": PER_LAYER[name][1]} for name, v in layers.items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in e2e.items()}
    print(json.dumps({
        "correct": not verdict_failures and accounting_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
