"""Independent output checks, run with the clock stopped.

Every job's output is checked against LAPACK (``numpy.linalg.eigvalsh`` and
``eigvals``) on matrices the benchmark builds itself.  A check returns a
list of problems, each ``(verdict, message)``:

* verdict problems are wrong answers a user acts on: an exception, a wrong
  exit code, a FAIL line, a sweep row with slack below -tol, an interval or
  region that excludes a LAPACK eigenvalue, region JSON that does not
  round-trip, SVG that does not parse or lacks a leaf, a real section that
  misses a real eigenvalue;
* value problems are oracle eigenvalues (printed in a sweep, or returned to
  the CLI by ``symmetric_eigenvalues`` / ``complex_eigenvalues``) that
  differ from LAPACK by more than tol.

Both kinds make a job failed.  tol is verify's default 1e-8 scaled by
max(1, ||M||_2) of the matrix concerned.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np
from eigenloc import regions

TOL = 1e-8
TARGET_INDEX = {"lambda_1": 0, "lambda_2": 1, "lambda_n": -1, "lambda_n_minus_1": -2}
SWEEP_HEADER = "family,n,theorem,target,lower,upper,oracle,slack_lower,slack_upper"


@dataclass
class Outcome:
    """What one job produced: exit code and streams, or a library return value."""

    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None
    value: object = None
    oracle_calls: list = field(default_factory=list)


def scaled_tol(values) -> float:
    return TOL * max(1.0, float(np.max(np.abs(values))) if len(values) else 1.0)


def graph_matrix(n: int, edges, kind: str) -> np.ndarray:
    """Adjacency, Laplacian, or the symmetric form D^-1/2 A D^-1/2 of D^-1 A."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u - 1, v - 1] = a[v - 1, u - 1] = 1.0
    d = a.sum(axis=1)
    if kind == "adjacency":
        return a
    if kind == "laplacian":
        return np.diag(d) - a
    return a / np.sqrt(np.outer(d, d))


def graph_spectrum(n: int, edges, kind: str) -> np.ndarray:
    """Eigenvalues in descending order, the order the bound targets use."""
    return np.linalg.eigvalsh(graph_matrix(n, edges, kind))[::-1]


def match_error(values, reference) -> float:
    """Largest distance after greedily pairing each value with a reference value."""
    values = np.asarray(values, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if values.shape != reference.shape:
        return math.inf
    dist = np.abs(values[:, None] - reference[None, :])
    worst = 0.0
    for _ in range(len(values)):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        worst = max(worst, float(dist[i, j]))
        dist[i, :] = np.inf
        dist[:, j] = np.inf
    return worst


def oracle_errors(calls) -> list[tuple[float, float]]:
    """(error, tol) for every captured oracle call against LAPACK on its own input."""
    out = []
    for name, matrix, values in calls:
        m = np.asarray(matrix)
        if name == "symmetric_eigenvalues":
            ref = np.linalg.eigvalsh(np.asarray(m, dtype=float))[::-1]
            err = float(np.max(np.abs(np.asarray(values) - ref))) if len(ref) else 0.0
        else:
            ref = np.linalg.eigvals(np.asarray(m, dtype=complex))
            err = match_error(values, ref)
        out.append((err, scaled_tol([np.linalg.norm(m, 2)] if m.size else [])))
    return out


# ---------------------------------------------------------------------------
# per-request checks; each returns a list of (verdict, message)


def _exit(out: Outcome, expected: int) -> list:
    if out.rc != expected:
        return [(True, f"exit code {out.rc}, expected {expected}: {out.stderr.strip()[:200]}")]
    return []


def _contains(lam: float, lower: float, upper: float, tol: float) -> bool:
    return lower - tol <= lam <= upper + tol


def check_sweep(job, out: Outcome) -> list:
    problems = _exit(out, 0)
    lines = out.stdout.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return problems + [(True, "missing sweep CSV header")]
    spectra = {n: graph_spectrum(n, edges, job.kind) for n, edges in job.graphs.items()}
    seen = set()
    for row in lines[1:]:
        family, n, theorem, target, *nums = row.split(",")
        n = int(n)
        if n not in spectra or len(nums) != 5:
            problems.append((True, f"unexpected sweep row {row!r}"))
            continue
        seen.add(n)
        lower, upper, oracle, slack_lo, slack_hi = map(float, nums)
        lam = spectra[n][TARGET_INDEX[target]]
        tol = scaled_tol(spectra[n])
        if abs(oracle - lam) > tol:
            problems.append((False, f"{family} n={n} oracle {oracle!r} vs LAPACK {lam!r}"))
        if min(slack_lo, slack_hi) < -tol:
            problems.append((True, f"{family} n={n} {theorem} slack below -tol"))
        if not _contains(lam, lower, upper, tol):
            problems.append((True, f"{family} n={n} {theorem} [{lower}, {upper}] excludes {lam!r}"))
    # Laplacian and normalized bounds always apply to connected graphs with n >= 3
    if job.kind != "adjacency" and seen != set(spectra):
        problems.append((True, f"sweep rows missing for n in {sorted(set(spectra) - seen)}"))
    return problems


def check_bounds(job, out: Outcome) -> list:
    (n, edges), = job.graphs.items()
    spectrum = graph_spectrum(n, edges, job.kind)
    tol = scaled_tol(spectrum)
    fmt = job.argv[job.argv.index("--format") + 1]
    try:
        if fmt == "json":
            obj = json.loads(out.stdout)
            if obj["graph"]["n"] != n or obj["matrix"] != job.kind:
                return [(True, "report names the wrong graph or matrix")]
            rows = [(b["theorem"], b["target"], b["lower"], b["upper"]) for b in obj["bounds"] + obj["combined"]]
        else:
            lines = out.stdout.splitlines()
            if lines[0] != "theorem,target,lower,upper":
                return [(True, "missing bounds CSV header")]
            rows = [(t, g, float(lo), float(hi)) for t, g, lo, hi in (ln.split(",") for ln in lines[1:])]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [(True, f"unparsable {fmt} report: {exc!r}")]
    applied = [r for r in rows if r[0] != "combined"]
    problems = _exit(out, 0 if applied else 2)
    if job.kind != "adjacency" and not applied:
        problems.append((True, "no applicable bound for a connected graph"))
    for theorem, target, lower, upper in rows:
        lam = spectrum[TARGET_INDEX[target]]
        if not _contains(lam, lower, upper, tol):
            problems.append((True, f"{theorem} {target} [{lower}, {upper}] excludes {lam!r}"))
    return problems


def check_verify(job, out: Outcome) -> list:
    lines = out.stdout.splitlines()
    checks = lines[:-1]
    fails = [ln for ln in checks if ln.startswith("FAIL")]
    problems = [(True, f"prints {ln}") for ln in fails]
    problems += _exit(out, 1 if fails else 0)
    if not checks or any(not ln.startswith(("PASS ", "FAIL ")) for ln in checks):
        problems.append((True, "malformed verify output"))
    elif lines[-1] != f"{len(checks) - len(fails)}/{len(checks)} checks passed":
        problems.append((True, f"summary {lines[-1]!r} disagrees with the check lines"))
    return problems


def _leaves(node: dict) -> list[dict]:
    if "children" in node:
        return [leaf for child in node["children"] for leaf in _leaves(child)]
    return [node]


def json_slack(node: dict, z: complex) -> float:
    """Signed margin of z in a region JSON tree, evaluated from the JSON alone."""
    if "children" in node:
        vals = [json_slack(c, z) for c in node["children"]]
        return max(vals) if node["op"] == "union" else min(vals)
    if "disk" in node:
        c = complex(*node["disk"]["center"])
        return node["disk"]["radius"] - abs(z - c)
    if "oval" in node:
        o = node["oval"]
        return o["p"] - abs(z - complex(*o["a"])) * abs(z - complex(*o["b"]))
    return -min(abs(z - complex(*p)) for p in node["points"])


def expected_leaves(method: str, n: int) -> dict:
    """Leaf counts by kind of the four region builders at dimension n."""
    pairs = n * (n - 1) // 2
    return {
        "gersgorin": {"disk": n, "oval": 0, "points": 0},
        "brauer": {"disk": 0, "oval": pairs, "points": 0},
        "rowsum-gersgorin": {"disk": n * (n - 1), "oval": 0, "points": n},
        "rowsum-brauer": {"disk": 0, "oval": n * (n - 1) * (n - 2) // 2, "points": n},
    }[method]


def check_regions_json(job, out: Outcome) -> list:
    problems = _exit(out, 0)
    try:
        obj = json.loads(out.stdout)
    except ValueError as exc:
        return problems + [(True, f"region JSON does not parse: {exc}")]
    if regions.region_to_json(regions.region_from_json(obj)) != obj:
        problems.append((True, "region JSON does not round-trip through region_from_json"))
    leaves = _leaves(obj)
    counts = {k: sum(1 for leaf in leaves if k in leaf) for k in ("disk", "oval", "points")}
    if counts != expected_leaves(job.method, job.matrix.shape[0]):
        problems.append((True, f"leaf counts {counts}"))
    eigs = np.linalg.eigvals(job.matrix)
    tol = scaled_tol([np.linalg.norm(job.matrix, 2)])
    outside = [z for z in eigs if json_slack(obj, z) < -tol]
    if outside:
        problems.append((True, f"region excludes LAPACK eigenvalue {outside[0]!r}"))
    return problems


def check_regions_svg(job, out: Outcome) -> list:
    problems = _exit(out, 0)
    try:
        root = ET.fromstring(out.stdout)
    except ET.ParseError as exc:
        return problems + [(True, f"SVG does not parse: {exc}")]
    classes = [el.get("class") for el in root.iter()]
    want = expected_leaves(job.method, job.matrix.shape[0])
    n = job.matrix.shape[0]
    # a pinched oval is drawn as two loops
    ovals = classes.count("oval")
    if (classes.count("disk"), classes.count("point"), classes.count("eigenvalue")) != (
        want["disk"], want["points"], n
    ) or not want["oval"] <= ovals <= 2 * want["oval"]:
        problems.append((True, "SVG elements do not match the region's leaves"))
    return problems


def check_section(job, out: Outcome) -> list:
    a = job.matrix
    if np.any(a.imag != 0.0):
        return []
    eigs = np.linalg.eigvals(a.real)
    real = eigs[eigs.imag == 0.0].real
    tol = scaled_tol([np.linalg.norm(a, 2)])
    section = out.value
    for x in real:
        inside = any(lo - tol <= x <= hi + tol for lo, hi in section.intervals)
        if not inside and not any(abs(x - p) <= tol for p in section.isolated_points):
            return [(True, f"real section misses real eigenvalue {x!r}")]
    return []


def check_job(job, out: Outcome) -> tuple[list, float]:
    """All problems of one job plus the largest oracle-vs-LAPACK error it showed."""
    if out.error is not None:
        return [(True, f"raised {out.error}")], 0.0
    if job.request == "sweep":
        problems = check_sweep(job, out)
    elif job.request == "bounds":
        problems = check_bounds(job, out)
    elif job.request in ("verify", "verify-matrix"):
        problems = check_verify(job, out)
    elif job.request == "regions-json":
        problems = check_regions_json(job, out)
    elif job.request == "regions-svg":
        problems = check_regions_svg(job, out)
    else:
        problems = check_section(job, out)
    worst = 0.0
    for err, tol in oracle_errors(out.oracle_calls):
        worst = max(worst, err)
        if err > tol:
            problems.append((False, f"oracle eigenvalues off from LAPACK by {err:.2e} (tol {tol:.2e})"))
    return problems, worst
