"""Command-line interface: bounds reports, region artifacts, verification, sweeps.

Four subcommands:

* ``bounds``  -- closed-form bound report for a graph, as JSON or CSV.
* ``regions`` -- inclusion region of a matrix, as region JSON or SVG.
* ``verify``  -- evaluate bounds/regions against the eigensolver oracle,
  printing one PASS/FAIL line per check.
* ``sweep``   -- CSV dataset of bounds vs oracle across family ranges.

Exit codes: 0 success (verify: no FAIL); 1 a verify FAIL or an error (bad
input, a file that cannot be read or written, an eigensolve that does not
converge, ``brauer`` on a 1 x 1 matrix); 2 bounds report with zero applicable
theorems; 3 a row-sum region of a matrix without a constant row sum or below
the region's dimension.  Each error prints ``error: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds as bd
from . import graphs as gr
from . import oracle as orc
from . import regions as rg

__all__ = [
    "main",
    "CheckResult",
    "check_interval",
    "check_region",
    "verify_graph",
    "verify_matrix",
    "region_to_svg",
]

_KIND_NAMES = sorted(kind.value for kind in gr.GraphMatrixKind)
_REGION_METHODS = ("gersgorin", "brauer", "rowsum-gersgorin", "rowsum-brauer")


# ---------------------------------------------------------------------------
# graph/matrix sources


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", help="named family (see graphs.FAMILY_NAMES)")
    parser.add_argument("--n", type=int, help="size parameter for single-parameter families")
    parser.add_argument("--p", type=int, help="first part size for complete_bipartite")
    parser.add_argument("--q", type=int, help="second part size for complete_bipartite")
    parser.add_argument(
        "--connections", help="comma-separated circulant offsets, e.g. '1,2'"
    )
    parser.add_argument("--edges", help="edge-list or graph-JSON file")


def _graph_from_args(args: argparse.Namespace) -> gr.Graph:
    if args.family and args.edges:
        raise ValueError("supply either --family or --edges, not both")
    if args.family:
        params = {k: getattr(args, k) for k in ("n", "p", "q") if getattr(args, k) is not None}
        if args.connections:
            params["connections"] = [int(tok) for tok in args.connections.split(",")]
        return gr.generate(args.family, **params)
    if args.edges:
        text = Path(args.edges).read_text()
        if text.lstrip().startswith("{"):
            return gr.graph_from_json(text)
        return gr.parse_edge_list(text)
    raise ValueError("no graph source: supply --family or --edges")


# ---------------------------------------------------------------------------
# verification core


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one bound or region check against the oracle."""

    name: str
    target: str
    passed: bool
    slack: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} {self.target} slack={self.slack + 0.0:.6e}"


def check_interval(
    bound: bd.BoundInterval, oracle_value: float, tol: float
) -> CheckResult:
    """PASS iff the oracle eigenvalue is inside the interval within tol."""
    slack = min(oracle_value - bound.lower, bound.upper - oracle_value)
    return CheckResult(
        name=bound.theorem, target=bound.target, passed=slack >= -tol, slack=slack
    )


def check_region(name: str, region, eigenvalues, tol: float) -> CheckResult:
    """PASS iff every oracle eigenvalue lies in the region within tol."""
    slack = float(rg.region_slack_grid(region, eigenvalues).min())
    return CheckResult(name=name, target="spectrum", passed=slack >= -tol, slack=slack)


def _scope_filter(scope: str, tol: float) -> set[str] | None:
    """The check names ``scope`` asks for, None for all.  A name that names no
    check, or a ``tol`` that is not finite and nonnegative, raises ValueError."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")
    if not scope or scope == "all":
        return None
    wanted = {tok.strip() for tok in scope.split(",") if tok.strip()}
    unknown = wanted.difference(bd.THEOREM_TAGS, _REGION_METHODS, ("gamma",))
    if unknown or not wanted:
        raise ValueError(f"scope {scope!r} must be 'all' or check names; unknown: "
                         f"{', '.join(sorted(unknown)) or 'none'}")
    return wanted


def verify_graph(
    g: gr.Graph, scope: str = "all", tol: float = 1e-8, mode: str = "published"
) -> list[CheckResult]:
    """Every requested bound and region check for all three graph matrices.

    The normalized-adjacency matrix (and its checks) is skipped when the
    graph has an isolated vertex.
    """
    wanted = _scope_filter(scope, tol)
    has_isolated = min(g.degree_sequence) == 0
    results: list[CheckResult] = []
    for kind in gr.GraphMatrixKind:
        if kind == gr.GraphMatrixKind.NORMALIZED_ADJACENCY and has_isolated:
            continue
        values = orc.graph_spectrum(g, kind).values
        report = bd.bounds_report(g, kind, mode=mode)
        for bound in report.bounds:
            if wanted is not None and bound.theorem not in wanted:
                continue
            results.append(check_interval(bound, values[bd.TARGET_POSITION[bound.target]], tol))
        matrix = gr.build_matrix(g, kind)
        results += _region_checks(matrix, values, wanted, tol, f"[{kind.value}]")
    return results


def verify_matrix(matrix, scope: str = "all", tol: float = 1e-8) -> list[CheckResult]:
    """Region checks (and the forced-eigenvalue check) for a complex matrix."""
    wanted = _scope_filter(scope, tol)
    spectrum = orc.complex_eigenvalues(matrix)
    results = _region_checks(matrix, spectrum.values, wanted, tol)
    gamma = rg.constant_row_sum(matrix)
    if gamma is not None and (wanted is None or "gamma" in wanted):
        slack = -min(abs(z - gamma) for z in spectrum.values)
        results.append(
            CheckResult(name="gamma", target="row_sum", passed=slack >= -tol, slack=slack)
        )
    return results


def _region_checks(
    matrix, eigenvalues, wanted: set[str] | None, tol: float, suffix: str = ""
) -> list[CheckResult]:
    """One check per wanted region method that exists for ``matrix``, named method + suffix."""
    results = []
    for method in _REGION_METHODS:
        if wanted is not None and method not in wanted:
            continue
        try:
            region = _build_region(matrix, method)
        except rg.RegionUnavailable:
            continue
        results.append(check_region(method + suffix, region, eigenvalues, tol))
    return results


def _build_region(matrix, method: str):
    # looked up at call time, so a wrapper patched onto the module sees the call
    return getattr(rg, method.replace("-", "_") + "_region")(matrix)


# ---------------------------------------------------------------------------
# SVG rendering


def _auto_window(leaves, eigenvalues) -> tuple[float, float, float, float]:
    corners = [z for leaf in leaves for z in leaf.extent()] + list(eigenvalues)
    if not corners:
        return (-1.0, 1.0, -1.0, 1.0)
    xs = [z.real for z in corners]
    ys = [z.imag for z in corners]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.1 * max(x1 - x0, y1 - y0, 1.0)
    return (x0 - pad, x1 + pad, y0 - pad, y1 + pad)


def _oval_boundary(oval: rg.CassiniOval, points: int) -> list[np.ndarray]:
    """Closed boundary polylines from the polar form; one loop, or two when pinched.

    With c the midpoint and d the half-difference of the foci,
    |z-a| |z-b| = |(z-c)^2 - d^2|, so the boundary is z = c + sqrt(d^2 + p e^{it}).
    When p >= |d|^2 the radicand winds round 0 and t runs over [0, 4 pi];
    written as e^{it/2} sqrt(p + d^2 e^{-it}), the radicand left has a
    nonnegative real part, so the principal root is continuous (the
    lemniscate p = |d|^2 included).  Otherwise the oval splits into the two
    loops c +- d sqrt(1 + (p / d^2) e^{it}) over [0, 2 pi].
    """
    p = oval.radius_product
    if p <= 0.0:
        return []
    c = 0.5 * (oval.focus_a + oval.focus_b)
    d = 0.5 * (oval.focus_b - oval.focus_a)
    if p >= abs(d) * abs(d):
        t = np.linspace(0.0, 4.0 * math.pi, points, endpoint=False)
        loops = [c + np.exp(0.5j * t) * np.sqrt(p + d * d * np.exp(-1j * t))]
    else:
        t = np.linspace(0.0, 2.0 * math.pi, points // 2, endpoint=False)
        half = d * np.sqrt(1.0 + p / (d * d) * np.exp(1j * t))
        loops = [c + half, c - half]
    return [np.append(loop, loop[0]) for loop in loops]


def region_to_svg(
    region,
    eigenvalues=(),
    window: tuple[float, float, float, float] | None = None,
    size: int = 640,
) -> str:
    """Render leaf boundaries plus eigenvalue markers as a standalone SVG.

    Disks become circles, ovals closed 512-point polylines from the oval's
    polar form (two 256-point loops when it is pinched), point leaves small
    diamonds, eigenvalues filled dots.
    Rendering convenience only; nothing downstream parses this.  A given
    ``window`` must be finite with x0 < x1 and y0 < y1 (ValueError).
    """
    if window is not None:
        _check_window(window, window)
    leaves = region.leaves()
    if window is None:
        window = _auto_window(leaves, eigenvalues)
    x0, x1, y0, y1 = window
    scale = size / max(x1 - x0, y1 - y0)

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return (y1 - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for leaf in leaves:
        if isinstance(leaf, rg.Disk):
            parts.append(
                f'<circle class="disk" cx="{sx(leaf.center.real):.2f}" '
                f'cy="{sy(leaf.center.imag):.2f}" r="{leaf.radius * scale:.2f}" '
                'fill="none" stroke="steelblue" stroke-width="1"/>'
            )
        elif isinstance(leaf, rg.CassiniOval):
            for loop in _oval_boundary(leaf, 512):
                xy = zip(sx(loop.real).tolist(), sy(loop.imag).tolist())
                coords = " ".join(["%.2f,%.2f" % point for point in xy])
                parts.append(
                    f'<polyline class="oval" points="{coords}" fill="none" '
                    'stroke="darkorange" stroke-width="1"/>'
                )
        else:
            for point in leaf.points:
                cx, cy = sx(point.real), sy(point.imag)
                parts.append(
                    f'<path class="point" d="M {cx:.2f} {cy - 4:.2f} L {cx + 4:.2f} '
                    f'{cy:.2f} L {cx:.2f} {cy + 4:.2f} L {cx - 4:.2f} {cy:.2f} Z" '
                    'fill="seagreen"/>'
                )
    for z in eigenvalues:
        parts.append(
            f'<circle class="eigenvalue" cx="{sx(z.real):.2f}" cy="{sy(z.imag):.2f}" '
            'r="3" fill="crimson"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = _graph_from_args(args)
    report = bd.bounds_report(g, gr.GraphMatrixKind(args.matrix), mode=args.mode)
    if args.format == "csv":
        sys.stdout.write(bd.report_to_csv(report))
    else:
        print(bd.report_to_json(report))
    return 0 if report.bounds else 2


def _cmd_regions(args: argparse.Namespace) -> int:
    matrix = rg.matrix_from_json(Path(args.matrix_file).read_text())
    window = _parse_window(args.window) if args.window else None
    try:
        region = _build_region(matrix, args.method)
    except rg.RegionUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if args.method.startswith("rowsum") else 1
    if args.emit == "svg":
        payload = region_to_svg(region, orc.complex_eigenvalues(matrix).values, window)
    else:
        payload = json.dumps(rg.region_to_json(region), indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        print(payload)
    return 0


def _parse_window(text: str) -> tuple[float, float, float, float]:
    fields = text.split(":")
    if len(fields) != 4:
        raise ValueError("window must be 'x0:x1:y0:y1'")
    window = tuple(float(f) for f in fields)
    _check_window(window, text)
    return window


def _check_window(window: tuple[float, float, float, float], shown) -> None:
    x0, x1, y0, y1 = window
    if not (-math.inf < x0 < x1 < math.inf and -math.inf < y0 < y1 < math.inf):
        raise ValueError(f"window {shown!r} needs finite x0 < x1 and y0 < y1")


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.matrix_file:
        matrix = rg.matrix_from_json(Path(args.matrix_file).read_text())
        results = verify_matrix(matrix, scope=args.scope, tol=args.tol)
    else:
        g = _graph_from_args(args)
        results = verify_graph(g, scope=args.scope, tol=args.tol, mode=args.mode)
    if not results:
        raise ValueError(f"scope {args.scope!r} selects no check for this input")
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _parse_sweep_spec(token: str) -> tuple[str, list[int]]:
    """'family:lo..hi[:step]' (or 'family:lo:hi[:step]'), bare name for fixed families."""
    fields = token.replace("..", ":").split(":")
    family = fields[0]
    if family == "petersen":
        return family, [10]
    if len(fields) not in (3, 4):
        raise ValueError(f"bad sweep spec {token!r}: expected family:lo..hi[:step]")
    lo, hi = int(fields[1]), int(fields[2])
    step = int(fields[3]) if len(fields) == 4 else 1
    if step < 1 or hi < lo:
        raise ValueError(f"bad sweep range in {token!r}")
    return family, list(range(lo, hi + 1, step))


def _sweep_graph(family: str, n: int) -> gr.Graph:
    if family == "petersen":
        return gr.petersen()
    if family == "complete_bipartite":
        return gr.complete_bipartite(n - n // 2, n // 2)
    if family == "circulant":
        return gr.circulant(n, (1, 2))
    return gr.generate(family, n=n)


def _cmd_sweep(args: argparse.Namespace) -> int:
    kind = gr.GraphMatrixKind(args.matrix)
    rows = ["family,n,theorem,target,lower,upper,oracle,slack_lower,slack_upper"]
    specs = [_parse_sweep_spec(token) for token in args.spec]
    for family, sizes in specs:
        for n in sizes:
            g = _sweep_graph(family, n)
            if kind == gr.GraphMatrixKind.NORMALIZED_ADJACENCY and min(g.degree_sequence) == 0:
                continue
            values = orc.graph_spectrum(g, kind).values
            report = bd.bounds_report(g, kind, mode=args.mode)
            for bound in report.bounds:
                oracle_value = values[bd.TARGET_POSITION[bound.target]]
                rows.append(
                    f"{family},{g.n},{bound.theorem},{bound.target},"
                    f"{bound.lower!r},{bound.upper!r},{oracle_value!r},"
                    f"{oracle_value - bound.lower!r},{bound.upper - oracle_value!r}"
                )
    payload = "\n".join(rows) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        Path(args.out).write_text(payload)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenloc",
        description="Eigenvalue inclusion regions and closed-form graph spectral bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="closed-form bound report for a graph")
    _add_graph_source(p_bounds)
    p_bounds.add_argument("--matrix", choices=_KIND_NAMES, required=True)
    p_bounds.add_argument("--mode", choices=("published", "corrected"), default="published")
    p_bounds.add_argument("--format", choices=("json", "csv"), default="json")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_regions = sub.add_parser("regions", help="inclusion region of a matrix")
    p_regions.add_argument("--matrix-file", required=True, help="matrix JSON file")
    p_regions.add_argument("--method", choices=_REGION_METHODS, required=True)
    p_regions.add_argument("--emit", choices=("json", "svg"), default="json")
    p_regions.add_argument("--window", help="SVG window as 'x0:x1:y0:y1'")
    p_regions.add_argument("--out", help="output file (default: stdout)")
    p_regions.set_defaults(func=_cmd_regions)

    p_verify = sub.add_parser("verify", help="check bounds/regions against the oracle")
    _add_graph_source(p_verify)
    p_verify.add_argument("--matrix-file", help="matrix JSON file instead of a graph")
    p_verify.add_argument("--scope", default="all", help="'all' or comma-separated check names")
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--mode", choices=("published", "corrected"), default="published")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="bounds-vs-oracle CSV across family ranges")
    p_sweep.add_argument("spec", nargs="+", help="family:lo..hi[:step] or 'petersen'")
    p_sweep.add_argument("--matrix", choices=_KIND_NAMES, required=True)
    p_sweep.add_argument("--mode", choices=("published", "corrected"), default="published")
    p_sweep.add_argument("--out", required=True, help="CSV path, or '-' for stdout")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        # every library error; json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
