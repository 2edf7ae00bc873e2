"""Command-line interface: bounds reports, region artifacts, verification, sweeps.

Four subcommands:

* ``bounds``  -- closed-form bound report for a graph, as JSON or CSV.
* ``regions`` -- inclusion region of a matrix, as region JSON or SVG.
* ``verify``  -- evaluate bounds/regions against the eigensolver oracle,
  printing one PASS/FAIL line per check.
* ``sweep``   -- CSV dataset of bounds vs oracle across family ranges.

Exit codes: 0 success (verify: no FAIL); 1 a verify FAIL, an error (bad input,
a file that cannot be read or written, an eigensolve that does not converge,
``brauer`` on a 1 x 1 matrix) or a reader closing stdout early; 2 bounds report
with zero applicable theorems; 3 a row-sum region of a matrix without a constant
row sum or below its dimension.  Only errors print ``error: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
from collections import OrderedDict
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
    "verify_graph",
    "verify_matrix",
    "region_to_svg",
]

_KIND_NAMES = sorted(kind.value for kind in gr.GraphMatrixKind)
# graph-source options, in the order a refusal names them; all but --edges are family options
_GRAPH_OPTIONS = ("family", "n", "p", "q", "connections", "edges")


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


def _refuse(args: argparse.Namespace, names, option: str, what: str) -> None:
    if given := [f"--{k}" for k in names if getattr(args, k) is not None]:
        raise ValueError(f"{option} takes no {what}, got {' '.join(given)}")


def _path(args: argparse.Namespace, option: str) -> Path:
    """The file the path option names; an empty value names none (ValueError)."""
    if not (value := getattr(args, option.replace("-", "_"))):
        raise ValueError(f"--{option} needs a file path")
    return Path(value)


def _graph_from_args(args: argparse.Namespace) -> gr.Graph:
    if args.edges is not None:
        _refuse(args, _GRAPH_OPTIONS[:-1], "--edges", "family option")
        text = _path(args, "edges").read_text()
        parse = gr.graph_from_json if text.lstrip().startswith("{") else gr.parse_edge_list
        return _GRAPHS.graph(hashlib.sha256(text.encode()).digest(), lambda: parse(text))
    if args.family is not None:
        params = {k: getattr(args, k) for k in ("n", "p", "q") if getattr(args, k) is not None}
        if args.connections is not None:
            try:
                params["connections"] = [int(tok) for tok in args.connections.split(",")]
            except ValueError:
                raise ValueError("--connections takes comma-separated integers, "
                                 f"got {args.connections!r}") from None
        return gr.generate(args.family, **params)
    raise ValueError("no graph source: supply --family or --edges")


class _GraphCache:
    """The graphs read in this process by source: an edge file's text, by
    its SHA-256 digest so that the text is freed once parsed, or a sweep
    size's (family, n), so that requests on one graph (its three matrix
    kinds, say) read it and make its tables once.  A graph read anew first
    drops the held ones its request has not read, then the least recently
    read until the held vertex counts sum to at most MAX_VERTICES, before
    its tables are made: their n², and so their tables, never pass one
    graph's on the cap.  A source whose graph cannot be made raises and
    holds nothing.
    """

    def __init__(self) -> None:
        # key: [graph, the request that last read it], least recently read first
        self.held: OrderedDict = OrderedDict()
        self.request = 0

    def begin_request(self) -> None:
        self.request += 1

    def graph(self, key, make) -> gr.Graph:
        if (entry := self.held.get(key)) is not None:
            entry[1] = self.request
            self.held.move_to_end(key)
            return entry[0]
        while self.held and next(iter(self.held.values()))[1] < self.request:
            self.held.popitem(last=False)
        g = make()
        vertices = g.n + sum(entry[0].n for entry in self.held.values())
        while vertices > gr.MAX_VERTICES:
            vertices -= self.held.popitem(last=False)[1][0].n
        self.held[key] = [g, self.request]
        return g


_GRAPHS = _GraphCache()


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
    """PASS iff the oracle eigenvalue is inside the interval within tol,
    which must be finite and nonnegative."""
    rg._check_tolerance(tol)
    slack = min(oracle_value - bound.lower, bound.upper - oracle_value)
    return _result(bound.theorem, bound.target, slack, tol)


def _result(name: str, target: str, slack: float, tol: float) -> CheckResult:
    """The check ``name`` of ``target``: PASS iff its slack is at least
    -tol, the verdict rule of every check."""
    return CheckResult(name, target, slack >= -tol, slack)


def _scope_filter(scope: str, tol: float) -> set[str] | None:
    """The check names ``scope`` asks for, None for all.  A name that names no
    check, or a ``tol`` that is not finite and nonnegative, raises ValueError."""
    rg._check_tolerance(tol)
    if not scope or scope == "all":
        return None
    wanted = {tok.strip() for tok in scope.split(",") if tok.strip()}
    unknown = wanted.difference(bd.THEOREM_TAGS, rg.METHODS, ("gamma",))
    if unknown or not wanted:
        raise ValueError(f"scope {scope!r} must be 'all' or check names; unknown: "
                         f"{', '.join(sorted(unknown)) or 'none'}")
    return wanted


def verify_graph(
    g: gr.Graph, scope: str = "all", tol: float = 1e-8, mode: str = "published"
) -> list[CheckResult]:
    """Every requested bound and region check for all three graph matrices.

    The normalized-adjacency matrix (and its checks) is skipped when the
    graph has an isolated vertex.  The region checks of all the matrices
    are one stacked pass over their :class:`regions.MatrixFacts`.
    """
    wanted = _scope_filter(scope, tol)
    kinds = [kind for kind in gr.GraphMatrixKind if gr._has_matrix(g, kind)]
    reports = [bd.bounds_report(g, kind, mode=mode) for kind in kinds]
    spectra = [g.spectrum(kind).values for kind in kinds]
    stack = rg.MatrixFacts(*[g.matrix(kind) for kind in kinds])
    regions = _region_checks(stack, spectra, wanted, tol, [f"[{kind.value}]" for kind in kinds])
    results: list[CheckResult] = []
    for report, values, checks in zip(reports, spectra, regions):
        results += [check_interval(bound, value, tol)
                    for bound, value in _bound_pairs(report, values)
                    if wanted is None or bound.theorem in wanted]
        results += checks
    return results


def _bound_pairs(report: bd.BoundReport, values) -> list:
    """[(bound, its target's oracle value)] for each bound of ``report``,
    given the oracle eigenvalues ``values`` of its matrix."""
    return [(b, values[bd.TARGET_POSITION[b.target]]) for b in report.bounds]


def verify_matrix(matrix, scope: str = "all", tol: float = 1e-8) -> list[CheckResult]:
    """Region checks (and the forced-eigenvalue check) for a complex matrix."""
    wanted = _scope_filter(scope, tol)
    spectrum = orc.complex_eigenvalues(matrix)
    facts = rg.MatrixFacts(matrix)
    (results,) = _region_checks(facts, [spectrum.values], wanted, tol, [""])
    if (gamma := facts.gamma[0]) is not None and (wanted is None or "gamma" in wanted):
        results.append(_result("gamma", "row_sum", -min(abs(z - gamma) for z in spectrum.values), tol))
    return results


def _region_checks(
    stack: rg.MatrixFacts, eigenvalues, wanted: set[str] | None, tol: float, suffixes
) -> list[list[CheckResult]]:
    """For each matrix of ``stack``, one check per wanted region method that
    exists for it, named method + its suffix, all from one pass of
    :func:`regions.stack_least_slacks`."""
    methods = [m for m in rg.METHODS if wanted is None or m in wanted]
    least = rg.stack_least_slacks(stack, eigenvalues, methods)
    return [[_result(method + suffix, "spectrum", slack, tol) for method, slack in slacks.items()]
            for slacks, suffix in zip(least, suffixes)]


def _build_region(matrix, method: str):
    # the builder named in the method table, looked up at call time:
    # bench/worker.py and bench/tracer.py wrap the module's builders
    return getattr(rg, rg._METHOD_SHAPES[method][2])(matrix)


# ---------------------------------------------------------------------------
# SVG rendering


def _auto_window(corners) -> tuple[tuple[float, float, float, float], float]:
    """The padded window round ``corners`` (the leaves' extents and the
    eigenvalues) in units of the power of two just above their largest
    coordinate (1 below 1, at most 2**1023), so that no width or pad
    overflows, and that unit; in range it is exact."""
    if not corners:
        return (-1.0, 1.0, -1.0, 1.0), 1.0
    xs = [z.real for z in corners]
    ys = [z.imag for z in corners]
    big = max(max(map(abs, xs)), max(map(abs, ys)))
    unit = math.ldexp(1.0, min(max(math.frexp(big)[1], 0), 1023))
    x0, x1 = min(xs) / unit, max(xs) / unit
    y0, y1 = min(ys) / unit, max(ys) / unit
    pad = 0.1 * max(x1 - x0, y1 - y0, 1.0 / unit)
    return (x0 - pad, x1 + pad, y0 - pad, y1 + pad), unit


def _oval_frame(oval: rg.CassiniOval) -> tuple[complex, complex, float, float]:
    """c, then d and p in units of a power of two near the oval's size (at most
    2**1023), as :func:`regions._oval_sections` takes its quartic, so that no
    square overflows, then that unit; in range the scaling is exact."""
    d, p = 0.5 * oval.focus_b - 0.5 * oval.focus_a, oval.radius_product
    unit = math.ldexp(1.0, min(math.frexp(max(abs(d), math.sqrt(p)))[1], 1023))
    return 0.5 * oval.focus_a + 0.5 * oval.focus_b, d / unit, p / unit / unit, unit


def _oval_points(oval: rg.CassiniOval, pixels: float) -> int:
    """The even point count, at least 16 a loop and at most 512, that keeps every
    chord of :func:`_oval_boundary` within 1/4 px of its arc at ``pixels`` a unit.
    In the frame, z = c + sqrt(d^2 + p e^{it}) has |z''| <= M = p / (2 sqrt g) +
    p^2 / (4 g^1.5) with g = |p - |d|^2|, and a chord of step h = 4 pi / N strays
    at most M h^2 / 8 from its arc; the lemniscate, g = 0, takes 512."""
    _, d, p, unit = _oval_frame(oval)
    g = abs(p - abs(d) * abs(d))
    bend = p / (2.0 * math.sqrt(g)) * (1.0 + 0.5 * p / g) if g else math.inf
    n = 4.0 * math.pi * math.sqrt(0.5 * bend * (pixels * unit))
    return max(16 if p >= abs(d) * abs(d) else 32, 2 * math.ceil(0.5 * n)) if n < 512.0 else 512


def _oval_boundary(oval: rg.CassiniOval, points: int) -> list[np.ndarray]:
    """Closed boundary polylines from the polar form; one loop, or two when pinched.

    With c the midpoint and d the half-difference of the foci,
    |z-a| |z-b| = |(z-c)^2 - d^2|, so the boundary is z = c + sqrt(d^2 + p e^{it}).
    When p >= |d|^2 the radicand winds round 0 and t runs over [0, 4 pi];
    written as e^{it/2} sqrt(p + d^2 e^{-it}), the radicand left has a
    nonnegative real part, so the principal root is continuous (the
    lemniscate p = |d|^2 included).  Otherwise the oval splits into the two
    loops c +- d sqrt(1 + (p / d^2) e^{it}) over [0, 2 pi].  d and p are
    taken in :func:`_oval_frame`.  With p = 0 the oval is its foci: one
    closed one-point loop per distinct focus.
    """
    if oval.radius_product <= 0.0:
        return [np.array([f, f]) for f in dict.fromkeys((oval.focus_a, oval.focus_b))]
    c, d, p, unit = _oval_frame(oval)
    if p >= abs(d) * abs(d):
        t = np.linspace(0.0, 4.0 * math.pi, points, endpoint=False)
        loops = [c + unit * (np.exp(0.5j * t) * np.sqrt(p + d * d * np.exp(-1j * t)))]
    else:
        t = np.linspace(0.0, 2.0 * math.pi, points // 2, endpoint=False)
        half = unit * (d * np.sqrt(1.0 + p / (d * d) * np.exp(1j * t)))
        loops = [c + half, c - half]
    return [np.append(loop, loop[0]) for loop in loops]


def region_to_svg(
    region,
    eigenvalues=(),
    window: tuple[float, float, float, float] | None = None,
) -> str:
    """Render leaf boundaries plus eigenvalue markers as a standalone 640-pixel SVG.

    Disks become circles (a round-capped dot where the pixel radius prints
    as 0.00), ovals closed polylines from their polar form, sampled by their
    size on screen to within 1/4 px with at most 512 points (two loops when
    pinched, a round-capped one-point loop per focus when p = 0), point
    leaves small diamonds, eigenvalues filled dots.
    Rendering convenience only; nothing downstream parses this.  The
    window, given or automatic, must have x0 < x1 and y0 < y1 and a finite
    width and height, and a given one must put every corner of a leaf's
    extent and every eigenvalue at a finite pixel coordinate (ValueError);
    the automatic one is taken in its unit (:func:`_auto_window`), so a
    region wider than the float range draws.
    """
    leaves = region.leaves()
    # every leaf is drawn within the corners of its extent
    corners = [z for leaf in leaves for z in leaf.extent()] + list(eigenvalues)
    given, unit = window is not None, 1.0
    if not given:
        window, unit = _auto_window(corners)
    _check_window(window, window)
    x0, x1, y0, y1 = window
    size = 640
    scale = size / max(x1 - x0, y1 - y0)

    def sx(x: float) -> float:
        return (x / unit - x0) * scale

    def sy(y: float) -> float:
        return (y1 - y / unit) * scale

    # the automatic window frames every corner; a narrow given one can map
    # a corner past the float range, and 0 * inf is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        if given and not all(math.isfinite(sx(z.real)) and math.isfinite(sy(z.imag)) for z in corners):
            raise ValueError(f"window {window!r} puts a leaf or an eigenvalue past the float range "
                             "in pixels")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for leaf in leaves:
        if isinstance(leaf, rg.Disk):
            cx, cy = sx(leaf.center.real), sy(leaf.center.imag)
            r = f"{leaf.radius / unit * scale:.2f}"
            # a circle of radius 0 paints nothing, a round-capped zero-length path a dot
            shape = (f'circle class="disk" cx="{cx:.2f}" cy="{cy:.2f}" r="{r}"' if r != "0.00" else
                     f'path class="disk" d="M {cx:.2f} {cy:.2f} h 0" stroke-linecap="round"')
            parts.append(f'<{shape} fill="none" stroke="steelblue" stroke-width="1"/>')
        elif isinstance(leaf, rg.CassiniOval):
            # p = 0 leaves one-point loops, which only round caps paint
            cap = ' stroke-linecap="round"' if leaf.radius_product == 0.0 else ""
            for loop in _oval_boundary(leaf, _oval_points(leaf, scale / unit)):
                xy = zip(sx(loop.real).tolist(), sy(loop.imag).tolist())
                coords = " ".join(["%.2f,%.2f" % point for point in xy])
                parts.append(
                    f'<polyline class="oval" points="{coords}" fill="none" '
                    f'stroke="darkorange" stroke-width="1"{cap}/>'
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
    matrix = rg.matrix_from_json(_path(args, "matrix-file").read_text())
    window = None if args.window is None else _parse_window(args.window)
    try:
        region = _build_region(matrix, args.method)
    except rg.RegionUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if rg._METHOD_SHAPES[args.method][1] else 1
    if args.emit == "svg":
        payload = region_to_svg(region, orc.complex_eigenvalues(matrix).values, window)
    else:
        payload = bd._indented_json(rg.region_to_json(region))
    if args.out is not None:
        _path(args, "out").write_text(payload + "\n")
    else:
        print(payload)
    return 0


def _parse_window(text: str) -> tuple[float, float, float, float]:
    try:
        x0, x1, y0, y1 = window = tuple(map(float, text.split(":")))
    except ValueError:
        raise ValueError(f"window {text!r} must be 'x0:x1:y0:y1', four numbers") from None
    _check_window(window, text)
    return window


def _check_window(window: tuple[float, float, float, float], shown) -> None:
    x0, x1, y0, y1 = window
    # a width past the float range would scale every coordinate to NaN
    if not (x0 < x1 and y0 < y1 and x1 - x0 < math.inf and y1 - y0 < math.inf):
        raise ValueError(f"window {shown!r} needs x0 < x1 and y0 < y1 with a finite "
                         "width and height")


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.matrix_file is not None:
        _refuse(args, _GRAPH_OPTIONS + ("mode",), "--matrix-file", "graph option")
        matrix = rg.matrix_from_json(_path(args, "matrix-file").read_text())
        results = verify_matrix(matrix, scope=args.scope, tol=args.tol)
    else:
        g = _graph_from_args(args)
        results = verify_graph(g, scope=args.scope, tol=args.tol, mode=args.mode or "published")
    if not results:
        raise ValueError(f"scope {args.scope!r} selects no check for this input")
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _parse_sweep_spec(token: str) -> tuple[str, list[int]]:
    """'family:lo..hi[:step]' (or 'family:lo:hi[:step]'), the bare name alone for
    petersen, which takes no size; the name is read by graphs._family, as generate reads it.
    A range whose largest size is past the vertex cap is refused here, before any spec is solved."""
    fields = token.replace("..", ":").split(":")
    try:
        family = gr._family(fields[0])
    except ValueError:
        raise ValueError(f"bad sweep spec {token!r}: unknown graph family {fields[0]!r}") from None
    if family == "petersen":
        if len(fields) > 1:
            raise ValueError(f"bad sweep spec {token!r}: petersen takes no range")
        return family, [10]
    try:
        lo, hi, step = map(int, fields[1:] + ["1"] * (len(fields) == 3))
    except ValueError:
        raise ValueError(f"bad sweep spec {token!r}: expected family:lo..hi[:step] "
                         "with integers lo, hi and step") from None
    if step < 1 or hi < lo:
        raise ValueError(f"bad sweep range in {token!r}")
    sizes = range(lo, hi + 1, step)
    if sizes[-1] > gr.MAX_VERTICES:
        raise ValueError(f"bad sweep spec {token!r}: vertex count {sizes[-1]} exceeds the "
                         f"{gr.MAX_VERTICES} cap")
    return family, list(sizes)


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
    specs = [(token, *_parse_sweep_spec(token)) for token in args.spec]
    for token, family, sizes in specs:
        for n in sizes:
            try:
                g = _GRAPHS.graph((family, n), lambda: _sweep_graph(family, n))
            except ValueError as exc:  # the family's refusal names no spec
                raise ValueError(f"sweep {token!r} at n = {n}: {exc}") from None
            if not gr._has_matrix(g, kind):
                continue
            report = bd.bounds_report(g, kind, mode=args.mode)
            values = g.spectrum(kind).values
            rows += [
                f"{family},{g.n},{bound.theorem},{bound.target},"
                f"{bound.lower!r},{bound.upper!r},{oracle_value!r},"
                f"{oracle_value - bound.lower!r},{bound.upper - oracle_value!r}"
                for bound, oracle_value in _bound_pairs(report, values)
            ]
    payload = "\n".join(rows) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        _path(args, "out").write_text(payload)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call and then reused; ``parse_args`` returns a fresh
    namespace each time.  The ``_cmd_*`` handlers are bound at that first build."""
    parser = argparse.ArgumentParser(
        prog="eigenloc",
        description="Eigenvalue inclusion regions and closed-form graph spectral bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="closed-form bound report for a graph")
    _add_graph_source(p_bounds)
    p_bounds.add_argument("--matrix", choices=_KIND_NAMES, required=True)
    p_bounds.add_argument("--mode", choices=bd.MODES, default="published")
    p_bounds.add_argument("--format", choices=("json", "csv"), default="json")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_regions = sub.add_parser("regions", help="inclusion region of a matrix")
    p_regions.add_argument("--matrix-file", required=True, help="matrix JSON file")
    p_regions.add_argument("--method", choices=rg.METHODS, required=True)
    p_regions.add_argument("--emit", choices=("json", "svg"), default="json")
    p_regions.add_argument("--window", help="SVG window as 'x0:x1:y0:y1'")
    p_regions.add_argument("--out", help="output file (default: stdout)")
    p_regions.set_defaults(func=_cmd_regions)

    p_verify = sub.add_parser("verify", help="check bounds/regions against the oracle")
    _add_graph_source(p_verify)
    p_verify.add_argument("--matrix-file", help="matrix JSON file instead of a graph")
    p_verify.add_argument("--scope", default="all", help="'all' or comma-separated check names")
    p_verify.add_argument("--tol", type=float, default=1e-8)
    # None until given, so --matrix-file can refuse it; graphs read None as published
    p_verify.add_argument("--mode", choices=bd.MODES)
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="bounds-vs-oracle CSV across family ranges")
    p_sweep.add_argument("spec", nargs="+", help="family:lo..hi[:step] or 'petersen'")
    p_sweep.add_argument("--matrix", choices=_KIND_NAMES, required=True)
    p_sweep.add_argument("--mode", choices=bd.MODES, default="published")
    p_sweep.add_argument("--out", required=True, help="CSV path, or '-' for stdout")
    p_sweep.set_defaults(func=_cmd_sweep)
    parser.subcommands = sub.choices  # each subcommand's own parser, by name
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser would hand argv[1:] to this same parser; it parses only
    # an argv that names no subcommand or leaves words over, so as to report it
    command = _build_parser().subcommands.get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:]) if command else (None, True)
    if rest:
        args = _build_parser().parse_args(argv)
    _GRAPHS.begin_request()
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout is met inside the try
        return code
    except BrokenPipeError:  # Python's SIGPIPE recipe: the rest goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        # every library error; json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
