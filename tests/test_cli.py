"""CLI surface: subcommands, exit codes, serialisation, SVG structure."""

import functools
import gc
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import eigenloc.bounds as bd
import eigenloc.cli as cli
import eigenloc.graphs as gr
from eigenloc.bounds import BoundInterval
from eigenloc.cli import (
    _build_parser,
    _oval_boundary,
    check_interval,
    main,
    region_to_svg,
    verify_graph,
    verify_matrix,
)
from eigenloc.graphs import (
    MAX_VERTICES,
    GraphMatrixKind,
    build_matrix,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    graph_to_json,
    petersen,
    star,
)
from eigenloc.oracle import complex_eigenvalues, graph_spectrum
from eigenloc.regions import (
    METHODS,
    CassiniOval,
    Disk,
    PointSet,
    RegionUnion,
    brauer_region,
    gersgorin_region,
    matrix_to_json,
    real_section,
    region_from_json,
    region_slack_grid,
    region_to_json,
    rowsum_brauer_region,
    section_contains,
)

from .conftest import ROWSUM_3X3, count_first_reads


def _seeded_square(n: int, rowsum: bool = False) -> np.ndarray:
    """A seeded complex n x n matrix, entries on the unit square; with
    ``rowsum`` its diagonal is shifted so that every row sums to the mean."""
    rng = np.random.default_rng(n)
    a = rng.random((n, n)) + 1j * rng.random((n, n))
    sums = a.sum(axis=1)
    return a + np.diag(sums.mean() - sums) if rowsum else a


_SEEDED_ROWSUM_6X6 = _seeded_square(6, rowsum=True)


@pytest.fixture
def rowsum_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(matrix_to_json(ROWSUM_3X3))
    return str(path)


class TestBoundsCommand:
    def test_complete_adjacency_json(self, capsys):
        code = main(["bounds", "--family", "complete", "--n", "4", "--matrix", "adjacency"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        thm31 = [b for b in obj["bounds"] if b["theorem"] == "Thm3.1"]
        lam2 = [b for b in thm31 if b["target"] == "lambda_2"][0]
        assert (lam2["lower"], lam2["upper"]) == (-1.0, -1.0)

    def test_complete_27_normalized(self, capsys):
        code = main(["bounds", "--family", "complete", "--n", "27", "--matrix", "normalized"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        lam2 = [b for b in obj["combined"] if b["target"] == "lambda_2"][0]
        assert lam2["lower"] == lam2["upper"] == -1.0 / 26

    def test_k4_normalized_report_is_pinned(self, capsys):
        # Thm4.4 once printed [-0.33333333333333304, -0.3333333333333335]
        third = "-0.3333333333333333,-0.3333333333333333"
        code = main(["bounds", "--family", "complete", "--n", "4", "--matrix", "normalized",
                     "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["theorem,target,lower,upper"] + [
            f"{tag},{target},{third}"
            for tag in ("Thm4.1", "Thm4.4", "Thm4.5", "combined")
            for target in ("lambda_2", "lambda_n")
        ]

    def test_c4_laplacian_report_is_pinned(self, capsys):
        # C_4's algebraic connectivity is exactly 2; Thm5.2 once printed
        # 1.9999999999999996 as its upper end
        code = main(["bounds", "--family", "cycle", "--n", "4", "--matrix", "laplacian",
                     "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "theorem,target,lower,upper",
            "Thm5.2,lambda_1,3.333333333333333,4.0",
            "Thm5.2,lambda_n_minus_1,1.3333333333333333,2.0",
            "Thm5.3,lambda_1,-1.0,5.0",
            "Thm5.3,lambda_n_minus_1,-1.0,5.0",
            "combined,lambda_1,3.333333333333333,4.0",
            "combined,lambda_n_minus_1,1.3333333333333333,2.0",
        ]

    def test_edges_file_csv(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("4 4\n1 2\n2 3\n3 4\n4 1\n")
        code = main(["bounds", "--edges", str(edges), "--matrix", "laplacian", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "theorem,target,lower,upper"
        assert any(line.startswith("Thm5.2,") for line in lines)

    def test_graph_json_input(self, tmp_path, capsys):
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
        code = main(["bounds", "--edges", str(gfile), "--matrix", "adjacency"])
        assert code == 0

    def test_star_normalized_applies_dominating_theorems(self, capsys):
        code = main(["bounds", "--family", "star", "--n", "5", "--matrix", "normalized"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        applied = {b["theorem"] for b in obj["bounds"]}
        assert {"Thm4.4", "Thm4.5"} <= applied

    def test_exit_2_when_nothing_applies(self, capsys):
        code = main(["bounds", "--family", "path", "--n", "4", "--matrix", "adjacency"])
        assert code == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["bounds"] == [] and len(obj["skipped"]) == 5

    def test_parse_failure_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n1 5\n")
        assert main(["bounds", "--edges", str(bad), "--matrix", "adjacency"]) == 1
        assert capsys.readouterr().err == "error: edge (1, 5) has an endpoint outside 1..2\n"

    def test_family_and_edges_conflict(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("2 1\n1 2\n")
        code = main(
            ["bounds", "--family", "complete", "--n", "3", "--edges", str(edges),
             "--matrix", "adjacency"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --edges takes no family option, got --family --n\n"

    @pytest.mark.parametrize("command", [["bounds", "--matrix", "laplacian"], ["verify"]],
                             ids=["bounds", "verify"])
    @pytest.mark.parametrize("option", [["--n", "7"], ["--p", "2"], ["--q", "3"],
                                        ["--connections", "1,2"], ["--family", "path"]],
                             ids=["n", "p", "q", "connections", "family"])
    def test_edges_refuses_family_options(self, command, option, tmp_path, capsys):
        # once --n, --p, --q and --connections were ignored next to --edges, so
        # --n 7 printed the report of the file's 3 vertices with exit 0
        edges = tmp_path / "p3.txt"
        edges.write_text("3 2\n1 2\n2 3\n")
        assert main(command + ["--edges", str(edges)] + option) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --edges takes no family option, got {option[0]}\n"

    def test_no_graph_source_exit_1(self, capsys):
        assert main(["bounds", "--matrix", "adjacency"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: no graph source: supply --family or --edges\n"

    def test_deterministic_output(self, capsys):
        argv = ["bounds", "--family", "petersen", "--matrix", "laplacian"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


class TestRegionsCommand:
    def test_rowsum_gersgorin_json(self, rowsum_file, capsys):
        code = main(["regions", "--matrix-file", rowsum_file, "--method", "rowsum-gersgorin"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["op"] == "intersection"
        first = obj["children"][0]
        disks = [c["disk"] for c in first["children"] if "disk" in c]
        assert disks[0]["center"] == [1.0, 0.0] and disks[0]["radius"] == 1.0
        assert disks[1]["center"] == [0.0, 0.0] and disks[1]["radius"] == 1.0

    def test_diagonal_gersgorin_radius_zero(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        path.write_text(matrix_to_json(np.diag([1.0, 2.0, 3.0])))
        code = main(["regions", "--matrix-file", str(path), "--method", "gersgorin"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert [c["disk"]["radius"] for c in obj["children"]] == [0.0, 0.0, 0.0]

    def test_exit_3_for_non_constant_row_sum(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(np.diag([1.0, 2.0, 3.0])))
        code = main(["regions", "--matrix-file", str(path), "--method", "rowsum-gersgorin"])
        assert code == 3

    def test_parse_failure_exit_1(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        assert main(["regions", "--matrix-file", str(path), "--method", "gersgorin"]) == 1

    def test_round_trip_membership(self, rowsum_file, capsys):
        main(["regions", "--matrix-file", rowsum_file, "--method", "rowsum-brauer"])
        obj = json.loads(capsys.readouterr().out)
        clone = region_from_json(obj)
        original = __import__("eigenloc.regions", fromlist=["rowsum_brauer_region"]).rowsum_brauer_region(
            ROWSUM_3X3
        )
        rng = np.random.default_rng(41)
        pts = rng.uniform(-4, 5, (1000, 2))
        zs = pts[:, 0] + 1j * pts[:, 1]
        assert np.array_equal(
            region_slack_grid(clone, zs) >= 0, region_slack_grid(original, zs) >= 0
        )

    def test_laplacian_c4_rowsum_brauer_section(self, tmp_path, capsys):
        path = tmp_path / "lap.json"
        path.write_text(matrix_to_json(build_matrix(cycle(4), GraphMatrixKind.LAPLACIAN)))
        code = main(["regions", "--matrix-file", str(path), "--method", "rowsum-brauer"])
        assert code == 0
        region = region_from_json(json.loads(capsys.readouterr().out))
        section = real_section(region)
        assert section_contains(section, 2.0, 1e-9)
        assert section_contains(section, 4.0, 1e-9)

    def test_svg_structure(self, rowsum_file, tmp_path):
        out = tmp_path / "region.svg"
        code = main(
            ["regions", "--matrix-file", rowsum_file, "--method", "gersgorin",
             "--emit", "svg", "--out", str(out)]
        )
        assert code == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert svg.count('class="disk"') == 3
        assert svg.count('class="eigenvalue"') == 3

    def test_svg_of_ovals_past_1e154_is_finite(self, tmp_path):
        # their squares overflow: the boundary once came out as inf and NaN,
        # with overflow and invalid-value warnings
        path, out = tmp_path / "big.json", tmp_path / "big.svg"
        path.write_text(matrix_to_json([[-1.0, -1e154], [1e154, -2e154]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["regions", "--matrix-file", str(path), "--method", "brauer",
                         "--emit", "svg", "--out", str(out)])
        svg = out.read_text()
        assert code == 0 and svg.count('class="oval"') >= 1
        assert not re.search("nan|inf", svg, re.IGNORECASE)

    @pytest.mark.parametrize("matrix", [np.diag([1.7e308, -1.7e308]), np.array([[1e308, 1.0], [1.0, -1e308]])],
                             ids=["diagonal", "coupled"])
    def test_svg_wider_than_the_float_range_draws(self, matrix, tmp_path):
        # the automatic window's width overflowed to inf, and the command once
        # exited 1 with "window (-inf, inf, -inf, inf)"; it is now taken in a
        # power-of-two unit
        path, out = tmp_path / "huge.json", tmp_path / "huge.svg"
        path.write_text(matrix_to_json(matrix))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["regions", "--matrix-file", str(path), "--method", "gersgorin",
                         "--emit", "svg", "--out", str(out)])
        svg = out.read_text()
        assert code == 0 and not re.search("nan|inf", svg, re.IGNORECASE)
        # the disks, far below a pixel wide, are dots
        disks = re.findall(r'class="disk" d="M ([-0-9.]+) ([-0-9.]+) h 0"', svg)
        marks = re.findall(r'class="eigenvalue" cx="([-0-9.]+)" cy="([-0-9.]+)"', svg)
        assert len(disks) == len(marks) == 2
        # where diag(1.7, -1.7) draws them, in the same frame
        assert set(disks) == set(marks) == {("53.33", "53.33"), ("586.67", "53.33")}

    def test_svg_ovals_are_polylines(self, rowsum_file, capsys):
        code = main(
            ["regions", "--matrix-file", rowsum_file, "--method", "brauer",
             "--emit", "svg", "--window=-4:5:-4:5"]
        )
        assert code == 0
        svg = capsys.readouterr().out
        assert svg.count('class="oval"') >= 3
        first_points = svg.split('points="')[1].split('"')[0]
        # a closed 90-point loop: the 1/4 px count of the oval with foci 1 and
        # 2 + i and p = 1 + sqrt 2 at 640 / 9 px a unit (it was 512 for every oval)
        assert len(first_points.split()) == 91

    @pytest.mark.parametrize("matrix, method, ovals", [
        (np.diag([1.0, 2.0, 3.0]), "brauer", 3),
        (build_matrix(complete(4), GraphMatrixKind.ADJACENCY), "rowsum-brauer", 12),
    ], ids=["diagonal", "K4-rowsum"])
    def test_svg_draws_every_zero_product_oval(self, matrix, method, ovals, tmp_path, capsys):
        # an oval with p = 0 is its foci; it once drew no element at all
        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(matrix))
        assert main(["regions", "--matrix-file", str(path), "--method", method, "--emit", "svg"]) == 0
        assert ovals <= capsys.readouterr().out.count('class="oval"') <= 2 * ovals


    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("matrix", [ROWSUM_3X3, _SEEDED_ROWSUM_6X6, _SEEDED_ROWSUM_6X6.real],
                             ids=["3x3", "6x6", "6x6-real"])
    def test_region_json_is_json_dumps_indent_2(self, matrix, method, tmp_path, capsys):
        # written by bounds._indented_json, which report_to_json also uses
        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(matrix))
        assert main(["regions", "--matrix-file", str(path), "--method", method]) == 0
        obj = region_to_json(cli._build_region(matrix, method))
        assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"

    def test_region_json_writer_spells_an_infinite_radius_as_json_dumps(self):
        # no leaf takes an infinite radius, so one is written into a region's JSON
        obj = region_to_json(gersgorin_region(ROWSUM_3X3))
        obj["children"][0]["disk"]["radius"] = math.inf
        assert bd._indented_json(obj) == json.dumps(obj, indent=2)
        assert '"radius": Infinity' in bd._indented_json(obj)


class TestVerifyCommand:
    def test_petersen_all_pass(self, capsys):
        code = main(["verify", "--family", "petersen"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "PASS Thm3.1" in out and "PASS rowsum-gersgorin[laplacian]" in out

    def test_verify_graph_classifies_once(self, monkeypatch):
        # the graph keeps its structure report, so its three reports share it;
        # every module that holds classify is patched
        import eigenloc.graphs as graphs_module

        calls = []
        original = graphs_module.classify

        def counting(g):
            calls.append(g)
            return original(g)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "eigenloc" and getattr(module, "classify", None) is original:
                monkeypatch.setattr(module, "classify", counting)
        g = petersen()
        assert all(result.passed for result in verify_graph(g))
        assert calls == [g]

    def test_verify_graph_solves_each_matrix_once(self, monkeypatch, capsys):
        # each Graph.matrix kind is made once, on its first read, and the
        # region stack and the oracle read that one matrix; a regular graph's
        # adjacency alone is solved, its other two spectra derived from that
        # one; any other graph's Laplacian is solved as g.matrix(LAPLACIAN),
        # and its normalized spectrum from the symmetric similar matrix;
        # every module that holds the solver is patched
        import eigenloc.oracle as oracle_module

        made = {name: count_first_reads(monkeypatch, gr.Graph, name)
                for name in ("adjacency", "_laplacian", "_normalized_adjacency")}
        solved = []
        solve = oracle_module.symmetric_eigenvalues

        def counting_solve(matrix):
            solved.append(matrix)
            return solve(matrix)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "eigenloc" and getattr(module, "symmetric_eigenvalues", None) is solve:
                monkeypatch.setattr(module, "symmetric_eigenvalues", counting_solve)
        g = petersen()
        assert all(result.passed for result in verify_graph(g))
        assert [graphs.count(g) for graphs in made.values()] == [1, 1, 1]
        assert len(solved) == 1 and solved[0] is g.adjacency
        solved.clear()
        # three builds, not four: the Laplacian it solves is the stack's
        g = star(5)
        assert all(result.passed for result in verify_graph(g))
        assert [graphs.count(g) for graphs in made.values()] == [1, 1, 1]
        assert len(solved) == 3
        assert solved[0] is g.adjacency and solved[1] is g.matrix(GraphMatrixKind.LAPLACIAN)
        # three sweeps, one per kind, of one held graph that is not regular
        # build each of its matrices at most once: a sweep reads no D^{-1}A
        for graphs in made.values():
            graphs.clear()
        solved.clear()
        for kind in GraphMatrixKind:
            assert main(["sweep", "star:40..40", "--matrix", kind.value, "--out", "-"]) == 0
        capsys.readouterr()
        (held,) = made["adjacency"]
        assert held.structure.regular is None
        assert [len(graphs) for graphs in made.values()] == [1, 1, 0] and made["_laplacian"][0] is held
        assert len(solved) == 3 and solved[0] is held.adjacency
        assert solved[1] is held.matrix(GraphMatrixKind.LAPLACIAN)

    def test_only_the_graph_writes_into_a_graph(self):
        # after verify and every kind's spectrum, a regular graph and one
        # that is not hold only what the constructor sets and the facts that
        # Graph declares
        declared = set(vars(gr.Graph(1, frozenset())))
        declared |= {name for name, attr in vars(gr.Graph).items() if isinstance(attr, functools.cached_property)}
        for g in (petersen(), star(5)):
            verify_graph(g)
            for kind in GraphMatrixKind:
                graph_spectrum(g, kind)
            assert "adjacency_spectrum" in vars(g) and set(vars(g)) <= declared, set(vars(g)) - declared

    def test_verify_makes_each_matrix_fact_once(self, monkeypatch):
        # each fact of a graph's three matrices (row sums and gamma, deleted
        # row sums, deflation table) is made by one pass over their stack,
        # read by all four region checks of every matrix
        from eigenloc.regions import MatrixFacts

        made = {name: count_first_reads(monkeypatch, MatrixFacts, name)
                for name in ("gamma", "deleted_row_sums", "deflation_table")}
        assert all(result.passed for result in verify_graph(petersen()))
        (stack,) = made["gamma"]
        assert all(reads == [stack] for reads in made.values())
        # all three of Petersen's matrices have a constant row sum
        assert len(stack.gamma) == 3 and None not in stack.gamma
        for reads in made.values():
            reads.clear()
        assert all(result.passed for result in verify_matrix(ROWSUM_3X3))
        (stack,) = made["gamma"]
        assert all(reads == [stack] for reads in made.values()) and len(stack.gamma) == 1

    def test_verify_reads_the_graphs_deflation_tables(self, monkeypatch):
        # a graph matrix with entries 0 and one value off the diagonal counts
        # its deflation radii on its pattern, so the generic O(n^3) pass runs
        # only for the normalized matrix of a non-regular graph: not on a
        # regular graph, the normalized matrix alone on a path, and nothing
        # where an isolated vertex leaves the adjacency and the Laplacian
        import eigenloc.regions as rg
        from eigenloc.graphs import Graph, path

        passes, generic = [], rg._generic_radii
        monkeypatch.setattr(rg, "_generic_radii", lambda a: passes.append(len(a)) or generic(a))
        for g, want in [(petersen(), []), (path(5), [1]), (Graph.from_edges(4, [(1, 2), (2, 3)]), [])]:
            passes.clear()
            assert all(result.passed for result in verify_graph(g))
            assert passes == want, g

    def test_verify_matrix_refuses_as_the_builders(self, monkeypatch):
        # the region checks build no region, yet each matrix that a builder
        # refuses is refused in the builder's type and words, the first
        # builder's of those a scope asks for; fixed points stand in for the
        # oracle, which refuses a NaN or infinite entry before any region
        import types

        import eigenloc.oracle as oracle
        from eigenloc.regions import rowsum_gersgorin_region

        builders = {"gersgorin": gersgorin_region, "brauer": brauer_region,
                    "rowsum-gersgorin": rowsum_gersgorin_region, "rowsum-brauer": rowsum_brauer_region}
        spectrum = types.SimpleNamespace(values=np.array([0.5, 2.0 + 1.0j]))
        monkeypatch.setattr(oracle, "complex_eigenvalues", lambda matrix: spectrum)
        rng = np.random.default_rng(88)
        cases = [np.diag([1e308, -1e308]), np.diag([1e308, 1.5e308]),
                 np.array([[1e308, -1e308, 0], [-1e308, 1e308, 0], [0, 0, 0]]),
                 np.array([[1e200, -1e200, 0, 0], [-1e200, 1e200, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]]),
                 np.array([[math.nan, 1.0], [1.0, 0.0]]), np.array([[1.0, math.inf], [0.0, 1.0]])]
        for n in (2, 3, 5):
            a = rng.standard_normal((n, n))
            a[:, -1] += 1.0 - a.sum(axis=1)
            cases += [a * scale for scale in (1e150, 1e200, 1e300, 1e307)]
        refused = 0
        for a in cases:
            for scope in ("all",) + tuple(builders):
                refusal = None
                for method, builder in builders.items():
                    if scope in ("all", method) and refusal is None:
                        try:
                            builder(a)
                        except ValueError as exc:
                            refusal = None if type(exc).__name__ == "RegionUnavailable" else exc
                if refusal is None:
                    verify_matrix(a, scope=scope)
                    continue
                with pytest.raises(type(refusal), match=re.escape(str(refusal))):
                    verify_matrix(a, scope=scope)
                refused += 1
        assert refused >= 40

    def test_verify_graph_peak_memory(self):
        # the region checks hold no table larger than O(n^2) plus _PASS_ROWS
        # rows; building regions made them peak at 3.3 MB on this graph
        import tracemalloc

        g = circulant(64, (1, 5, 17))
        tracemalloc.start()
        try:
            assert all(result.passed for result in verify_graph(g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.3e6

    def test_isolated_vertex_skips_the_normalized_checks(self, tmp_path, capsys):
        # vertex 4 is isolated, so D^{-1}A is undefined: the adjacency and
        # Laplacian checks run, and none of the normalized matrix
        edges = tmp_path / "g.txt"
        edges.write_text("4 2\n1 2\n2 3\n")
        assert main(["verify", "--edges", str(edges)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines[:-1]] == [
            ["PASS", "gersgorin[adjacency]"], ["PASS", "brauer[adjacency]"],
            ["PASS", "gersgorin[laplacian]"], ["PASS", "brauer[laplacian]"],
            ["PASS", "rowsum-gersgorin[laplacian]"], ["PASS", "rowsum-brauer[laplacian]"],
        ]
        assert lines[-1] == "6/6 checks passed"

    def test_region_check_names_follow_the_matrix_kinds(self, capsys):
        assert main(["verify", "--family", "cycle", "--n", "5", "--scope", "gersgorin"]) == 0
        names = [line.split()[1] for line in capsys.readouterr().out.splitlines()[:-1]]
        assert names == ["gersgorin[adjacency]", "gersgorin[laplacian]", "gersgorin[normalized]"]

    @pytest.mark.parametrize("command", ["bounds", "sweep"])
    def test_matrix_choices(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--matrix {adjacency,laplacian,normalized}" in capsys.readouterr().out

    def test_sharp_scope_slack_zero(self, capsys):
        code = main(["verify", "--family", "complete", "--n", "6", "--scope", "Thm3.7"])
        out = capsys.readouterr().out
        assert code == 0
        slacks = [
            float(line.rsplit("slack=", 1)[1])
            for line in out.splitlines()
            if line.startswith("PASS Thm3.7")
        ]
        assert slacks and all(abs(s) <= 1e-9 for s in slacks)

    def test_matrix_file_checks(self, rowsum_file, capsys):
        code = main(["verify", "--matrix-file", rowsum_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS gamma" in out and "PASS rowsum-brauer" in out

    @pytest.mark.parametrize("source", [
        ["--family", "petersen"], ["--edges", "{dir}/missing.txt"], ["--n", "3"], ["--p", "2"],
        ["--q", "0"], ["--connections", "1,2"], ["--family", "cycle", "--n", "5"],
        ["--mode", "corrected"], ["--mode", "published"], ["--n", "4", "--mode", "corrected"],
    ])
    def test_matrix_file_refuses_a_graph_source(self, source, rowsum_file, tmp_path, capsys):
        # once the graph source was ignored, with exit 0 and the matrix's checks,
        # and so was --mode, which only graph bounds read
        argv = ["verify", "--matrix-file", rowsum_file] + [a.format(dir=tmp_path) for a in source]
        assert main(argv) == 1
        captured = capsys.readouterr()
        named = " ".join(a for a in source if a.startswith("--"))
        assert captured.err == f"error: --matrix-file takes no graph option, got {named}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("graph, source", [
        (petersen(), ["--family", "petersen"]),
        (circulant(12, (1, 3)), ["--family", "circulant", "--n", "12", "--connections", "1,3"]),
    ], ids=["petersen", "circulant12"])
    @pytest.mark.parametrize("mode", ["published", "corrected"])
    def test_sweep_rows_agree_with_verify_lines(self, graph, source, mode, capsys, monkeypatch):
        # both commands read one bound pass: each sweep row's least slack is the
        # slack of the verify line of the same theorem and target
        import eigenloc.cli as cli

        assert main(["verify", "--mode", mode] + source) == 0
        lines = capsys.readouterr().out.splitlines()[:-1]
        verify = {tuple(line.split()[1:3]): line.rsplit("slack=", 1)[1]
                  for line in lines if "[" not in line.split()[1]}
        monkeypatch.setattr(cli, "_sweep_graph", lambda family, n: graph)
        sweep = {}
        for kind in ("adjacency", "laplacian", "normalized"):
            assert main(["sweep", "petersen", "--matrix", kind, "--mode", mode, "--out", "-"]) == 0
            for row in capsys.readouterr().out.splitlines()[1:]:
                fields = row.split(",")
                least = min(float(fields[7]), float(fields[8])) + 0.0
                sweep[fields[2], fields[3]] = "%.6e" % least
        assert sweep and sweep == verify

    def test_a_matrix_near_zero_has_no_row_sum_checks(self, tmp_path, capsys):
        # 2^-40 diag(-1, 0) once took the row sum -2^-40 and passed its
        # row-sum checks with both eigenvalues outside their regions
        path = tmp_path / "tiny.json"
        path.write_text(matrix_to_json(2.0**-40 * np.diag([-1.0, 0.0])))
        assert main(["verify", "--matrix-file", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == ["gersgorin", "brauer", "checks"]
        assert lines[-1] == "2/2 checks passed"

    def test_complete_34_matrix_file(self, tmp_path, capsys):
        # -1 is an eigenvalue with 33 independent eigenvectors
        path = tmp_path / "k34.json"
        path.write_text(matrix_to_json(build_matrix(complete(34), GraphMatrixKind.ADJACENCY)))
        code = main(["verify", "--matrix-file", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "5/5 checks passed" in out

    def test_tampered_bound_fails(self):
        fake = BoundInterval("lambda_2", 0.5, 2.0, "Thm3.1")
        result = check_interval(fake, -1.0, tol=1e-8)
        assert not result.passed and result.slack < -1.0

    def test_verify_exit_1_on_failures(self, capsys, monkeypatch):
        import eigenloc.cli as cli

        fake = BoundInterval("lambda_2", 0.5, 2.0, "Thm9.9")
        monkeypatch.setattr(
            cli, "verify_graph", lambda *a, **k: [check_interval(fake, -1.0, 1e-8)]
        )
        code = main(["verify", "--family", "complete", "--n", "3"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestBadInputExitCodes:
    @pytest.fixture
    def nan_matrix_file(self, tmp_path):
        a = ROWSUM_3X3.astype(complex)
        a[0, 1] = complex(math.nan, 0.0)
        path = tmp_path / "nan.json"
        path.write_text(matrix_to_json(a))
        return str(path)

    @pytest.mark.parametrize(
        "argv", [["verify"], ["regions", "--method", "gersgorin"]], ids=["verify", "regions"]
    )
    def test_nan_matrix_exits_1(self, argv, nan_matrix_file, capsys):
        assert main(argv + ["--matrix-file", nan_matrix_file]) == 1
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.out == ""

    def test_row_sum_overflow_prints_only_the_error(self, tmp_path):
        # finite entries whose row sums overflow once averaged
        path = tmp_path / "big.json"
        path.write_text(matrix_to_json(np.diag([complex(1e308, 1e308)] * 3)))
        proc = subprocess.run(
            [sys.executable, "-m", "eigenloc.cli", "verify", "--matrix-file", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and "finite" in proc.stderr

    @pytest.mark.parametrize(
        "argv", [["regions", "--method", "gersgorin"], ["regions", "--method", "brauer"],
                 ["verify"]], ids=["gersgorin", "brauer", "verify"]
    )
    def test_deleted_row_sum_overflow_prints_only_the_error(self, argv, tmp_path, capsys):
        # a deleted row sum past the float range once warned "overflow
        # encountered in reduce", and its product with a zero one "invalid
        # value encountered in multiply", before the error line
        path = tmp_path / "over.json"
        path.write_text(matrix_to_json(np.array([[1e308, 0, -9e307], [0, -1e308, 1e308],
                                                 [0, 0, 0]])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--matrix-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "finite" in captured.err

    def test_far_apart_oval_foci_print_only_the_error(self, tmp_path):
        # once two numpy warnings and a false "FAIL brauer spectrum slack=nan"
        path = tmp_path / "far.json"
        path.write_text(matrix_to_json(np.diag([1e308, -1e308])))
        proc = subprocess.run(
            [sys.executable, "-m", "eigenloc.cli", "verify", "--matrix-file", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and "too far apart" in proc.stderr

    @pytest.mark.parametrize("argv, error", [
        (["bounds", "--edges", "", "--family", "complete", "--n", "3", "--matrix", "adjacency"],
         "error: --edges takes no family option, got --family --n\n"),
        (["verify", "--matrix-file", "", "--family", "petersen"],
         "error: --matrix-file takes no graph option, got --family\n"),
        (["bounds", "--family", "", "--matrix", "adjacency"], "error: unknown graph family ''\n"),
        (["bounds", "--family", "complete", "--n", "3", "--connections", "", "--matrix", "adjacency"],
         "error: --connections takes comma-separated integers, got ''\n"),
        (["bounds", "--family", "circulant", "--n", "6", "--connections", "1,x", "--matrix", "adjacency"],
         "error: --connections takes comma-separated integers, got '1,x'\n"),
        (["bounds", "--edges", "", "--matrix", "adjacency"], "error: --edges needs a file path\n"),
        (["verify", "--matrix-file", ""], "error: --matrix-file needs a file path\n"),
        (["regions", "--method", "gersgorin", "--emit", "svg", "--window", ""],
         "error: window '' must be 'x0:x1:y0:y1', four numbers\n"),
        (["regions", "--method", "gersgorin", "--out", ""], "error: --out needs a file path\n"),
    ], ids=["edges", "matrix-file", "family", "connections", "bad-connections", "lone-edges",
            "lone-matrix-file", "window", "out"])
    def test_empty_option_value_exits_1(self, argv, error, rowsum_file, capsys):
        # once an empty value counted as absent: the first two printed K_3's
        # report and ran the Petersen checks, with exit 0
        if argv[0] == "regions":
            argv = argv + ["--matrix-file", rowsum_file]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(error)

    @pytest.mark.parametrize(
        "argv", [["bounds", "--matrix", "adjacency"], ["verify"]], ids=["bounds", "verify"]
    )
    def test_fractional_graph_json_exits_1(self, argv, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text('{"n": 2.7, "edges": [[1.9, 2]]}')
        assert main(argv + ["--edges", str(path)]) == 1
        assert "integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "window", ["a:b:c:d", "0:1:0", "0:0:0:0", "1:0:1:0", "0:inf:0:1", "-1e308:1e308:-1:1",
                   "0:1:-1e308:1e308"]
    )
    def test_bad_svg_window_exits_1(self, window, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(ROWSUM_3X3))
        argv = ["regions", "--matrix-file", str(path), "--method", "gersgorin", "--emit", "svg"]
        assert main(argv + [f"--window={window}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("window", ["a:b:c:d", "0:1:0:y", "0:1:0", "0:1:0:1:2"])
    def test_malformed_svg_window_is_named(self, window, rowsum_file, capsys):
        # a non-numeric field once printed only float()'s "could not convert
        # string to float: 'a'"
        argv = ["regions", "--matrix-file", rowsum_file, "--method", "gersgorin", "--emit", "svg"]
        assert main(argv + [f"--window={window}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: window {window!r} must be 'x0:x1:y0:y1', four numbers\n"

    def test_given_svg_window_past_the_float_range_exits_1(self, tmp_path, capsys):
        # a given window keeps the rule: a width past the float range would
        # scale every disk and marker to cx="nan"
        path = tmp_path / "huge.json"
        path.write_text(matrix_to_json(np.array([[1e308, 1.0], [1.0, -1e308]])))
        argv = ["regions", "--matrix-file", str(path), "--method", "gersgorin", "--emit", "svg"]
        assert main(argv + ["--window=-1e308:1e308:-1:1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: window") and "width" in captured.err
        assert "nan" not in captured.out and captured.out == ""

    @pytest.mark.parametrize(
        "argv", [["verify"], ["regions", "--method", "gersgorin", "--emit", "svg"]],
        ids=["verify", "regions-svg"],
    )
    def test_oracle_non_convergence_exits_1(self, argv, rowsum_file, capsys, monkeypatch):
        import eigenloc.oracle as oracle

        def stuck(matrix):
            raise RuntimeError("Aberth iteration did not converge in 500 steps")

        monkeypatch.setattr(oracle, "complex_eigenvalues", stuck)
        assert main(argv + ["--matrix-file", rowsum_file]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: Aberth iteration did not converge in 500 steps\n"
        assert captured.out == ""

    def test_sweep_oracle_error_exits_1(self, capsys, monkeypatch):
        import eigenloc.oracle as oracle

        def stuck(g, kind):
            raise RuntimeError("QL iteration did not converge")

        monkeypatch.setattr(oracle, "graph_spectrum", stuck)
        assert main(["sweep", "complete:3..4", "--matrix", "adjacency", "--out", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: QL iteration did not converge\n"
        assert captured.out == ""

    def test_sweep_solves_graphs_without_bounds(self, capsys, monkeypatch):
        # K_8 minus an edge has no adjacency bound, yet its spectrum is defined
        # and solved, so an oracle failure on it is still reported
        import eigenloc.oracle as oracle

        def stuck(g, kind):
            raise RuntimeError("QL iteration did not converge")

        monkeypatch.setattr(oracle, "graph_spectrum", stuck)
        assert main(["sweep", "complete_minus_edge:8..8", "--matrix", "adjacency",
                     "--out", "-"]) == 1
        assert capsys.readouterr().err == "error: QL iteration did not converge\n"

    @pytest.mark.parametrize("n", [2049, 10**19])
    def test_too_many_vertices_exits_1(self, n, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"n": n, "edges": [[1, 2]]}))
        assert main(["verify", "--edges", str(path)]) == 1
        assert "cap" in capsys.readouterr().err


class TestSweepCommand:
    def test_complete_adjacency_sharp_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "complete:3..10", "--matrix", "adjacency", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == (
            "family,n,theorem,target,lower,upper,oracle,slack_lower,slack_upper"
        )
        rows = [line.split(",") for line in lines[1:]]
        thm37 = [r for r in rows if r[2] == "Thm3.7"]
        assert len(thm37) == 16  # two targets for each of n = 3..10
        assert all(abs(float(r[7])) <= 1e-9 and abs(float(r[8])) <= 1e-9 for r in thm37)

    def test_even_cycles_normalized_oracle_column(self, tmp_path):
        out = tmp_path / "cycles.csv"
        code = main(["sweep", "cycle:4..20:2", "--matrix", "normalized", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        lam2 = [r for r in rows if r[2] == "Thm4.3" and r[3] == "lambda_2"]
        assert len(lam2) == 9
        for r in lam2:
            n = int(r[1])
            assert float(r[6]) == pytest.approx(math.cos(2 * math.pi / n), abs=1e-9)
            assert float(r[7]) >= -1e-9 and float(r[8]) >= -1e-9

    def test_star_laplacian_right_end_slack_zero(self, tmp_path):
        out = tmp_path / "stars.csv"
        code = main(["sweep", "star:4..12", "--matrix", "laplacian", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        thm52_top = [r for r in rows if r[2] == "Thm5.2" and r[3] == "lambda_1"]
        assert len(thm52_top) == 9
        assert all(abs(float(r[8])) <= 1e-9 for r in thm52_top)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "petersen", "cycle:3..6", "--matrix", "adjacency", "--out", str(a)])
        main(["sweep", "petersen", "cycle:3..6", "--matrix", "adjacency", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_normalized_skips_isolated_vertex_graphs(self, capsys):
        # P_1 has an isolated vertex, so its normalized matrix is undefined and
        # the graph is skipped, as in verify
        assert main(["sweep", "path:1..6", "--matrix", "normalized", "--out", "-"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows and {int(r.split(",")[1]) for r in rows} <= set(range(2, 7))

    def test_bad_spec_exit_1(self, tmp_path):
        assert main(["sweep", "complete:9..3", "--matrix", "adjacency",
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("spec", ["cycle:a..5", "cycle:3..b", "cycle:3..5:c", "cycle:3", "cycle:3..5:1:2"])
    def test_malformed_spec_is_named(self, spec, capsys):
        # a non-integer field once printed only int()'s "invalid literal for
        # int() with base 10: 'a'"
        assert main(["sweep", spec, "--matrix", "adjacency", "--out", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: bad sweep spec {spec!r}: expected family:lo..hi[:step] "
                                "with integers lo, hi and step\n")

    @pytest.mark.parametrize("spec", ["petersen:3..5", "petersen:3", "petersen:x:y:z:w"])
    def test_petersen_takes_no_range(self, spec, capsys):
        # as bounds --family petersen --n 3 exits 1
        assert main(["sweep", spec, "--matrix", "adjacency", "--out", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "petersen takes no range" in captured.err

    def test_an_unknown_family_is_refused_before_any_work(self, capsys, monkeypatch):
        # every size of the specs before it was once solved first
        made = []
        monkeypatch.setattr(cli, "_sweep_graph", lambda family, n: made.append(n))
        assert main(["sweep", "cycle:3..40", "foo:1..3", "--matrix", "adjacency", "--out", "-"]) == 1
        captured = capsys.readouterr()
        assert made == [] and captured.out == ""
        assert captured.err == "error: bad sweep spec 'foo:1..3': unknown graph family 'foo'\n"

    def test_family_names_are_normalized_as_generate_does(self, capsys):
        assert main(["sweep", "Complete-Bipartite:4..4", "--matrix", "adjacency", "--out", "-"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and all(row.startswith("complete_bipartite,4,") for row in rows)

    @pytest.mark.parametrize("spec, refusal", [
        ("circulant:2..5", "sweep 'circulant:2..5' at n = 2: circulant connection 0 would be a self-loop"),
        ("complete_bipartite:1..3",
         "sweep 'complete_bipartite:1..3' at n = 1: complete bipartite needs p, q >= 1, got (1, 0)"),
    ], ids=["circulant", "complete_bipartite"])
    def test_a_size_the_family_refuses_is_named(self, spec, refusal, capsys):
        # the family's refusal alone once named no spec, no size and, for the
        # circulant, a connection 0 that the user never gave
        assert main(["sweep", spec, "--matrix", "adjacency", "--out", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {refusal}\n"

    def test_family_conventions(self, capsys):
        # complete_bipartite:n is K_{n - n//2, n//2} and circulant:n is
        # C_n(1, 2), the graphs that bench/workloads.family_edges also makes
        argv = ["sweep", "complete_bipartite:5..6", "circulant:7..8", "--matrix", "laplacian"]
        assert main(argv + ["--out", "-"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        want = []
        for family, g in (("complete_bipartite", complete_bipartite(3, 2)),
                          ("complete_bipartite", complete_bipartite(3, 3)),
                          ("circulant", circulant(7, (1, 2))), ("circulant", circulant(8, (1, 2)))):
            values = graph_spectrum(g, GraphMatrixKind.LAPLACIAN).values
            want += [f"{family},{g.n},{b.theorem},{b.target},{b.lower!r},{b.upper!r},"
                     f"{values[bd.TARGET_POSITION[b.target]]!r}"
                     for b in bd.bounds_report(g, GraphMatrixKind.LAPLACIAN).bounds]
        assert want and [row.rsplit(",", 2)[0] for row in rows] == want

    def test_unwritable_out_exit_1(self):
        assert main(["sweep", "complete:3..4", "--matrix", "adjacency",
                     "--out", "/nonexistent/dir/x.csv"]) == 1


# argv (with {dir} for a directory holding one.json, two.json, free.json and
# bad.json) -> exit code; the last field makes bounds_report raise ValueError
EXIT_CODES = [
    (["verify", "--matrix-file", "{dir}/missing.json"], 1, False),
    (["regions", "--matrix-file", "{dir}/bad.json", "--method", "gersgorin"], 1, False),
    (["bounds", "--family", "nosuch", "--matrix", "adjacency"], 1, False),
    (["sweep", "bogus", "--matrix", "adjacency", "--out", "-"], 1, False),
    (["regions", "--matrix-file", "{dir}/two.json", "--method", "gersgorin",
      "--out", "{dir}/missing/x.json"], 1, False),
    (["sweep", "complete:3..4", "--matrix", "adjacency", "--out", "{dir}/missing/x.csv"], 1, False),
    (["regions", "--matrix-file", "{dir}/one.json", "--method", "brauer"], 1, False),
    (["regions", "--matrix-file", "{dir}/one.json", "--method", "rowsum-gersgorin"], 3, False),
    (["regions", "--matrix-file", "{dir}/two.json", "--method", "rowsum-brauer"], 3, False),
    (["regions", "--matrix-file", "{dir}/free.json", "--method", "rowsum-gersgorin"], 3, False),
    (["bounds", "--family", "complete", "--n", "4", "--matrix", "adjacency"], 1, True),
    (["verify", "--family", "petersen", "--scope", "Thm9.9"], 1, False),
    (["verify", "--family", "petersen", "--tol", "nan"], 1, False),
    (["verify", "--matrix-file", "{dir}/huge.json"], 1, False),
    (["verify", "--family", "petersen", "--scope", "gamma"], 1, False),
    (["verify", "--matrix-file", "{dir}/free.json", "--scope", "Thm3.1"], 1, False),
    (["bounds", "--family", "petersen", "--n", "3", "--matrix", "adjacency"], 1, False),
    (["verify", "--family", "petersen", "--n", "3"], 1, False),
    (["verify", "--family", "cycle", "--n", "5", "--connections", "1,2"], 1, False),
]


@pytest.mark.parametrize(
    "argv, code, broken_bounds",
    EXIT_CODES,
    ids=["missing-file", "bad-json", "unknown-family", "bad-sweep-spec", "regions-out",
         "sweep-out", "brauer-1x1", "rowsum-gersgorin-1x1", "rowsum-brauer-2x2",
         "no-row-sum", "bounds-value-error", "unknown-scope", "tol-nan",
         "eigenvalue-overflow", "graph-scope-selects-nothing", "matrix-scope-selects-nothing",
         "bounds-family-extra-parameter", "verify-family-extra-parameter",
         "connections-not-taken"],
)
def test_exit_code_contract(argv, code, broken_bounds, tmp_path, capsys, monkeypatch):
    matrices = {"one": [[2.0]], "two": [[1.0, 1.0], [0.0, 2.0]], "free": np.diag([1.0, 2.0, 3.0]),
                # max |a_ij| past 2^1023, and the eigenvalue 3e308 past the float range
                "huge": np.full((3, 3), 1e308)}
    for name, matrix in matrices.items():
        (tmp_path / f"{name}.json").write_text(matrix_to_json(np.array(matrix)))
    (tmp_path / "bad.json").write_text("{not json")
    if broken_bounds:
        def broken(*args, **kwargs):
            raise ValueError("empty combined interval")

        monkeypatch.setattr(bd, "bounds_report", broken)
    assert main([arg.format(dir=tmp_path) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


class TestParserReuse:
    """One parser serves every call of main in a process; no option carries over."""

    @staticmethod
    def run(argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_later_calls_match_a_fresh_parser(self, rowsum_file, capsys):
        petersen_graph = ["--family", "petersen"]
        svg = ["regions", "--matrix-file", rowsum_file, "--method", "gersgorin", "--emit", "svg"]
        plain = [["verify", *petersen_graph], ["bounds", *petersen_graph, "--matrix", "adjacency"], svg]
        optioned = [
            plain[0] + ["--tol", "1e-3", "--scope", "Thm3.1", "--mode", "corrected"],
            plain[1] + ["--format", "csv"],
            svg + ["--window=-5:5:-5:5"],
        ]
        first = [self.run(argv, capsys) for argv in optioned]
        assert _build_parser() is _build_parser()
        reused = [self.run(argv, capsys) for argv in plain]
        fresh = []
        for argv in plain:
            _build_parser.cache_clear()
            fresh.append(self.run(argv, capsys))
        assert reused == fresh
        assert all(f != r for f, r in zip(first, reused))

    def test_bad_argv_exits_2_every_time(self, capsys):
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["bounds", "--family", "petersen"])  # no --matrix
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "--matrix" in errors[0]


class TestDispatch:
    """main hands argv to its subcommand's own parser, and parses through the
    top-level parser only an argv that names no subcommand or leaves words
    over; every stdout, stderr and exit code is the top-level parser's."""

    _ARGVS = [
        ["bounds", "--family", "petersen", "--matrix", "adjacency"],
        ["bounds", "--fam", "cycle", "--n", "5", "--matrix", "laplacian", "--format", "csv"],
        ["regions", "--matrix-file", "{matrix}", "--method", "brauer"],
        ["verify", "--family", "cycle", "--n", "5", "--tol", "1e-6"],
        ["sweep", "cycle:3..5", "--matrix", "normalized", "--out", "-"],
        ["-h"],
        ["--help"],
        *([command, "-h"] for command in ("bounds", "regions", "verify", "sweep")),
        ["bounds", "--family", "petersen"],
        ["regions", "--method", "brauer"],
        ["sweep", "--matrix", "adjacency", "--out", "-"],
        ["bounds", "--family", "petersen", "--matrix", "bogus"],
        ["bounds", "--family", "cycle", "--n", "x", "--matrix", "adjacency"],
        ["bounds", "--family", "petersen", "--matrix", "adjacency", "--bogus"],
        ["verify", "--family", "petersen", "extra", "words"],
        ["bounds", "--family", "petersen", "--matrix", "adjacency", "--", "x"],
        ["bogus", "--family", "petersen"],
        ["--family", "petersen"],
        [],
    ]

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", _ARGVS, ids=" ".join)
    def test_main_gives_what_the_top_level_parser_gives(self, argv, rowsum_file, capsys, monkeypatch):
        argv = [word.format(matrix=rowsum_file) for word in argv]
        direct = self.run(argv, capsys)
        monkeypatch.setattr(sys, "argv", ["eigenloc", *argv])
        assert self.run(None, capsys) == direct
        # with no subcommand to hand argv to, main parses all of it at the top level
        monkeypatch.setattr(_build_parser(), "subcommands", {})
        assert self.run(argv, capsys) == direct
        assert direct[0] in (0, 2) and (direct[0] == 0) == ("error:" not in direct[2])

    def test_left_over_words_are_the_top_level_parsers_error(self, capsys):
        code, out, err = self.run(["bounds", "--family", "petersen", "--matrix", "adjacency",
                                   "--bogus", "x"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: eigenloc [-h]")
        assert err.endswith("\neigenloc: error: unrecognized arguments: --bogus x\n")


class TestGraphCache:
    """A graph read again from the same source in one process is the graph
    read before, so that every output is a fresh process's."""

    @staticmethod
    def run(argv, capsys, monkeypatch=None):
        """(exit code, stdout, stderr) of ``main(argv)``; on an empty cache
        when ``monkeypatch`` is given."""
        if monkeypatch is not None:
            monkeypatch.setattr(cli, "_GRAPHS", cli._GraphCache())
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def held(cache=None):
        return [entry[0] for entry in (cache or cli._GRAPHS).held.values()]

    def test_requests_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        # the three kinds of one edge list and of one graph JSON file (both
        # formats), sweeps of two sizes, verify of a file and of a family:
        # each file is parsed and each sweep size built once, yet every
        # stdout, stderr and exit code is that of a call on an empty cache
        edges = tmp_path / "g.txt"
        edges.write_text("7 8\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n1 7\n2 5\n")
        graph_json = tmp_path / "g.json"
        graph_json.write_text(graph_to_json(circulant(10, (1, 4))))
        kinds = [kind.value for kind in GraphMatrixKind]
        argvs = [["bounds", "--edges", str(path), "--matrix", kind, "--format", fmt]
                 for path in (edges, graph_json) for kind in kinds for fmt in ("json", "csv")]
        argvs += [["sweep", "cycle:5..7:2", "complete_bipartite:4..5", "--matrix", kind, "--out", "-"]
                  for kind in kinds]
        family = ["--family", "circulant", "--n", "9", "--connections", "1,2"]
        argvs += [["verify", "--edges", str(edges)]] * 2 + [["verify", *family]] * 2
        made = []
        for module, name in ((gr, "parse_edge_list"), (gr, "graph_from_json"), (cli, "_sweep_graph")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=original: made.append(a) or _f(*a))
        shared = [self.run(argv, capsys) for argv in argvs]
        # two files, four sweep sizes, and the edge list again after the
        # sweeps, whose new graphs dropped it
        assert len(made) == 2 + 4 + 1
        fresh = [self.run(argv, capsys, monkeypatch) for argv in argvs]
        assert shared == fresh
        assert all(out and not err for _, out, err in shared)

    @pytest.mark.parametrize("kind", ["laplacian", "normalized"])
    def test_sweep_csv_is_the_same_after_the_adjacency_request(self, kind, capsys, monkeypatch):
        # a held regular graph keeps its adjacency spectrum, from which its
        # Laplacian and normalized spectra come; after the adjacency request
        # only the graphs that are not regular are solved again
        import eigenloc.oracle as oracle

        specs = ["cycle:5..7", "circulant:20..24:2", "complete_bipartite:6..8", "petersen", "path:4..6"]
        argv = ["sweep", *specs, "--matrix", kind, "--out", "-"]
        alone = self.run(argv, capsys, monkeypatch)
        adjacency = self.run(argv[:-3] + ["adjacency", "--out", "-"], capsys, monkeypatch)
        solved = []
        solve = oracle.symmetric_eigenvalues
        monkeypatch.setattr(oracle, "symmetric_eigenvalues", lambda a: solved.append(a) or solve(a))
        assert self.run(argv, capsys) == alone and alone[0] == adjacency[0] == 0
        # path:4..6 and K_{4,3}
        assert len(solved) == 4

    def test_rewritten_file_gives_the_new_graphs_report(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.txt"
        argv = ["bounds", "--edges", str(path), "--matrix", "laplacian", "--format", "csv"]
        reports = []
        for text in ("3 2\n1 2\n2 3\n", "4 4\n1 2\n2 3\n3 4\n1 4\n"):
            path.write_text(text)
            reports.append(self.run(argv, capsys))
        fresh = self.run(argv, capsys, monkeypatch)
        assert reports[1] == fresh and reports[0] != fresh

    def test_malformed_file_between_good_ones(self, tmp_path, capsys, monkeypatch):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("4 3\n1 2\n2 3\n3 4\n")
        bad.write_text("4 3\n1 2\nx y\n1 2 3\n")
        argv = ["bounds", "--matrix", "laplacian", "--edges"]
        first = self.run(argv + [str(good)], capsys)
        assert self.run(argv + [str(bad)], capsys) == (1, "", "error: malformed edge line 'x y'\n")
        assert self.run(argv + [str(good)], capsys) == first
        assert self.run(argv + [str(good)], capsys, monkeypatch) == first and first[0] == 0

    def test_held_vertices_stay_in_budget_and_evicted_graphs_are_freed(self):
        # graphs on and below the vertex cap, whose tables are never made:
        # once the test drops its own references, the graphs alive are the
        # graphs held, and their vertex counts, and so their squares, never
        # sum past the cap
        cache, sizes, refs = cli._GraphCache(), {"c": 1024, "d": 1024, "e": 2}, {}

        def alive():
            gc.collect()
            graphs = {id(g): g.n for key_refs in refs.values() for ref in key_refs if (g := ref())}
            return sorted(graphs), list(graphs.values())

        for request in (["a"], ["b"], ["b", "c", "d"], ["c", "d", "e"], ["e"], ["a"]):
            cache.begin_request()
            for key in request:
                n = sizes.get(key, MAX_VERTICES)
                refs.setdefault(key, []).append(weakref.ref(cache.graph(key, lambda: star(n))))
                ids, counts = alive()
                assert ids == sorted(id(g) for g in self.held(cache))
                assert sum(counts) <= MAX_VERTICES
                assert sum(n * n for n in counts) <= MAX_VERTICES ** 2
        # b's request dropped a, which it did not read; c evicted b to make
        # room, and e evicted c; a's request dropped d and e, then read a anew
        assert {key: [ref() is not None for ref in key_refs] for key, key_refs in refs.items()} == {
            "a": [False, True], "b": [False, False], "c": [False, False],
            "d": [False, False], "e": [False, False]}
        assert list(cache.held) == ["a"]

    def test_two_sources_on_the_vertex_cap_hold_the_second_graph_only(self, tmp_path, capsys):
        # the star on the cap as an edge list, then as graph JSON
        n = MAX_VERTICES
        edges, graph_json = tmp_path / "star.txt", tmp_path / "star.json"
        edges.write_text(f"{n} {n - 1}\n" + "".join(f"1 {v}\n" for v in range(2, n + 1)))
        graph_json.write_text(graph_to_json(star(n)))
        refs = []
        for path in (edges, graph_json):
            assert self.run(["bounds", "--edges", str(path), "--matrix", "normalized"], capsys)[0] == 0
            refs += [weakref.ref(g) for g in self.held()]
        gc.collect()
        assert [ref() is None for ref in refs] == [True, False]
        assert self.held() == [refs[1]()]

    def test_family_requests_hold_nothing(self, capsys):
        family = ["--family", "circulant", "--n", "9", "--connections", "1,2"]
        assert self.run(["verify", *family], capsys)[0] == 0
        assert self.held() == []

    def test_an_edge_files_text_is_freed_once_parsed(self, tmp_path, capsys, monkeypatch):
        # reversed, repeated and blank lines pad a path on three vertices
        # to half a megabyte: its graph is held after the request, its text is not
        path = tmp_path / "padded.txt"
        path.write_text("3 100002\n1 2\n2 3\n" + "2 1\n\n" * 100_000)
        argv = ["bounds", "--edges", str(path), "--matrix", "laplacian"]
        first = self.run(argv, capsys)
        tracemalloc.start()
        try:
            assert self.run(argv, capsys, monkeypatch) == first and first[0] == 0
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [g.n for g in self.held()] == [3]
        assert kept < path.stat().st_size // 10


def test_verify_matrix_with_overflowing_oval_products_is_quiet():
    # the Brauer margins multiply two distances near 2e200; that product
    # once warned "overflow encountered in multiply" before the PASS lines
    matrix = np.array([[1e200, 1, 0], [1, -1e200, 0], [0, 0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lines = [result.line() for result in verify_matrix(matrix)]
    assert lines == ["PASS gersgorin spectrum slack=0.000000e+00",
                     "PASS brauer spectrum slack=0.000000e+00"]


@pytest.mark.parametrize("scope", ["Thm9.9", "gersgorin,Thm9.9", "Thm3.1,gersgorn", ","])
def test_verify_rejects_unknown_scope(scope):
    with pytest.raises(ValueError, match="scope"):
        verify_graph(petersen(), scope=scope)
    with pytest.raises(ValueError, match="scope"):
        verify_matrix(ROWSUM_3X3, scope=scope)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
def test_verify_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        verify_graph(petersen(), tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        verify_matrix(ROWSUM_3X3, tol=tol)
    # the public interval check takes the same rule, for a value inside the
    # interval and one far outside it
    for value in (1.0, 5.0):
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            check_interval(BoundInterval("lambda_2", 0.0, 2.0, "Thm3.1"), value, tol)


def test_verify_rejects_bad_mode():
    # once all 24 Petersen checks ran under "mode": "bogus"
    with pytest.raises(ValueError, match="mode must be"):
        verify_graph(petersen(), mode="bogus")


def test_verify_scope_accepts_every_check_name():
    names = ",".join(bd.THEOREM_TAGS + ("gersgorin", "brauer", "rowsum-gersgorin",
                                        "rowsum-brauer", "gamma"))
    assert verify_matrix(ROWSUM_3X3, scope=names) == verify_matrix(ROWSUM_3X3)
    assert verify_graph(petersen(), scope=names) == verify_graph(petersen())


def test_console_entry_point_end_to_end(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("3 3\n1 2\n2 3\n1 3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "eigenloc.cli", "bounds", "--edges", str(edges),
         "--matrix", "laplacian"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["matrix"] == "laplacian"


def test_reader_closing_stdout_exits_1_silently(tmp_path):
    # the SVG of this 10 x 10 region is about 450 KB, more than four times what
    # a 64 KiB pipe holds, so the program is still writing when the reader
    # stops after 10 bytes; the size is checked, so the test cannot pass vacuously
    rng = np.random.default_rng(8)
    a = rng.integers(0, 4, (10, 10)).astype(float)
    a[:, 0] += a.sum(axis=1).max() - a.sum(axis=1)
    svg = region_to_svg(rowsum_brauer_region(a), complex_eigenvalues(a).values)
    assert len(svg) > 4 * 64 * 1024
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(a))
    proc = subprocess.Popen(
        [sys.executable, "-m", "eigenloc.cli", "regions", "--matrix-file", str(path),
         "--method", "rowsum-brauer", "--emit", "svg"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b"<svg xmlns"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize(
    "window", [(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0), (0.0, math.inf, 0.0, 1.0),
               (-1e308, 1e308, -1.0, 1.0)]
)
def test_svg_rejects_bad_window(window):
    # (0, 0, 0, 0) once divided by zero and (1, 0, 1, 0) drew negative radii
    with pytest.raises(ValueError, match="window"):
        region_to_svg(Disk(0.0j, 1.0), window=window)


def test_svg_of_an_empty_region_draws_nothing():
    # with no leaf and no eigenvalue to frame, the window is the unit square's
    assert region_to_svg(RegionUnion(())).splitlines()[2:] == ["</svg>"]


def test_zero_product_oval_boundary_is_its_foci():
    # p = 0 leaves only the foci: one closed one-point loop for each
    for a, b, foci in [(1.0, 2.0, [1.0, 2.0]), (3.0 + 1.0j, 3.0 + 1.0j, [3.0 + 1.0j])]:
        loops = _oval_boundary(CassiniOval(complex(a), complex(b), 0.0), 512)
        assert [loop.tolist() for loop in loops] == [[f, f] for f in foci]


def test_degenerate_leaves_paint_a_dot():
    # a circle of radius 0.00 and a one-point polyline with butt caps paint
    # nothing: diag(1, 2, 3)'s disks and its ovals' foci were once invisible
    a = np.diag([1.0, 2.0, 3.0])
    svg = region_to_svg(gersgorin_region(a))
    assert 'r="0.00"' not in svg
    assert svg.count('<path class="disk" d="M ') == svg.count('h 0" stroke-linecap="round"') == 3
    assert region_to_svg(Disk(0.0j, 1.0)).count("<circle") == 1
    svg = region_to_svg(brauer_region(a))
    assert svg.count('class="oval"') == svg.count('stroke-linecap="round"') == 6


def test_svg_pinched_oval_renders_two_loops():
    svg = region_to_svg(CassiniOval(-2.0 + 0.0j, 2.0 + 0.0j, 1.0))
    assert svg.count('class="oval"') == 2


_BOUNDARY_OVALS = [
    (CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 1.5), 1),
    (CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 1.0), 1),  # lemniscate p = |d|^2
    (CassiniOval(0.0j, 2.0j, 1.0), 1),  # lemniscate across the real axis
    (CassiniOval(3.0 + 1.0j, 3.0 + 1.0j, 2.0), 1),  # circle
    (CassiniOval(1.0 + 2.0j, -3.0 + 0.5j, 7.0), 1),
    (CassiniOval(-2.0 + 0.0j, 2.0 + 0.0j, 1.0), 2),
    (CassiniOval(0.0j, 1000.0 + 0.0j, 1.0), 2),
    (CassiniOval(1.0 + 2.0j, -3.0 + 0.5j, 3.0), 2),
]


@pytest.mark.parametrize("oval, loops", _BOUNDARY_OVALS)
def test_oval_boundary_lies_on_the_oval(oval, loops):
    traced = _oval_boundary(oval, 512)
    assert len(traced) == loops
    p = oval.radius_product
    for loop in map(np.asarray, traced):
        assert len(loop) == 512 // loops + 1
        assert loop[0] == loop[-1]
        error = np.abs(np.abs(loop - oval.focus_a) * np.abs(loop - oval.focus_b) - p)
        assert np.max(error) <= 1e-9 * max(1.0, p)
        # no branch jump: every step is short against the loop's extent
        extent = np.ptp(loop.real) + np.ptp(loop.imag)
        assert np.max(np.abs(np.diff(loop))) <= 0.2 * extent


def test_lemniscate_boundary_draws_both_lobes():
    (loop,) = _oval_boundary(CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 1.0), 512)
    loop = np.asarray(loop)
    assert np.sum(loop.real < -0.5) > 100
    assert np.sum(loop.real > 0.5) > 100


def _drawn_oval_loops(region, window):
    """(oval, its loops as drawn, the map to pixels) for each oval of the
    region's SVG with p > 0; the loops are parsed from the SVG's polylines."""
    svg = region_to_svg(region, (), window)
    leaves, unit = region.leaves(), 1.0
    if window is None:
        window, unit = cli._auto_window(leaves, ())
    x0, x1, y0, y1 = window
    scale = 640 / max(x1 - x0, y1 - y0)

    def pixels(z):
        return (z.real / unit - x0) * scale + 1j * (y1 - z.imag / unit) * scale

    polylines = iter(re.findall(r'class="oval" points="([^"]*)"', svg))
    drawn = []
    for oval in [leaf for leaf in leaves if isinstance(leaf, CassiniOval)]:
        loops = [np.array([complex(*map(float, xy.split(","))) for xy in next(polylines).split()])
                 for _ in _oval_boundary(oval, 16)]
        if oval.radius_product > 0.0:
            drawn.append((oval, loops, pixels))
    assert next(polylines, None) is None
    return drawn


_TINY = (-100.0, 100.0, -100.0, 100.0)  # 3.2 px a unit


@pytest.mark.parametrize(
    "region, window",
    [(oval, None) for oval, _ in _BOUNDARY_OVALS]
    + [(build(_seeded_square(n, rowsum)), None)
       for n in (4, 6) for build, rowsum in ((brauer_region, False), (rowsum_brauer_region, True))]
    + [(CassiniOval(-0.5 + 0.0j, 0.5 + 0.0j, 0.5), _TINY),  # about 5 px wide
       (CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 0.5), _TINY)],  # pinched, two loops a few px wide
    ids=[f"oval{i}" for i in range(len(_BOUNDARY_OVALS))]
    + ["brauer4", "rowsum-brauer4", "brauer6", "rowsum-brauer6", "tiny", "tiny-pinched"],
)
def test_svg_ovals_are_sampled_to_a_quarter_pixel(region, window):
    # each oval gets the fewest points (at least 16 a loop, at most 512) whose
    # chords stay within 1/4 px of the boundary, by a bound on its curvature
    drawn = _drawn_oval_loops(region, window)
    assert drawn
    for oval, loops, pixels in drawn:
        n = sum(len(loop) - 1 for loop in loops)
        assert min(len(loop) - 1 for loop in loops) >= 16 and n <= 512
        unit = cli._oval_frame(oval)[3]
        p = oval.radius_product / unit / unit
        for loop, traced, dense in zip(loops, _oval_boundary(oval, n), _oval_boundary(oval, 16 * n)):
            # every vertex lies on the oval, in the oval's frame
            error = np.abs(np.abs(traced - oval.focus_a) / unit * np.abs(traced - oval.focus_b) / unit - p)
            assert np.max(error) <= 1e-9 * max(1.0, p)
            # the drawn loop is the traced one, to the 0.01 px it prints
            assert np.max(np.abs(pixels(traced) - loop)) <= 0.01
            if n < 512:
                # each chord within 1/4 px, plus 0.01 px of rounding, of 16 samples of its arc
                arc = pixels(dense)[:-1].reshape(-1, 16)
                chord = loop[:-1, None] + np.diff(loop)[:, None] * (np.arange(16) / 16)
                assert np.max(np.abs(arc - chord)) <= 0.26


@pytest.mark.parametrize(
    "oval, window, counts",
    [
        (CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 1.0), None, [512]),  # lemniscate: the cap
        (CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 1.0 + 1e-4), None, [512]),
        (CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 1.0 - 1e-4), None, [256, 256]),
        (CassiniOval(-0.5 + 0.0j, 0.5 + 0.0j, 0.5), _TINY, [16]),  # the floor
        (CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 0.5), _TINY, [16, 16]),
    ],
    ids=["lemniscate", "near-lemniscate-above", "near-lemniscate-below", "tiny", "tiny-pinched"],
)
def test_svg_oval_counts_at_the_cap_and_the_floor(oval, window, counts):
    # near the lemniscate the curvature bound passes the cap, and ovals keep
    # the 512 points they had before sampling by size
    ((_, loops, _),) = _drawn_oval_loops(oval, window)
    assert [len(loop) - 1 for loop in loops] == counts


# A 4 x 4 matrix with constant row sum 2 + i, in binary fractions, and fixed
# eigenvalue markers, so the drawings below depend on no eigensolver
_SVG_MATRIX = np.array([
    [2.0 + 1.0j, -1.0, 0.5, 0.5],
    [0.25, 1.5 + 0.5j, -0.75 + 0.5j, 1.0],
    [-1.0, 0.5j, 3.0, 0.5j],
    [1.0, 1.0, -0.5 + 1.0j, 0.5],
])
_SVG_MARKS = (2.0 + 1.0j, 0.5 - 0.25j, -1.0 + 0.0j)


@pytest.mark.parametrize(
    "region, marks, digest",
    [
        (brauer_region(_SVG_MATRIX), _SVG_MARKS,
         "b3937d80b1cdc6c51716387f78e0bad1815b4472d1575c02481e8186f9d658ba"),
        (rowsum_brauer_region(_SVG_MATRIX), _SVG_MARKS,
         "c0f4df9ee981ec08a79af84805ba92892a5997a28a7d31d4cb6fa86e999860f6"),
        (gersgorin_region(_SVG_MATRIX), _SVG_MARKS,
         "2ae2705ed70625776c7c63d5e8727bb5c5190e73602971990696e889a04093da"),
        (CassiniOval(-2.0 + 0.0j, 2.0 + 0.0j, 1.0), (),
         "5298f0646ca6078ad80be1c19b95d89f70585ec9d98e6ed51c9d968315247b16"),
        (CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 1.0), (),
         "8d54aeea9291bb1e3750ff889bacaabcb1a012759250399d4f3b3ec513a4c82d"),
        (PointSet((1.0 + 0.0j, -0.5 + 0.25j)), (),
         "604ed49aad6591bc1e7af5a0d259707bac6ab5b160030b0120aa6d025c0fce6a"),
    ],
    ids=["brauer", "rowsum-brauer", "gersgorin", "pinched-oval", "lemniscate", "points"],
)
def test_svg_bytes_are_pinned(region, marks, digest):
    # any change in how the SVG is formatted or sampled changes these digests;
    # the lemniscate, at the 512-point cap, draws as fixed 512-point sampling did
    assert hashlib.sha256(region_to_svg(region, marks).encode()).hexdigest() == digest


def _verify_corpus():
    """(graph, scope) pairs: every family member up to n = 12, seeded random
    connected graphs with n = 6..32, relabelled circulants with n = 16..32, a
    graph with an isolated vertex, graphs on 1, 2 and 3 vertices, and the
    families again under two one-region scopes."""
    from eigenloc.graphs import Graph, path

    from ._corpus import family_corpus

    families = [g for _, g in family_corpus(12)]
    rng = np.random.default_rng(29)
    graphs = list(families)
    for n in range(6, 33, 2):
        order = rng.permutation(n) + 1
        edges = {(int(order[i]), int(order[rng.integers(i)])) for i in range(1, n)}
        edges |= {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 2.5 / n}
        graphs.append(Graph.from_edges(n, edges))
    for n in (16, 20, 24, 28, 32):
        perm = rng.permutation(n) + 1
        offsets = [int(s) for s in rng.choice(np.arange(1, n // 2), 3, replace=False)]
        graphs.append(Graph.from_edges(
            n, [(int(perm[u - 1]), int(perm[v - 1])) for u, v in circulant(n, offsets).edges]))
    graphs += [Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (1, 3), (4, 5)]),
               Graph.from_edges(1, []), path(2), complete(2), path(3), complete(3)]
    yield from ((g, "all") for g in graphs)
    for scope in ("brauer", "rowsum-gersgorin"):
        yield from ((g, scope) for g in families)


def test_verify_graph_lines_are_pinned():
    # every check's name, target, verdict and slack to the last bit, over
    # graphs whose three matrices have and lack the row-sum regions
    lines = [f"{r.name} {r.target} {r.passed} {float.hex(r.slack)}"
             for g, scope in _verify_corpus() for r in verify_graph(g, scope=scope)]
    assert len(lines) == 2534
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "595a2b343896933068ea41a8e620718f76a47f55cd9758a13745cb02c101c3ea"
