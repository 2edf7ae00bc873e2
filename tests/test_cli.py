"""CLI surface: subcommands, exit codes, serialisation, SVG structure."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import eigenloc.bounds as bd
from eigenloc.bounds import BoundInterval
from eigenloc.cli import (
    _oval_boundary,
    check_interval,
    main,
    region_to_svg,
    verify_graph,
    verify_matrix,
)
from eigenloc.graphs import GraphMatrixKind, build_matrix, complete, cycle, petersen
from eigenloc.regions import (
    CassiniOval,
    Disk,
    PointSet,
    brauer_region,
    gersgorin_region,
    matrix_to_json,
    real_section,
    region_from_json,
    region_slack_grid,
    rowsum_brauer_region,
    section_contains,
)

from .conftest import ROWSUM_3X3


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

    def test_family_and_edges_conflict(self, tmp_path):
        edges = tmp_path / "g.txt"
        edges.write_text("2 1\n1 2\n")
        code = main(
            ["bounds", "--family", "complete", "--n", "3", "--edges", str(edges),
             "--matrix", "adjacency"]
        )
        assert code == 1

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
        section = real_section(region, tol=1e-9)
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

    def test_svg_ovals_are_polylines(self, rowsum_file, capsys):
        code = main(
            ["regions", "--matrix-file", rowsum_file, "--method", "brauer",
             "--emit", "svg", "--window=-4:5:-4:5"]
        )
        assert code == 0
        svg = capsys.readouterr().out
        assert svg.count('class="oval"') >= 3
        first_points = svg.split('points="')[1].split('"')[0]
        assert len(first_points.split()) == 513  # closed 512-point loop


class TestVerifyCommand:
    def test_petersen_all_pass(self, capsys):
        code = main(["verify", "--family", "petersen"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "PASS Thm3.1" in out and "PASS rowsum-gersgorin[laplacian]" in out

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

    @pytest.mark.parametrize(
        "argv", [["bounds", "--matrix", "adjacency"], ["verify"]], ids=["bounds", "verify"]
    )
    def test_fractional_graph_json_exits_1(self, argv, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text('{"n": 2.7, "edges": [[1.9, 2]]}')
        assert main(argv + ["--edges", str(path)]) == 1
        assert "integer" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["a:b:c:d", "0:1:0", "0:0:0:0", "1:0:1:0", "0:inf:0:1"])
    def test_bad_svg_window_exits_1(self, window, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(ROWSUM_3X3))
        argv = ["regions", "--matrix-file", str(path), "--method", "gersgorin", "--emit", "svg"]
        assert main(argv + [f"--window={window}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

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
            raise RuntimeError("Jacobi did not converge")

        monkeypatch.setattr(oracle, "graph_spectrum", stuck)
        assert main(["sweep", "complete:3..4", "--matrix", "adjacency", "--out", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: Jacobi did not converge\n"
        assert captured.out == ""

    def test_sweep_solves_graphs_without_bounds(self, capsys, monkeypatch):
        # K_8 minus an edge has no adjacency bound, yet its spectrum is defined
        # and solved, so an oracle failure on it is still reported
        import eigenloc.oracle as oracle

        def stuck(g, kind):
            raise RuntimeError("Jacobi did not converge")

        monkeypatch.setattr(oracle, "graph_spectrum", stuck)
        assert main(["sweep", "complete_minus_edge:8..8", "--matrix", "adjacency",
                     "--out", "-"]) == 1
        assert capsys.readouterr().err == "error: Jacobi did not converge\n"

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
]


@pytest.mark.parametrize(
    "argv, code, broken_bounds",
    EXIT_CODES,
    ids=["missing-file", "bad-json", "unknown-family", "bad-sweep-spec", "regions-out",
         "sweep-out", "brauer-1x1", "rowsum-gersgorin-1x1", "rowsum-brauer-2x2",
         "no-row-sum", "bounds-value-error", "unknown-scope", "tol-nan",
         "eigenvalue-overflow", "graph-scope-selects-nothing", "matrix-scope-selects-nothing"],
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


@pytest.mark.parametrize(
    "window", [(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0), (0.0, math.inf, 0.0, 1.0)]
)
def test_svg_rejects_bad_window(window):
    # (0, 0, 0, 0) once divided by zero and (1, 0, 1, 0) drew negative radii
    with pytest.raises(ValueError, match="window"):
        region_to_svg(Disk(0.0j, 1.0), window=window)


def test_svg_pinched_oval_renders_two_loops():
    svg = region_to_svg(CassiniOval(-2.0 + 0.0j, 2.0 + 0.0j, 1.0))
    assert svg.count('class="oval"') == 2


@pytest.mark.parametrize(
    "oval, loops",
    [
        (CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 1.5), 1),
        (CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 1.0), 1),  # lemniscate p = |d|^2
        (CassiniOval(0.0j, 2.0j, 1.0), 1),  # lemniscate across the real axis
        (CassiniOval(3.0 + 1.0j, 3.0 + 1.0j, 2.0), 1),  # circle
        (CassiniOval(1.0 + 2.0j, -3.0 + 0.5j, 7.0), 1),
        (CassiniOval(-2.0 + 0.0j, 2.0 + 0.0j, 1.0), 2),
        (CassiniOval(0.0j, 1000.0 + 0.0j, 1.0), 2),
        (CassiniOval(1.0 + 2.0j, -3.0 + 0.5j, 3.0), 2),
    ],
)
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
         "d26c5e37d7c2d52941f764bea92d86f0fc0cf7b8449259165c168f964a2e19cb"),
        (rowsum_brauer_region(_SVG_MATRIX), _SVG_MARKS,
         "4c0c86f6d35749140f3010cea4b9bd9950645f0dca765e5731a72ee69d4e029e"),
        (gersgorin_region(_SVG_MATRIX), _SVG_MARKS,
         "2ae2705ed70625776c7c63d5e8727bb5c5190e73602971990696e889a04093da"),
        (CassiniOval(-2.0 + 0.0j, 2.0 + 0.0j, 1.0), (),
         "47c09bb8bb3b41ee66f34c4a34a9520852e323a3636ce903a89ce24ed25f010e"),
        (CassiniOval(-1.0 + 0.0j, 1.0 + 0.0j, 1.0), (),
         "8d54aeea9291bb1e3750ff889bacaabcb1a012759250399d4f3b3ec513a4c82d"),
        (PointSet((1.0 + 0.0j, -0.5 + 0.25j)), (),
         "604ed49aad6591bc1e7af5a0d259707bac6ab5b160030b0120aa6d025c0fce6a"),
    ],
    ids=["brauer", "rowsum-brauer", "gersgorin", "pinched-oval", "lemniscate", "points"],
)
def test_svg_bytes_are_pinned(region, marks, digest):
    # any change in how the SVG is formatted changes these digests
    assert hashlib.sha256(region_to_svg(region, marks).encode()).hexdigest() == digest
