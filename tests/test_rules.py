"""Each rule that several entry points apply is written once: its text, and
its answer, at every entry point that applies it."""

import math
import re

import numpy as np
import pytest

import eigenloc.regions as rg
from eigenloc.bounds import MODES, BoundInterval, bounds_report, laplacian_dominating_brauer_bounds
from eigenloc.cli import check_interval, main, verify_graph, verify_matrix
from eigenloc.graphs import MAX_VERTICES, Graph, GraphMatrixKind, build_matrix, cycle, petersen, star
from eigenloc.oracle import complex_eigenvalues, graph_spectrum, normalized_spectrum, symmetric_eigenvalues
from eigenloc.regions import (
    METHODS,
    Disk,
    MatrixFacts,
    RealSection,
    RegionIntersection,
    RegionUnavailable,
    RegionUnion,
    matrix_to_json,
    region_contains,
    section_contains,
    stack_least_slacks,
)

from .conftest import ROWSUM_3X3


def _exactly(text: str) -> str:
    return f"^{re.escape(text)}$"


# ---------------------------------------------------------------------------
# the tolerance rule (regions._check_tolerance)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1])
def test_every_check_refuses_a_bad_tolerance_in_one_text(tol):
    text = _exactly(f"tolerance must be finite and nonnegative, got {tol!r}")
    calls = [
        lambda: verify_graph(petersen(), tol=tol),
        lambda: verify_matrix(ROWSUM_3X3, tol=tol),
        lambda: check_interval(BoundInterval("lambda_2", 0.0, 2.0, "Thm3.1"), 1.0, tol),
        lambda: region_contains(Disk(0j, 1.0), 0j, tol),
        lambda: section_contains(RealSection(((-1.0, 1.0),), ()), 0.0, tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=text):
            call()


# ---------------------------------------------------------------------------
# the oracles' input rule (oracle._square and oracle._check_finite)


@pytest.mark.parametrize("solve", [symmetric_eigenvalues, complex_eigenvalues])
def test_both_oracles_refuse_a_shape_in_one_text(solve):
    with pytest.raises(ValueError, match=_exactly("expected a square matrix, got shape (2, 3)")):
        solve(np.ones((2, 3)))
    # the shape is refused before a non-finite entry
    with pytest.raises(ValueError, match=_exactly("expected a square matrix, got shape (2, 3)")):
        solve(np.full((2, 3), math.nan))


@pytest.mark.parametrize("solve, cap", [(symmetric_eigenvalues, MAX_VERTICES), (complex_eigenvalues, 64)])
def test_both_oracles_refuse_one_dimension_past_their_cap(solve, cap):
    # a zero-strided array: the rule reads its shape, not its entries
    big = np.broadcast_to(math.nan, (cap + 1, cap + 1))
    with pytest.raises(ValueError, match=_exactly(f"dimension {cap + 1} exceeds the {cap} cap")):
        solve(big)


def test_the_complex_oracle_takes_a_matrix_at_its_cap():
    assert complex_eigenvalues(np.zeros((64, 64))).values == (0j,) * 64


@pytest.mark.parametrize("solve", [symmetric_eigenvalues, complex_eigenvalues])
def test_both_oracles_refuse_a_non_finite_entry_in_one_text(solve):
    for bad in (math.nan, math.inf):
        a = np.eye(3)
        a[1, 1] = bad
        with pytest.raises(ValueError, match=_exactly("matrix has a non-finite entry")):
            solve(a)


def test_the_symmetric_route_keeps_its_own_order_of_checks():
    # n = 0 is solved before any entry is read, and the imaginary part is
    # refused before a non-finite real part
    assert symmetric_eigenvalues(np.zeros((0, 0))).values == ()
    a = np.eye(3, dtype=complex)
    a[0, 0], a[1, 2] = math.nan, 1j
    with pytest.raises(ValueError, match=_exactly("matrix has a non-negligible imaginary part")):
        symmetric_eigenvalues(a)
    # the complex route has no imaginary-part rule: it reads the NaN
    with pytest.raises(ValueError, match=_exactly("matrix has a non-finite entry")):
        complex_eigenvalues(a)


# ---------------------------------------------------------------------------
# the isolated-vertex rule (graphs._has_matrix)


_ISOLATED = _exactly("normalized adjacency undefined with an isolated vertex")
# a path on three vertices and an isolated one, and an edgeless (0-regular) graph
_WITH_ISOLATED = [Graph.from_edges(4, [(1, 2), (2, 3)]), Graph.from_edges(3, [])]


@pytest.mark.parametrize("g", _WITH_ISOLATED, ids=["path+isolated", "edgeless"])
def test_every_route_to_the_normalized_matrix_refuses_an_isolated_vertex(g):
    normalized = GraphMatrixKind.NORMALIZED_ADJACENCY
    for call in (lambda: build_matrix(g, normalized), lambda: g.matrix(normalized),
                 lambda: normalized_spectrum(g), lambda: graph_spectrum(g, normalized)):
        with pytest.raises(ValueError, match=_ISOLATED):
            call()
    # verify skips the normalized matrix's checks and keeps the other two's
    names = [result.name for result in verify_graph(g)]
    assert names and not [name for name in names if name.endswith("[normalized]")]
    assert {name[name.index("["):] for name in names} == {"[adjacency]", "[laplacian]"}


def test_verify_checks_the_normalized_matrix_without_an_isolated_vertex():
    names = [result.name for result in verify_graph(Graph.from_edges(4, [(1, 2), (3, 4)]))]
    assert any(name.endswith("[normalized]") for name in names)


# ---------------------------------------------------------------------------
# the mode rule (bounds._check_mode)


@pytest.mark.parametrize("kind", list(GraphMatrixKind))
def test_a_bad_mode_is_refused_in_one_text(kind):
    text = _exactly(f"mode must be {' or '.join(map(repr, MODES))}, got 'bogus'")
    with pytest.raises(ValueError, match=text):
        bounds_report(cycle(5), kind, mode="bogus")
    # Thm5.4 called on its own, on a graph it applies to
    with pytest.raises(ValueError, match=text):
        laplacian_dominating_brauer_bounds(star(5), mode="bogus")


# ---------------------------------------------------------------------------
# the method shapes (regions._METHOD_SHAPES)


def _builder(method: str):
    return getattr(rg, rg._METHOD_SHAPES[method][2])


# each method's least dimension, leaf and whether it is deflated, written out
# here rather than read from the table under test
_SHAPES = {"gersgorin": (1, "Disk", False), "brauer": (2, "CassiniOval", False),
           "rowsum-gersgorin": (2, "Disk", True), "rowsum-brauer": (3, "CassiniOval", True)}
_BUILDERS = {"gersgorin": rg.gersgorin_region, "brauer": rg.brauer_region,
             "rowsum-gersgorin": rg.rowsum_gersgorin_region, "rowsum-brauer": rg.rowsum_brauer_region}


def test_the_method_table_is_the_four_shapes():
    assert METHODS == tuple(_SHAPES) == tuple(rg._METHOD_SHAPES)
    for method, (needed, leaf, deflated) in _SHAPES.items():
        assert rg._METHOD_SHAPES[method][:2] == ((rg._DISK, rg._OVAL)[leaf == "CassiniOval"], deflated)
        assert _builder(method) is _BUILDERS[method]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_method_table_gives_the_availability_of_the_builders_and_the_stack(n, tmp_path, capsys):
    # every row sums to n + 1, so only the dimension decides
    a = np.eye(n) + np.ones((n, n))
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(a))
    (least,) = stack_least_slacks(MatrixFacts(a), [np.zeros(n)], METHODS)
    for method, (needed, leaf, deflated) in _SHAPES.items():
        capsys.readouterr()
        code = main(["regions", "--matrix-file", str(path), "--method", method])
        err = capsys.readouterr().err
        if n < needed:
            shape = "deflated " * deflated + ("disk" if leaf == "Disk" else "oval")
            text = f"the {shape} region needs dimension >= {needed}"
            with pytest.raises(RegionUnavailable, match=_exactly(text)):
                _builder(method)(a)
            assert method not in least
            # a row-sum method's refusal exits 3, a classical one's 1
            assert (code, err) == (3 if deflated else 1, f"error: {text}\n")
            continue
        region = _builder(method)(a)
        assert isinstance(region, RegionIntersection if deflated else RegionUnion)
        unions = region.children if deflated else (region,)
        leaves = {type(child).__name__ for union in unions for child in union.children}
        assert leaves == {leaf} | ({"PointSet"} if deflated else set())
        assert method in least and (code, err) == (0, "")


def test_row_sum_methods_need_a_row_sum_at_every_entry_point(tmp_path, capsys):
    a = np.diag([1.0, 2.0, 3.0])
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(a))
    (least,) = stack_least_slacks(MatrixFacts(a), [np.zeros(3)], METHODS)
    assert set(least) == {"gersgorin", "brauer"}
    for method in ("rowsum-gersgorin", "rowsum-brauer"):
        with pytest.raises(RegionUnavailable, match=_exactly(rg._NO_ROW_SUM)):
            _builder(method)(a)
        assert main(["regions", "--matrix-file", str(path), "--method", method]) == 3
        assert capsys.readouterr().err == f"error: {rg._NO_ROW_SUM}\n"


def test_an_unknown_method_is_refused_by_the_stack():
    with pytest.raises(ValueError, match="unknown region method 'disk'"):
        stack_least_slacks(MatrixFacts(np.eye(2)), [np.zeros(2)], ["disk"])


# ---------------------------------------------------------------------------
# regions._distance: np.hypot(x, +-0) is |x| bit for bit


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    # the parts are set one by one, so that each keeps its sign and bits
    z = np.empty(real.shape, complex)
    z.real, z.imag = real, imag
    return z


def _awkward_reals(rng, size: int) -> np.ndarray:
    tiny = np.finfo(float).tiny
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, tiny / 3, -tiny / 7,
                     1e308, -1e308, np.finfo(float).max, -np.finfo(float).max, 1.5, -2.25])
    return np.where(rng.random(size) < 0.5, rng.choice(pool, size), rng.standard_normal(size)
                    * 10.0 ** rng.integers(-300, 300, size))


@pytest.mark.parametrize("seed", range(5))
def test_distance_with_no_imaginary_difference_is_abs_of_the_real_one(seed):
    rng = np.random.default_rng(seed)
    size = 4000
    x, y = _awkward_reals(rng, size), _awkward_reals(rng, size)
    imag = rng.choice(np.array([0.0, -0.0, 1.0, -3.5e-310, 7e300]), size)
    # equal imaginary parts, and +0.0 against -0.0, whose difference is -0.0 or +0.0
    pairs = [(imag, imag), (imag * 0.0, -(imag * 0.0))]
    with np.errstate(over="ignore"):
        expected = np.abs(x - y)
        for zi, ci in pairs:
            z, c = _complex(x, zi), _complex(y, ci)
            assert not (z.imag - c.imag).any()
            got = rg._distance(z, c, np.empty(size))
            assert got.tobytes() == expected.tobytes()
        # a real point against complex anchors, as a stack's real eigenvalues meet them
        got = rg._distance(x, _complex(y, imag * 0.0), np.empty(size))
        assert got.tobytes() == expected.tobytes()
    assert np.isinf(expected).any() and (expected == 0.0).any() and (expected < np.finfo(float).tiny).any()
