"""Acceptance suite: the eight exit criteria, one test each.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
``-rP``) and then asserts; criteria with stated runtime budgets assert
those too.
"""

import time

import numpy as np

from eigenloc.bounds import (
    LAMBDA_1,
    LAMBDA_2,
    LAMBDA_N,
    LAMBDA_N_MINUS_1,
    biregular_bipartite_lambda2_bounds,
    laplacian_dominating_brauer_bounds,
    laplacian_trace_bounds,
    normalized_bipartite_lambda2_bounds,
    normalized_trace_bounds,
    regular_adjacency_bounds,
)
from eigenloc.graphs import (
    Graph,
    GraphMatrixKind,
    build_matrix,
    circulant,
    classify,
    complete,
    complete_bipartite,
    complete_minus_edge,
    cycle,
    path,
    petersen,
    star,
)
from eigenloc.oracle import (
    complex_eigenvalues,
    symmetric_eigenvalues,
)
from eigenloc.regions import (
    Disk,
    PointSet,
    deflate,
    gersgorin_region,
    real_section,
    region_contains,
    region_slack,
    region_slack_grid,
    rowsum_gersgorin_region,
    section_contains,
)

from ._corpus import atlas_graphs, check_graph_with_library, family_corpus
from ._reference import charpoly, randic_index, trace_bounds
from .conftest import (
    GAMMA_3X3,
    ROWSUM_3X3,
    random_constant_rowsum_matrix,
    random_region,
)


def _report(criterion: str, failures: list, elapsed: float | None = None) -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert not failures, failures[:10]


def by_target(intervals):
    return {b.target: b for b in intervals}


def test_criterion_1_worked_rowsum_example():
    started = time.perf_counter()
    failures = []

    coeffs = charpoly(ROWSUM_3X3)
    if abs(np.polyval(coeffs, GAMMA_3X3)) > 1e-9:
        failures.append("characteristic polynomial does not vanish at the row sum")
    spectrum = complex_eigenvalues(ROWSUM_3X3)
    if min(abs(z - GAMMA_3X3) for z in spectrum.values) > 1e-9:
        failures.append("row sum missing from the oracle spectrum")

    expected = np.array([[1.0, -1.0j], [-1.0, 0.0]])
    if not np.array_equal(deflate(ROWSUM_3X3, 1), expected):
        failures.append("first deflation is not exact")

    refined = rowsum_gersgorin_region(ROWSUM_3X3)
    first = refined.children[0]
    disks = [leaf for leaf in first.children if isinstance(leaf, Disk)]
    want = [(1.0 + 0.0j, 1.0), (0.0 + 0.0j, 1.0)]
    got = [(d.center, d.radius) for d in disks]
    if got != want:
        failures.append(f"first deflation component disks are {got}, expected {want}")
    if [p for p in first.children if isinstance(p, PointSet)] != [PointSet((GAMMA_3X3,))]:
        failures.append("forced-eigenvalue point leaf missing")

    classical = gersgorin_region(ROWSUM_3X3)
    xs = np.arange(-4.0, 5.0 + 1e-9, 0.05)
    grid = xs[None, :] + 1j * xs[:, None]
    inside_refined = region_slack_grid(refined, grid) >= 0
    classical_slack = region_slack_grid(classical, grid)
    if not np.all(classical_slack[inside_refined] >= -1e-12):
        failures.append("refined region leaks outside the classical region")
    if not np.any((classical_slack >= 0) & ~inside_refined):
        failures.append("containment is not proper on the sampled grid")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds the 1s budget")
    _report("1 (worked 3x3 example)", failures, elapsed)


def test_criterion_2_soundness_sweep():
    started = time.perf_counter()
    failures = []
    checks = 0

    connected = [g for _, g in atlas_graphs() if classify(g).connected]
    if len(connected) != 996:
        failures.append(f"{len(connected)} connected atlas graphs, expected 996")
    for g in connected:
        done, bad = check_graph_with_library(g)
        checks += done
        failures += bad

    for label, g in family_corpus(32):
        done, bad = check_graph_with_library(g)
        checks += done
        failures += [(label,) + tuple(item) for item in bad]

    elapsed = time.perf_counter() - started
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 5 min budget")
    print(f"criterion 2 performed {checks} interval checks")
    _report("2 (isomorphism-class + family soundness)", failures, elapsed)


def test_criterion_3_complete_graph_sharpness():
    failures = []
    for n in range(3, 11):
        g = complete(n)
        rep = classify(g)
        adjacency = symmetric_eigenvalues(build_matrix(g, GraphMatrixKind.ADJACENCY)).values
        degrees = np.array(g.degree_sequence, dtype=float)
        normalized = symmetric_eigenvalues(g.adjacency / np.sqrt(np.outer(degrees, degrees))).values
        laplacian = symmetric_eigenvalues(build_matrix(g, GraphMatrixKind.LAPLACIAN)).values

        def expect(tag, value, target_value, tol=1e-10):
            if abs(value - target_value) > tol:
                failures.append((n, tag, value, target_value))

        from eigenloc.bounds import (
            laplacian_common_neighbor_bounds,
            normalized_dominating_brauer_bounds,
            normalized_dominating_gersgorin_bounds,
            regular_brauer_common_neighbor_bounds,
            regular_common_neighbor_bounds,
        )

        disks = by_target(regular_common_neighbor_bounds(g))
        expect("Thm3.7 lower", disks[LAMBDA_N].lower, -1.0, 0.0)
        expect("Thm3.7 upper", disks[LAMBDA_2].upper, -1.0, 0.0)
        expect("Thm3.7 vs oracle", disks[LAMBDA_N].lower, adjacency[-1])
        expect("Thm3.7 vs oracle2", disks[LAMBDA_2].upper, adjacency[1])

        ovals = by_target(regular_brauer_common_neighbor_bounds(g))
        expect("Thm3.9 lower", ovals[LAMBDA_N].lower, -1.0, 1e-12)
        expect("Thm3.9 upper", ovals[LAMBDA_2].upper, -1.0, 1e-12)

        trace = by_target(normalized_trace_bounds(g))
        expect("Thm4.1 lower", trace[LAMBDA_2].lower, -1.0 / (n - 1), 0.0)
        expect("Thm4.1 upper", trace[LAMBDA_2].upper, -1.0 / (n - 1), 0.0)
        expect("Thm4.1 vs oracle", trace[LAMBDA_2].upper, normalized[1])

        dom_disk = by_target(normalized_dominating_gersgorin_bounds(g))
        expect("Thm4.4 upper", dom_disk[LAMBDA_2].upper, -1.0 / (n - 1), 1e-12)
        expect("Thm4.4 lower", dom_disk[LAMBDA_N].lower, -1.0 / (n - 1), 1e-12)
        expect("Thm4.4 vs oracle", dom_disk[LAMBDA_2].upper, normalized[1])

        dom_oval = by_target(normalized_dominating_brauer_bounds(g))
        expect("Thm4.5 upper", dom_oval[LAMBDA_2].upper, -1.0 / (n - 1), 1e-12)
        expect("Thm4.5 lower", dom_oval[LAMBDA_N].lower, -1.0 / (n - 1), 1e-12)

        lap_trace = by_target(laplacian_trace_bounds(g))
        expect("Thm5.2 lower", lap_trace[LAMBDA_1].lower, float(n), 0.0)
        expect("Thm5.2 upper", lap_trace[LAMBDA_1].upper, float(n), 0.0)
        expect("Thm5.2 vs oracle", lap_trace[LAMBDA_1].upper, laplacian[0])

        lap_disk = by_target(laplacian_common_neighbor_bounds(g))
        expect("Thm5.3 upper", lap_disk[LAMBDA_1].upper, float(n), 0.0)
        expect("Thm5.3 vs oracle", lap_disk[LAMBDA_1].upper, laplacian[0])
    _report("3 (complete-graph sharpness)", failures)


def test_criterion_4_complete_bipartite_sharpness():
    failures = []
    for p in range(1, 6):
        for q in range(1, 6):
            if p + q < 4:
                continue
            g = complete_bipartite(p, q)
            rep = classify(g)
            adj = by_target(biregular_bipartite_lambda2_bounds(g))[LAMBDA_2]
            if (adj.lower, adj.upper) != (0.0, 0.0):
                failures.append((p, q, "Thm3.4", adj.lower, adj.upper))
            nrm = by_target(normalized_bipartite_lambda2_bounds(g))[LAMBDA_2]
            if (nrm.lower, nrm.upper) != (0.0, 0.0):
                failures.append((p, q, "Thm4.3", nrm.lower, nrm.upper))
            oracle = symmetric_eigenvalues(build_matrix(g, GraphMatrixKind.ADJACENCY))
            if abs(oracle.values[1]) > 1e-8:
                failures.append((p, q, "oracle lambda_2", oracle.values[1]))
    for d in range(2, 6):
        g = complete_bipartite(d, d)
        ivals = by_target(regular_adjacency_bounds(g))
        oracle = symmetric_eigenvalues(build_matrix(g, GraphMatrixKind.ADJACENCY)).values
        if abs(ivals[LAMBDA_2].lower - oracle[1]) > 1e-8:
            failures.append((d, "Thm3.1 left end lambda_2", ivals[LAMBDA_2].lower, oracle[1]))
        if abs(ivals[LAMBDA_N].lower - oracle[-1]) > 1e-8:
            failures.append((d, "Thm3.1 left end lambda_n", ivals[LAMBDA_N].lower, oracle[-1]))
    _report("4 (complete-bipartite sharpness)", failures)


def test_criterion_5_deflation_identity():
    failures = []
    rng = np.random.default_rng(2024)
    sizes = [3, 4, 5, 6, 7, 8]
    for index in range(100):
        n = sizes[index % len(sizes)]
        a, gamma = random_constant_rowsum_matrix(rng, n)
        full = charpoly(a)
        spectra = []
        for k in range(1, n + 1):
            reduced = deflate(a, k)
            product = np.polymul([1.0, -gamma], charpoly(reduced))
            err = float(np.max(np.abs(full - product)))
            if err > 1e-7:
                failures.append((index, n, k, "charpoly mismatch", err))
            spectra.append(sorted(complex_eigenvalues(reduced).values,
                                  key=lambda z: (z.real, z.imag)))
        base = spectra[0]
        for k, other in enumerate(spectra[1:], start=2):
            worst = max(abs(x - y) for x, y in zip(base, other))
            if worst > 1e-7:
                failures.append((index, n, k, "spectra differ across deflations", worst))
    _report("5 (deflation identity, 100 random matrices)", failures)


def _identity_corpus():
    graphs = [cycle(n) for n in range(3, 13)]
    graphs += [path(n) for n in range(3, 13)]
    graphs += [star(n) for n in range(4, 13)]
    graphs += [complete_bipartite(p, q) for p, q in
               ((1, 3), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (2, 5), (5, 5))]
    graphs += [petersen(), circulant(8, (1, 2)), circulant(10, (1, 3)),
               circulant(12, (1, 2, 3)), circulant(9, (1, 2))]
    graphs += [complete_minus_edge(n) for n in (4, 5, 6, 7)]
    # wheels on 5 and 6 vertices (hub + cycle)
    for rim in (4, 5):
        hub = [(1, v) for v in range(2, rim + 2)]
        ring = [(2 + i, 2 + (i + 1) % rim) for i in range(rim)]
        graphs.append(Graph.from_edges(rim + 1, hub + ring))
    graphs += [circulant(14, (1, 4))]
    assert len(graphs) == 50
    return graphs


def test_criterion_6_generic_vs_specialized():
    # complete graphs are excluded: their spread collapses to an exact zero
    # in the closed forms, while the two-trace route keeps ~1e-17 input
    # rounding that the square root amplifies far beyond 1e-12
    failures = []

    def close(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    count = 0
    for g in _identity_corpus():
        n = g.n
        rep = classify(g)
        ds = g.degree_sequence
        count += 1
        if rep.regular is not None and n >= 3:
            d = rep.regular
            _, top, bottom = trace_bounds(-float(d), float(n * d - d * d), n - 1)
            ivals = by_target(regular_adjacency_bounds(g))
            pairs = [
                (ivals[LAMBDA_2].lower, top.lower), (ivals[LAMBDA_2].upper, top.upper),
                (ivals[LAMBDA_N].lower, bottom.lower), (ivals[LAMBDA_N].upper, bottom.upper),
            ]
            if not all(close(a, b) for a, b in pairs):
                failures.append((g.n, g.m, "Thm3.1 vs engine", pairs))
        r1 = float(randic_index(g))
        _, top, bottom = trace_bounds(-1.0, 2.0 * r1 - 1.0, n - 1)
        ivals = by_target(normalized_trace_bounds(g))
        pairs = [
            (ivals[LAMBDA_2].lower, top.lower), (ivals[LAMBDA_2].upper, top.upper),
            (ivals[LAMBDA_N].lower, bottom.lower), (ivals[LAMBDA_N].upper, bottom.upper),
        ]
        if not all(close(a, b) for a, b in pairs):
            failures.append((g.n, g.m, "Thm4.1 vs engine", pairs))
        sum_d = float(sum(ds))
        _, top, bottom = trace_bounds(sum_d, sum(d * d for d in ds) + sum_d, n - 1)
        ivals = by_target(laplacian_trace_bounds(g))
        pairs = [
            (ivals[LAMBDA_1].lower, top.lower), (ivals[LAMBDA_1].upper, top.upper),
            (ivals[LAMBDA_N_MINUS_1].lower, bottom.lower),
            (ivals[LAMBDA_N_MINUS_1].upper, bottom.upper),
        ]
        if not all(close(a, b) for a, b in pairs):
            failures.append((g.n, g.m, "Thm5.2 vs engine", pairs))
    print(f"criterion 6 compared {count} corpus graphs")
    _report("6 (generic vs specialized identities)", failures)


def test_criterion_7_dominating_vertex_modes():
    failures = []
    corpus = [g for _, g in atlas_graphs() if g.n >= 3 and classify(g).dominating]
    corpus += [complete(n) for n in range(3, 11)]
    corpus += [star(n) for n in range(3, 11)]

    for g in corpus:
        values = symmetric_eigenvalues(build_matrix(g, GraphMatrixKind.LAPLACIAN)).values
        top, fiedler = values[0], values[-2]
        published = by_target(laplacian_dominating_brauer_bounds(g, mode="published"))
        corrected = by_target(laplacian_dominating_brauer_bounds(g, mode="corrected"))
        for tag, ivals in (("published", published), ("corrected", corrected)):
            if not (ivals[LAMBDA_1].lower - 1e-8 <= top <= ivals[LAMBDA_1].upper + 1e-8):
                failures.append((g.n, g.m, tag, "lambda_1", top))
            if not (
                ivals[LAMBDA_N_MINUS_1].lower - 1e-8
                <= fiedler
                <= ivals[LAMBDA_N_MINUS_1].upper + 1e-8
            ):
                failures.append((g.n, g.m, tag, "lambda_n_minus_1", fiedler))
        if corrected[LAMBDA_1].upper > published[LAMBDA_1].upper + 1e-12:
            failures.append((g.n, g.m, "corrected looser than published"))
    for n in range(3, 11):
        ivals = by_target(laplacian_dominating_brauer_bounds(complete(n), mode="corrected"))
        if ivals[LAMBDA_1].upper != float(n):
            failures.append((n, "corrected K_n upper", ivals[LAMBDA_1].upper))
    print(f"criterion 7 checked {len(corpus)} dominating-vertex graphs")
    _report("7 (deflated-oval Laplacian modes)", failures)


def test_criterion_8_real_section_oracle_agreement():
    failures = []
    rng = np.random.default_rng(88)
    for index in range(50):
        region = random_region(rng)
        section = real_section(region)
        xs = rng.uniform(-6.0, 6.0, 1000)
        for x in xs:
            z = complex(float(x), 0.0)
            inside = region_contains(region, z)
            in_section = section_contains(section, float(x))
            if inside != in_section and abs(region_slack(region, z)) > 1e-9:
                failures.append((index, float(x), inside, in_section))
    _report("8 (real-section agreement, 50 regions x 1000 points)", failures)
