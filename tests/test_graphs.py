"""Graph construction, invariants, and matrix building."""

import json
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from eigenloc.graphs import (
    MAX_VERTICES,
    Graph,
    GraphMatrixKind,
    build_matrix,
    classify,
    common_neighbors,
    complete,
    complete_bipartite,
    complete_minus_edge,
    circulant,
    cycle,
    degrees,
    generate,
    graph_from_json,
    graph_to_json,
    parse_edge_list,
    path,
    petersen,
    randic_index,
    star,
)

from ._corpus import atlas_graphs


def random_graph(rng, n, p=0.5):
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < p]
    return Graph.from_edges(n, pairs)


class TestParsing:
    def test_triangle(self):
        g = parse_edge_list("3 3\n1 2\n2 3\n1 3")
        assert g.n == 3 and g.edges == {(1, 2), (2, 3), (1, 3)}

    def test_single_edge(self):
        g = parse_edge_list("2 1\n1 2")
        assert g.n == 2 and g.edges == {(1, 2)}

    def test_four_cycle(self):
        g = parse_edge_list("4 4\n1 2\n2 3\n3 4\n4 1")
        assert g.edges == cycle(4).edges

    def test_duplicates_merge_silently(self):
        g = parse_edge_list("3 3\n1 2\n2 1\n1 2")
        assert g.edges == {(1, 2)}

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3",
            "3 2\n1 2",
            "3 1\n1 2 3",
            "3 1\nx y",
            "3 1\n1 4",
            "3 1\n2 2",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_edge_list(text)

    def test_json_round_trip(self):
        g = petersen()
        assert graph_from_json(graph_to_json(g)) == g

    def test_json_rejects_self_loop(self):
        with pytest.raises(ValueError):
            graph_from_json(json.dumps({"n": 2, "edges": [[1, 1]]}))

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2.7, "edges": [[1, 2]]}',
            '{"n": 3, "edges": [[1.9, 2]]}',
            '{"n": 3, "edges": [[1, 2.5]]}',
            '{"n": true, "edges": []}',
            '{"n": 3, "edges": [[true, 2]]}',
            '{"n": "3", "edges": [[1, 2]]}',
            '{"n": NaN, "edges": []}',
            '{"n": Infinity, "edges": []}',
            '{"n": 3, "edges": [[1, NaN]]}',
            '{"n": 3, "edges": [[-Infinity, 2]]}',
        ],
    )
    def test_json_rejects_non_integers(self, text):
        with pytest.raises(ValueError):
            graph_from_json(text)

    def test_json_accepts_integral_floats(self):
        g = graph_from_json('{"n": 3.0, "edges": [[1.0, 2], [2, 3]]}')
        assert g == path(3)

    @pytest.mark.parametrize("n", [MAX_VERTICES + 1, 10**19])
    def test_vertex_cap(self, n):
        # checked before the per-vertex masks are allocated
        with pytest.raises(ValueError, match="cap"):
            Graph(n, frozenset())
        with pytest.raises(ValueError, match="cap"):
            graph_from_json(json.dumps({"n": n, "edges": [[1, 2]]}))
        with pytest.raises(ValueError, match="cap"):
            parse_edge_list(f"{n} 1\n1 2")

    def test_vertex_cap_is_inclusive(self):
        assert Graph(MAX_VERTICES, frozenset()).n == MAX_VERTICES

    @pytest.mark.parametrize(
        "n, edges",
        [(True, ()), (3.0, ()), (np.int64(3), ()), (3, ((1.0, 2),)), (3, ((1, 2.0),)),
         (3, ((np.int64(1), 2),)), (3, ((True, 2),))],
        ids=["bool-n", "float-n", "numpy-n", "float-label", "float-label-2", "numpy-label",
             "bool-label"],
    )
    def test_raw_constructor_takes_builtin_ints_only(self, n, edges):
        # once: Graph(True, ...) was K_1, a float label a TypeError, and numpy
        # labels made a graph that graph_to_json could not write
        with pytest.raises(ValueError, match="from_edges"):
            Graph(n, frozenset(edges))


class TestFamilies:
    def test_complete_edge_count(self):
        assert complete(4).m == 6

    def test_complete_bipartite_2_2_is_a_four_cycle(self):
        g = complete_bipartite(2, 2)
        rep = classify(g)
        assert g.m == 4 and rep.regular == 2 and rep.bipartite and rep.connected

    def test_circulant_10_12_is_4_regular(self):
        g = circulant(10, {1, 2})
        assert all(g.degree(i) == 4 for i in range(1, 11))

    def test_petersen_shape(self):
        g = petersen()
        assert g.n == 10 and g.m == 15
        assert classify(g).regular == 3

    def test_complete_minus_edge(self):
        g = complete_minus_edge(5)
        assert g.m == 9 and not g.has_edge(1, 2)

    def test_generate_dispatch(self):
        assert generate("complete", n=4) == complete(4)
        assert generate("complete_bipartite", p=2, q=3) == complete_bipartite(2, 3)
        assert generate("circulant", n=8, connections=[1, 2]) == circulant(8, [1, 2])
        assert generate("petersen") == petersen()

    def test_generate_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            generate("hypercube", n=3)

    def test_generate_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            generate("cycle", n=2)
        with pytest.raises(ValueError):
            generate("complete_bipartite", p=0, q=3)

    def test_generate_error_texts(self):
        with pytest.raises(ValueError, match="^unknown graph family 'hypercube'$"):
            generate("Hypercube", n=3)
        with pytest.raises(ValueError, match="^family 'complete_bipartite' is missing parameter 'q'$"):
            generate("complete-bipartite", p=2)

    @pytest.mark.parametrize("bad", [2.5, 1.9, True, "5", float("nan")])
    def test_non_integers_rejected(self, bad):
        # int() once truncated 2.5 to 2, made the edge (1.9, 3) into (1, 3)
        # and read "5" as 5
        with pytest.raises(ValueError, match="integer"):
            generate("complete", n=bad)
        with pytest.raises(ValueError, match="integer"):
            generate("complete_bipartite", p=2, q=bad)
        with pytest.raises(ValueError, match="integer"):
            circulant(6, [1, bad])
        with pytest.raises(ValueError, match="integer"):
            generate("circulant", n=6, connections=[bad])
        with pytest.raises(ValueError, match="integer"):
            Graph.from_edges(3, [(1, 2), (bad, 3)])
        with pytest.raises(ValueError, match="integer"):
            Graph.from_edges(bad, [])

    def test_numpy_and_integral_float_integers_accepted(self):
        three, one = np.int64(3), np.int64(1)
        assert generate("complete", n=three) == complete(3)
        assert generate("complete", n=3.0) == complete(3)
        assert circulant(np.int64(6), [one, np.int32(2)]) == circulant(6, [1, 2])
        g = Graph.from_edges(three, [(one, three), (2.0, np.int64(1))])
        assert g == Graph.from_edges(3, [(1, 3), (1, 2)])
        assert all(type(u) is int and type(v) is int for u, v in g.edges)
        assert graph_from_json(graph_to_json(g)) == g
        assert generate("complete_minus_edge", n=three) == complete_minus_edge(3)
        assert complete_minus_edge(three) == complete_minus_edge(3)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_family_degree_closed_forms(self, n):
        assert degrees(complete(n)).degrees == tuple([n - 1] * n)
        assert degrees(cycle(n)).degrees == tuple([2] * n)
        p, q = 2, n
        prof = degrees(complete_bipartite(p, q)).degrees
        assert prof[:p] == tuple([q] * p) and prof[p:] == tuple([p] * q)


class TestInvariants:
    def test_degrees_k4(self):
        prof = degrees(complete(4))
        assert prof.degrees == (3, 3, 3, 3)
        assert prof.average_degree == 3
        assert prof.sum_squares == 36

    def test_degrees_star5(self):
        prof = degrees(star(5))
        assert prof.degrees == (4, 1, 1, 1, 1)
        assert prof.average_degree == Fraction(8, 5)

    def test_degrees_petersen(self):
        prof = degrees(petersen())
        assert prof.degrees == tuple([3] * 10)
        assert prof.average_degree == 3 and prof.sum_squares == 90

    def test_handshake_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(2, 10)))
            assert sum(degrees(g).degrees) == 2 * g.m

    def test_common_neighbors_k4(self):
        assert common_neighbors(complete(4), 1, 2) == 2

    def test_common_neighbors_c4_opposite(self):
        assert common_neighbors(cycle(4), 1, 3) == 2

    def test_common_neighbors_petersen(self):
        g = petersen()
        for i in range(1, 11):
            for j in range(i + 1, 11):
                expected = 0 if g.has_edge(i, j) else 1
                assert common_neighbors(g, i, j) == expected

    def test_common_neighbors_match_squared_adjacency(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 9)))
            a2 = build_matrix(g, GraphMatrixKind.ADJACENCY) @ build_matrix(
                g, GraphMatrixKind.ADJACENCY
            )
            for i in range(1, g.n + 1):
                for j in range(1, g.n + 1):
                    if i != j:
                        assert common_neighbors(g, i, j) == int(a2[i - 1, j - 1])

    def test_common_neighbors_rejects_equal_vertices(self):
        with pytest.raises(ValueError):
            common_neighbors(complete(3), 2, 2)


class TestRandicIndex:
    def test_complete_closed_form(self):
        for n in range(3, 9):
            expected = n / (2 * (n - 1))
            assert randic_index(complete(n), -1) == pytest.approx(expected, abs=1e-12)
        assert randic_index(complete(4), -1) == pytest.approx(2 / 3, abs=1e-14)

    def test_alpha_zero_counts_edges(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 10)))
            assert randic_index(g, 0.0) == g.m

    def test_star_inverse_index_is_one(self):
        for n in range(3, 8):
            assert randic_index(star(n), -1) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(3, 9)), p=0.7)
            if min(degrees(g).degrees) == 0:
                continue
            for alpha in (-1.0, -0.5, 1.0, 2.0):
                direct = sum(
                    (g.degree(u) * g.degree(v)) ** alpha for u, v in g.edges
                )
                assert randic_index(g, alpha) == pytest.approx(direct, rel=1e-12)

    def test_rejects_isolated_vertex_with_negative_alpha(self):
        g = Graph.from_edges(3, [(1, 2)])
        with pytest.raises(ValueError):
            randic_index(g, -1)


class TestMatrices:
    def test_k2_laplacian(self):
        assert np.array_equal(
            build_matrix(complete(2), GraphMatrixKind.LAPLACIAN),
            np.array([[1.0, -1.0], [-1.0, 1.0]]),
        )

    def test_k3_normalized(self):
        expected = np.full((3, 3), 0.5) - 0.5 * np.eye(3)
        assert np.allclose(
            build_matrix(complete(3), GraphMatrixKind.NORMALIZED_ADJACENCY), expected
        )

    def test_c4_adjacency_circulant_row(self):
        a = build_matrix(cycle(4), GraphMatrixKind.ADJACENCY)
        assert np.array_equal(a[0], np.array([0.0, 1.0, 0.0, 1.0]))

    def test_laplacian_rows_sum_to_zero_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(2, 12)))
            lap = build_matrix(g, GraphMatrixKind.LAPLACIAN)
            assert np.all(lap.sum(axis=1) == 0.0)

    def test_normalized_rows_sum_to_one(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 10:
            g = random_graph(rng, int(rng.integers(2, 12)), p=0.6)
            if min(degrees(g).degrees) == 0:
                continue
            count += 1
            norm = build_matrix(g, GraphMatrixKind.NORMALIZED_ADJACENCY)
            assert np.max(np.abs(norm.sum(axis=1) - 1.0)) <= 1e-12

    def test_normalized_rejects_isolated_vertex(self):
        g = Graph.from_edges(3, [(1, 2)])
        with pytest.raises(ValueError):
            build_matrix(g, GraphMatrixKind.NORMALIZED_ADJACENCY)


class TestClassify:
    def test_k4(self):
        rep = classify(complete(4))
        assert rep.connected and rep.regular == 3 and not rep.bipartite
        assert rep.dominating == (1, 2, 3, 4)

    def test_k23(self):
        rep = classify(complete_bipartite(2, 3))
        assert rep.connected and rep.bipartite
        assert rep.biregular == (3, 2)
        assert rep.dominating == ()

    def test_star5(self):
        rep = classify(star(5))
        assert rep.connected and rep.biregular == (4, 1)
        assert rep.dominating == (1,)

    def test_disconnected(self):
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        rep = classify(g)
        assert not rep.connected

    def test_path_not_biregular(self):
        rep = classify(path(4))
        assert rep.bipartite and rep.biregular is None

    def test_self_loop_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(2, 2)])


class TestAtlas:
    """classify against networkx on every graph with 1 to 7 vertices, up to isomorphism."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_connected_count(self, n):
        # unlabelled connected graphs on n vertices (OEIS A001349)
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}[n]
        found = sum(1 for h, _ in atlas_graphs() if len(h) == n and nx.is_connected(h))
        assert found == expected

    def test_classify_matches_networkx(self):
        assert len(atlas_graphs()) == 1252
        disconnected_bipartite = 0
        for h, g in atlas_graphs():
            rep = classify(g)
            degree = dict(h.degree())
            distinct = set(degree.values())
            assert rep.connected == nx.is_connected(h)
            assert rep.regular == (distinct.pop() if len(distinct) == 1 else None)
            assert rep.bipartite == nx.is_bipartite(h)
            assert rep.biregular == reference_biregular(h)
            assert rep.dominating == tuple(
                v + 1 for v in sorted(h) if degree[v] == g.n - 1
            )
            disconnected_bipartite += rep.bipartite and not rep.connected
        assert disconnected_bipartite > 0


def reference_biregular(h: nx.Graph) -> tuple[int, int] | None:
    """(c, d) from networkx's two-colouring, c on the side of each component's lowest vertex."""
    if not nx.is_bipartite(h):
        return None
    sides: tuple[set[int], set[int]] = (set(), set())
    for component in nx.connected_components(h):
        colour = nx.bipartite.color(h.subgraph(component))
        first = colour[min(component)]
        for v in component:
            sides[colour[v] != first].add(h.degree(v))
    c, d = sides
    if len(c) == 1 and len(d) <= 1:
        return (c.pop(), d.pop() if d else 0)
    return None
