"""Graph construction, invariants, and matrix building."""

import json
import random
import re
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from eigenloc.graphs import (
    FAMILY_NAMES,
    MAX_VERTICES,
    Graph,
    GraphMatrixKind,
    _has_matrix,
    build_matrix,
    classify,
    complete,
    complete_bipartite,
    complete_minus_edge,
    circulant,
    cycle,
    generate,
    graph_from_json,
    graph_to_json,
    parse_edge_list,
    path,
    petersen,
    star,
)

from ._corpus import atlas_graphs
from ._reference import common_neighbors, randic_index


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

    _MALFORMED = [
        ("", "empty edge list: missing 'n m' header"),
        ("3", "malformed header '3': expected 'n m'"),
        ("a b", "malformed header 'a b': expected two integers"),
        ("-1 0", "invalid header values n=-1, m=0"),
        ("3 2\n1 2", "expected 2 edge lines, found 1"),
        ("3 1\n1 2 3", "malformed edge line '1 2 3'"),
        ("3 1\nx y", "malformed edge line 'x y'"),
        ("3 1\n1 4", "edge (1, 4) has an endpoint outside 1..3"),
        ("3 1\n2 2", "self-loop at vertex 2"),
    ]

    @pytest.mark.parametrize("text, message", _MALFORMED, ids=[t for t, _ in _MALFORMED])
    def test_rejects_malformed(self, text, message):
        # the file format is checked by the parser, the labels by Graph alone
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_edge_list(text)

    def test_json_round_trip(self):
        g = petersen()
        assert graph_from_json(graph_to_json(g)) == g

    def test_json_rejects_self_loop(self):
        with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
            graph_from_json(json.dumps({"n": 2, "edges": [[1, 1]]}))

    @pytest.mark.parametrize("edges, message", [
        ([[1, 5]], "edge (1, 5) has an endpoint outside 1..2"),
        ([[2, 0]], "edge (0, 2) has an endpoint outside 1..2"),
        ([[1, 2, 3]], "edge entry [1, 2, 3] is not a pair"),
        ([1, 2], "edge entry 1 is not a pair"),
    ], ids=["out-of-range", "zero-label", "triple", "bare-label"])
    def test_json_rejects_bad_edges(self, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            graph_from_json(json.dumps({"n": 2, "edges": edges}))

    _NON_INTEGERS = [
        ('{"n": 2.7, "edges": [[1, 2]]}', "vertex count must be an integer, got 2.7"),
        ('{"n": 3, "edges": [[1.9, 2]]}', "edge label must be an integer, got 1.9"),
        ('{"n": 3, "edges": [[1, 2.5]]}', "edge label must be an integer, got 2.5"),
        ('{"n": true, "edges": []}', "vertex count must be an integer, got True"),
        ('{"n": 3, "edges": [[true, 2]]}', "edge label must be an integer, got True"),
        ('{"n": "3", "edges": [[1, 2]]}', "vertex count must be an integer, got '3'"),
        ('{"n": NaN, "edges": []}', "vertex count must be an integer, got nan"),
        ('{"n": Infinity, "edges": []}', "vertex count must be an integer, got inf"),
        ('{"n": 3, "edges": [[1, NaN]]}', "edge label must be an integer, got nan"),
        ('{"n": 3, "edges": [[-Infinity, 2]]}', "edge label must be an integer, got -inf"),
    ]

    @pytest.mark.parametrize("text, message", _NON_INTEGERS, ids=[t for t, _ in _NON_INTEGERS])
    def test_json_rejects_non_integers(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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

    @pytest.mark.parametrize(
        "edges",
        [((1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (1, 4)),
         [(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)],
         [[1, 4], [1, 5], [2, 4], [2, 5], [3, 4], [3, 5]],
         (pair for pair in [(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)])],
        ids=["repeated-pair", "list", "list-of-lists", "generator"],
    )
    def test_raw_constructor_stores_a_frozenset(self, edges):
        # once: a repeated pair counted twice in m, so Thm3.4 bounded the
        # lambda_2 of K_{3,2} (which is 0) by [0.577, 1.155], and a list made
        # bounds_report raise TypeError from its cache
        from eigenloc.bounds import bounds_report

        g, want = Graph(5, edges), complete_bipartite(3, 2)
        assert isinstance(g.edges, frozenset) and g.edges == want.edges
        assert (g.m, g, hash(g), graph_to_json(g)) == (want.m, want, hash(want), graph_to_json(want))
        for kind in GraphMatrixKind:
            assert bounds_report(g, kind) == bounds_report(want, kind)
        thm34 = [b for b in bounds_report(g, GraphMatrixKind.ADJACENCY).bounds if b.theorem == "Thm3.4"]
        assert [(b.lower, b.upper) for b in thm34] == [(0.0, 0.0)]
        assert bounds_report(Graph(3, [(1, 2), (2, 3)]), GraphMatrixKind.LAPLACIAN).bounds

    def test_raw_constructor_rebuilds_non_tuple_pairs(self):
        g = Graph(3, frozenset({frozenset({2, 3}), (1, 2)}))
        assert g == path(3) and all(type(e) is tuple for e in g.edges)
        # a generator is read once: its first bad pair is refused by name,
        # and a pair that is an iterator is read once too
        with pytest.raises(ValueError, match="self-loop at vertex 3"):
            Graph(3, (pair for pair in [(1, 2), (3, 3), (2, 1)]))
        assert Graph(3, [iter((1, 2)), map(int, "23")]) == path(3)


class TestRefusalsWithSeveralFaults:
    """Each refusal keeps its words when an input holds several faults: the
    parser names the first malformed line in file order, ahead of any label
    fault, and ``Graph`` the first failing edge in its container's order
    (list order, or the set's iteration order)."""

    _EDGE_LISTS = [
        ("4 3\n1 2\nx y\n1 2 3", "malformed edge line 'x y'"),
        ("4 3\n1 2\n1\nx y", "malformed edge line '1'"),
        ("3 2\n1 9\nx y", "malformed edge line 'x y'"),
        ("3 3\n2 2\n1 2\n1 2 3", "malformed edge line '1 2 3'"),
        ("3 2\n2 2\n1 9", "edge (1, 9) has an endpoint outside 1..3"),
        ("3 2\n1 9\n2 2", "edge (1, 9) has an endpoint outside 1..3"),
        ("3 3\n3 3\n1 9\n9 1", "self-loop at vertex 3"),
        ("3 2\n1 2\n2 3\n1 3", "expected 2 edge lines, found 3"),
        ("3 1\nx y\n1 2 3", "expected 1 edge lines, found 2"),
        ("3 4\n1 2\n\n2 3\n", "expected 4 edge lines, found 2"),
    ]

    @pytest.mark.parametrize("text, message", _EDGE_LISTS, ids=[t for t, _ in _EDGE_LISTS])
    def test_edge_list(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_edge_list(text)

    _RAW = [
        ([(1, 2), [3, 3], (True, 2), (1, 9), (3, 1)], "self-loop at vertex 3"),
        ([(1, 2), (True, 2), [3, 3], (1, 9)],
         "edge (True, 2) needs builtin int labels (see Graph.from_edges)"),
        ([[1, 9], (2, 2), (3, 1)], "edge [1, 9] has an endpoint outside 1..3"),
        ([(3, 1), [2, 2], (1, 2.0)], "edge (3, 1) is not normalised as (min, max)"),
        # sets of int tuples iterate in the same order under every hash seed
        (frozenset({(2, 2), (1, 9), (True, 3), (3, 1), frozenset({1, 3})}),
         "self-loop at vertex 2"),
        (frozenset({(1, 9), frozenset({2, 9}), (3, 1)}),
         "edge (3, 1) is not normalised as (min, max)"),
        (frozenset({(2, 2), (1, 9), (3, 1), (0, 2)}),
         "edge (3, 1) is not normalised as (min, max)"),
        (frozenset({(1, 9), (3, 1), (0, 2), (1, 2)}),
         "edge (3, 1) is not normalised as (min, max)"),
        (frozenset({(1, 2), (2.5, 3), (2, 9)}), "edge (2, 9) has an endpoint outside 1..3"),
        (frozenset({(1, 2), (True, 3), (2, 9), (3, 3)}),
         "edge (2, 9) has an endpoint outside 1..3"),
        (frozenset({(2, 3), (False, 2), (3, 3)}),
         "edge (False, 2) needs builtin int labels (see Graph.from_edges)"),
    ]

    @pytest.mark.parametrize("edges, message", _RAW, ids=[repr(e) for e, _ in _RAW])
    def test_raw_constructor(self, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Graph(3, edges)

    _JSON = [
        ([[1, 2.5], [1, 2, 3]], "edge entry [1, 2, 3] is not a pair"),
        ([[1, 2, 3], [True, 2]], "edge entry [1, 2, 3] is not a pair"),
        ([[1, 9], 7, [1.5, 2]], "edge entry 7 is not a pair"),
        ([[1, 9], [1.5, 2]], "edge label must be an integer, got 1.5"),
        ([[2, 2], [1, 9]], "edge (1, 9) has an endpoint outside 1..3"),
    ]

    @pytest.mark.parametrize("edges, message", _JSON, ids=[repr(e) for e, _ in _JSON])
    def test_graph_json(self, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            graph_from_json(json.dumps({"n": 3, "edges": edges}))


def _edge_list_text(n, pairs, rng):
    """``pairs`` as an edge-list file, each line written as ``"u v"`` or
    ``"v u"`` at random, about one line in eight repeated, blank lines
    between, and ``\\r\\n`` line ends."""
    lines = []
    for u, v in pairs:
        for _ in range(1 + (rng.random() < 0.125)):
            lines.append(f"{u} {v}" if rng.random() < 0.5 else f"  {v}\t{u} ")
            if rng.random() < 0.1:
                lines.append("")
    return "\r\n".join([f"{n} {sum(1 for ln in lines if ln)}", ""] + lines) + "\r\n"


class TestEdgeListEqualsFromEdges:
    """``parse_edge_list`` builds the graph ``Graph.from_edges`` builds from
    the same pairs: equal edges, bitmask rows and degree sequence."""

    @staticmethod
    def _assert_same(g, want):
        assert g == want and g.edges == want.edges
        assert all(type(e) is tuple for e in g.edges)
        assert g.degree_sequence == want.degree_sequence
        assert [g.neighbors_mask(i) for i in range(1, g.n + 1)] == [
            want.neighbors_mask(i) for i in range(1, want.n + 1)
        ]

    def test_atlas_graphs(self):
        for _, want in atlas_graphs():
            pairs = sorted(want.edges)
            text = "\n".join([f"{want.n} {len(pairs)}"] + [f"{u} {v}" for u, v in pairs])
            self._assert_same(parse_edge_list(text), Graph.from_edges(want.n, pairs))

    @pytest.mark.parametrize("g", [petersen(), circulant(12, (1, 3)), complete_bipartite(3, 4),
                                   star(7), path(9), complete(6), cycle(5)],
                             ids=["petersen", "circulant", "k34", "star", "path", "k6", "c5"])
    def test_relabelled_families_in_untidy_files(self, g):
        rng = np.random.default_rng(g.n * 31 + g.m)
        for _ in range(3):
            label = [0, *map(int, rng.permutation(g.n) + 1)]
            pairs = [(label[u], label[v]) for u, v in g.sorted_edges()]
            rng.shuffle(pairs)
            text = _edge_list_text(g.n, pairs, rng)
            parsed = parse_edge_list(text)
            self._assert_same(parsed, Graph.from_edges(g.n, pairs))
            assert parsed.degree_sequence == tuple(
                g.degree_sequence[label.index(i) - 1] for i in range(1, g.n + 1))

    def test_reversed_and_repeated_lines(self):
        text = "4 5\r\n2 1\r\n\r\n1 2\r\n4 3\r\n  3   2 \r\n2 3\r\n"
        pairs = [(2, 1), (1, 2), (4, 3), (3, 2), (2, 3)]
        self._assert_same(parse_edge_list(text), Graph.from_edges(4, pairs))
        self._assert_same(parse_edge_list(text), path(4))

    def test_vertex_cap_file(self):
        rng = np.random.default_rng(2048)
        ends = rng.integers(1, MAX_VERTICES + 1, size=(20_000, 2))
        pairs = [(int(u), int(v)) for u, v in ends if u != v]
        text = _edge_list_text(MAX_VERTICES, pairs, rng)
        self._assert_same(parse_edge_list(text), Graph.from_edges(MAX_VERTICES, pairs))


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

    def test_circulant_offset_of_n_is_a_self_loop(self):
        # offsets are taken modulo n, so n itself is 0
        with pytest.raises(ValueError, match="^circulant connection 0 would be a self-loop$"):
            circulant(4, (4,))

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
        with pytest.raises(ValueError, match="^family 'petersen' takes no parameter 'n'$"):
            generate("petersen", n=3)
        with pytest.raises(ValueError, match="^family 'cycle' takes no parameter 'connections'$"):
            generate("cycle", n=5, connections=[1, 2])

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_generate_rejects_parameters_the_family_does_not_take(self, family):
        # they were ignored, so that petersen with n = 3 was the Petersen graph
        taken = {"complete_bipartite": {"p": 2, "q": 3}, "petersen": {},
                 "circulant": {"n": 8, "connections": [1, 2]}}.get(family, {"n": 5})
        generate(family, **taken)
        for name, value in {"n": 5, "p": 2, "q": 3, "connections": [1, 2], "size": 4}.items():
            if name not in taken:
                with pytest.raises(ValueError, match=f"^family '{family}' takes no parameter '{name}'$"):
                    generate(family, **taken, **{name: value})

    @pytest.mark.parametrize("bad", [2.5, 1.9, True, "5", float("nan"), np.True_, np.float32(2.5),
                                     np.float16("nan"), np.float32("inf"), float("-inf")])
    def test_non_integers_rejected(self, bad):
        # int() once truncated 2.5 to 2, made the edge (1.9, 3) into (1, 3)
        # and read "5" as 5; a numpy bool or float is refused as its Python kin
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
        # any numpy float with an integral value: np.float32(3.0) was refused
        for three_float in (np.float64(3.0), np.float32(3.0), np.float16(3.0)):
            assert generate("complete", n=three_float) == complete(3)
        assert circulant(np.int64(6), [one, np.int32(2)]) == circulant(6, [1, 2])
        g = Graph.from_edges(three, [(one, three), (2.0, np.int64(1))])
        assert g == Graph.from_edges(3, [(1, 3), (1, 2)])
        assert all(type(u) is int and type(v) is int for u, v in g.edges)
        assert graph_from_json(graph_to_json(g)) == g
        assert generate("complete_minus_edge", n=three) == complete_minus_edge(3)
        assert complete_minus_edge(three) == complete_minus_edge(3)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_family_degree_closed_forms(self, n):
        assert complete(n).degree_sequence == tuple([n - 1] * n)
        assert cycle(n).degree_sequence == tuple([2] * n)
        p, q = 2, n
        prof = complete_bipartite(p, q).degree_sequence
        assert prof[:p] == tuple([q] * p) and prof[p:] == tuple([p] * q)


def common_column(g, i, k):
    """N(i,k) as ``g.common_neighbor_table``, the product A·A, holds it."""
    return int(g.common_neighbor_table[i - 1, k - 1])


def table_matches_bitmasks(g):
    """Every pair's ``common`` entry equals the bitmask intersection count."""
    return all(
        common_column(g, i, k) == common_neighbors(g, i, k)
        for i in range(1, g.n + 1)
        for k in range(1, g.n + 1)
        if k != i
    )


class TestInvariants:
    def test_degrees_k4(self):
        g = complete(4)
        assert g.degree_sequence == (3, 3, 3, 3)
        assert [g.degree(v) for v in range(1, 5)] == [3, 3, 3, 3]

    def test_degrees_star5(self):
        g = star(5)
        assert g.degree_sequence == (4, 1, 1, 1, 1)
        assert [g.degree(v) for v in range(1, 6)] == [4, 1, 1, 1, 1]

    def test_degrees_petersen(self):
        assert petersen().degree_sequence == tuple([3] * 10)
        with pytest.raises(ValueError, match=r"^vertex 0 out of range 1\.\.10$"):
            petersen().degree(0)
        # every vertex query takes its labels by the integer rule
        g = petersen()
        queries = (g.degree, lambda v: g.has_edge(v, 2), lambda v: g.has_edge(1, v), g.neighbors_mask)
        for query in queries:
            for bad in (1.5, True, "1", float("nan")):
                with pytest.raises(ValueError, match="vertex must be an integer"):
                    query(bad)
            assert query(2.0) == query(np.int64(2)) == query(np.float32(2.0)) == query(2)
            for bad in (np.True_, np.float16(1.5), np.float32("nan")):
                with pytest.raises(ValueError, match="vertex must be an integer"):
                    query(bad)
        assert g.degree(2.0) == 3 and g.has_edge(1, 2.0) and not g.has_edge(np.int64(1), 3)

    def test_handshake_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(2, 10)))
            assert sum(g.degree_sequence) == 2 * g.m
            ends = [v for e in g.edges for v in e]
            assert g.degree_sequence == tuple(ends.count(v) for v in range(1, g.n + 1))

    def test_common_neighbors_k4(self):
        assert common_column(complete(4), 1, 2) == 2
        assert table_matches_bitmasks(complete(4))

    def test_common_neighbors_c4_opposite(self):
        assert common_column(cycle(4), 1, 3) == 2

    def test_common_neighbors_petersen(self):
        g = petersen()
        for i in range(1, 11):
            for j in range(i + 1, 11):
                expected = 0 if g.has_edge(i, j) else 1
                assert common_column(g, i, j) == common_column(g, j, i) == expected
        assert table_matches_bitmasks(g)

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_common_neighbors_match_bitmasks_on_families(self, family):
        sizes = {"petersen": [{}], "complete_bipartite": [{"p": 2, "q": 3}, {"p": 3, "q": 4}],
                 "circulant": [{"n": 8, "connections": [1, 2]}, {"n": 11, "connections": [1, 3]}]}
        for params in sizes.get(family, [{"n": n} for n in (3, 6, 9)]):
            assert table_matches_bitmasks(generate(family, **params)), params

    def test_common_neighbors_match_bitmasks_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 9)))
            assert table_matches_bitmasks(g)


class TestRandicIndex:
    def test_complete_closed_form(self):
        for n in range(3, 9):
            assert complete(n).randic_index == Fraction(n, 2 * (n - 1))
        assert float(complete(4).randic_index) == 2 / 3

    def test_star_inverse_index_is_one(self):
        for n in range(3, 8):
            assert star(n).randic_index == 1

    def test_matches_edge_by_edge_summation(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(3, 9)), p=0.7)
            assert g.randic_index == randic_index(g)
        for g in (petersen(), path(4), complete_bipartite(2, 5), circulant(9, (1, 2))):
            assert g.randic_index == randic_index(g)


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
            if min(g.degree_sequence) == 0:
                continue
            count += 1
            norm = build_matrix(g, GraphMatrixKind.NORMALIZED_ADJACENCY)
            assert np.max(np.abs(norm.sum(axis=1) - 1.0)) <= 1e-12

    def test_normalized_rejects_isolated_vertex(self):
        g = Graph.from_edges(3, [(1, 2)])
        with pytest.raises(ValueError):
            build_matrix(g, GraphMatrixKind.NORMALIZED_ADJACENCY)

    def test_rejects_a_kind_that_is_not_a_matrix_kind(self):
        # the name of a kind is not the kind, for the builder, for the kept
        # matrix, for the spectrum of a regular graph (which has a shortcut of
        # its own) and of one that is not, and for the bound report
        from eigenloc.bounds import bounds_report
        from eigenloc.oracle import graph_spectrum

        for call in (lambda: build_matrix(petersen(), "adjacency"), lambda: petersen().matrix("adjacency")):
            with pytest.raises(ValueError, match="^unknown matrix kind 'adjacency'$"):
                call()
        for g in (petersen(), path(4)):
            for kind in ("laplacian", "bogus"):
                with pytest.raises(ValueError, match=f"^unknown matrix kind '{kind}'$"):
                    graph_spectrum(g, kind)
        with pytest.raises(ValueError, match="^unknown matrix kind 'laplacian'$"):
            bounds_report(petersen(), "laplacian")
        assert graph_spectrum(petersen(), GraphMatrixKind.LAPLACIAN).values[0] == pytest.approx(5.0)


class TestGraphFacts:
    """``structure`` and ``adjacency`` are made once per graph, on first read."""

    def test_structure_is_the_classify_report_made_once(self):
        for g in (petersen(), star(5), path(4), Graph.from_edges(4, [(1, 2), (3, 4)])):
            assert g.structure == classify(g)
            assert g.structure is g.structure

    def test_adjacency_is_read_only_and_equals_build_matrix(self):
        # so is each kept matrix of Graph.matrix, the adjacency among them;
        # an edgeless graph has no normalized matrix
        for g in (petersen(), star(5), complete(1), Graph.from_edges(3, [])):
            assert g.matrix(GraphMatrixKind.ADJACENCY) is g.adjacency
            for kind in filter(lambda kind: _has_matrix(g, kind), GraphMatrixKind):
                a = g.matrix(kind)
                assert a is g.matrix(kind) and not a.flags.writeable
                assert a.dtype == np.float64 and a.shape == (g.n, g.n)
                assert a.tobytes() == build_matrix(g, kind).tobytes()
                with pytest.raises(ValueError):
                    a[0, 0] = 1.0

    def test_adjacency_equals_a_fill_from_the_edge_set(self):
        # the matrix is unpacked from the bitmask rows, n // 8 + 1 bytes
        # each, so the sizes straddle byte boundaries; the fill here reads
        # g.edges alone.  Each graph is edgeless, complete (below 100
        # vertices), or random with edges at vertices 1 and n
        rng = random.Random(50)
        for n in (1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 2048):
            pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(3 * n)]
            graphs = [Graph(n, frozenset()),
                      Graph.from_edges(n, [(1, n)] * (n > 1) + [(u, v) for u, v in pairs if u != v])]
            if n < 100:
                graphs.append(complete(n))
            for g in graphs:
                expected = np.zeros((n, n))
                for u, v in g.edges:
                    expected[u - 1, v - 1] = expected[v - 1, u - 1] = 1.0
                a = g.adjacency
                assert a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable
                assert a.tobytes() == expected.tobytes(), (n, len(g.edges))

    def test_build_matrix_returns_fresh_writable_arrays(self):
        g = cycle(5)
        before = g.adjacency.copy()
        for kind in GraphMatrixKind:
            built = build_matrix(g, kind)
            assert built.flags.writeable and built is not g.adjacency
            built[:] = 7.0
        assert np.array_equal(g.adjacency, before)
        assert np.array_equal(build_matrix(g, GraphMatrixKind.ADJACENCY), before)

    def test_cached_facts_leave_equality_and_hash_alone(self):
        read, fresh = cycle(6), cycle(6)
        read.structure, read.common_neighbor_table, read.adjacency_spectrum, read.randic_index
        [read.matrix(kind) for kind in GraphMatrixKind]
        assert read == fresh and hash(read) == hash(fresh)
        assert read != cycle(5)


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
