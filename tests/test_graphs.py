import random
import re

import numpy as np
import pytest
from conftest import forests, graphs
from hypothesis import given, settings
from oracles import oracle_bfs_parts, oracle_components

from twoswitch.census import census
from twoswitch.graphs import (
    Graph,
    GraphFormatError,
    _parity_classes,
    bipartition,
    components,
    degree_sequence,
    format_edge_list,
    is_bipartite,
    is_forest,
    is_graphical,
    is_tree,
    is_unicyclic,
    kappa,
    parse_edge_list,
    to_dot,
)

TRIANGLE = Graph(3, [(1, 2), (1, 3), (2, 3)])


class TestGraphBasics:
    def test_normalizes_and_deduplicates(self):
        g = Graph(3, [(2, 1), (1, 2), (3, 1)])
        assert g.sorted_edges() == [(1, 2), (1, 3)]
        assert (2, 1) in g
        assert (2, 3) not in g
        assert (2, 2) not in g  # a loop is absent, not malformed
        assert ("a", "b") not in g

    @pytest.mark.parametrize(
        "n,edges",
        [
            (True, []),
            (False, []),
            (3.0, []),
            ("3", []),
            (np.True_, []),
            (3, [(1.5, 3)]),
            (3, [(1, 3.0)]),
            (3, [(True, 3)]),
            (3, [(2, np.True_)]),
            (3, [(np.float64(1), 2)]),
            (3, [("1", 2)]),
        ],
    )
    def test_rejects_non_integer_order_and_endpoints(self, n, edges):
        with pytest.raises(GraphFormatError, match="must be an integer"):
            Graph(n, edges)

    def test_numpy_integers_are_labels(self):
        g = Graph(np.int64(3), [(np.int64(1), np.uint8(3)), (np.int32(2), 1)])
        assert g == Graph(3, [(1, 3), (1, 2)])
        assert type(g.n) is int
        assert all(type(x) is int for e in g.edges for x in e)

    def test_numpy_edge_arrays_are_labels(self):
        # rows of an integer array, reversed and repeated, next to plain ints
        rows = np.array([[3, 1], [1, 3], [4, 2]], dtype=np.int64)
        g = Graph(4, [*rows, (2, 3)])
        assert g.sorted_edges() == [(1, 3), (2, 3), (2, 4)]
        assert all(type(x) is int for e in g.edges for x in e)
        assert hash(g) == hash(Graph(4, [(1, 3), (2, 3), (2, 4)]))

    def test_normal_edge_tuples_are_shared(self):
        # a switched graph keeps its parent's edge tuples, so a search
        # holding many such graphs stores each edge once
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        h = g.with_edges(added=[(1, 4), (2, 5)], removed=[(1, 2), (4, 5)])
        kept = {e: e for e in g.edges}
        assert [e for e in h.edges if e in kept and kept[e] is not e] == []
        # anything else is rebuilt as a tuple of plain ints in order
        for edge in ([1, 2], (2, 1), (np.int64(1), 2)):
            (stored,) = Graph(2, [edge]).edges
            assert type(stored) is tuple and stored == (1, 2)
            assert stored is not edge and all(type(x) is int for x in stored)

    @pytest.mark.parametrize(
        "n,edges,message",
        [
            (-1, [], "order must be non-negative, got -1"),
            (np.int64(-2), [], "order must be non-negative, got -2"),
            (True, [], "order must be an integer, got True"),
            ("3", [], "order must be an integer, got '3'"),
            (3, [(True, 3)], "edge endpoint must be an integer, got True"),
            (3, [(1, 2.5)], "edge endpoint must be an integer, got 2.5"),
            (3, [("1", 2)], "edge endpoint must be an integer, got '1'"),
            (3, [(1, 1)], "loop edge 1-1 not allowed"),
            (3, [(1, 2), (2, 2)], "loop edge 2-2 not allowed"),
            (3, [(np.int64(3), 3)], "loop edge 3-3 not allowed"),
            (3, [(1, 4)], "edge 1-4 out of range for order 3"),
            (3, [(4, 1)], "edge 1-4 out of range for order 3"),
            (2, [(0, 1)], "edge 0-1 out of range for order 2"),
            (2, [(2, -1)], "edge -1-2 out of range for order 2"),
            (0, [(1, 2)], "edge 1-2 out of range for order 0"),
        ],
    )
    def test_refusals_keep_their_messages(self, n, edges, message):
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            Graph(n, edges)

    @pytest.mark.parametrize(
        "edge,message",
        [
            ((1, 2, 3), "edge must be a pair of endpoints, got (1, 2, 3)"),
            ((1,), "edge must be a pair of endpoints, got (1,)"),
            (1, "edge must be a pair of endpoints, got 1"),
            ((), "edge must be a pair of endpoints, got ()"),
            (None, "edge must be a pair of endpoints, got None"),
        ],
    )
    def test_an_edge_that_is_not_a_pair_is_named(self, edge, message):
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            Graph(3, [(1, 2), edge])

    def test_with_edges(self):
        g = Graph(4, [(1, 2), (3, 4)])
        h = g.with_edges(added=[(1, 3)], removed=[(3, 4)])
        assert h.sorted_edges() == [(1, 2), (1, 3)]
        assert g.sorted_edges() == [(1, 2), (3, 4)]  # unchanged

    def test_equality_and_hash(self):
        a = Graph(3, [(1, 2)])
        b = Graph(3, [(2, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(4, [(1, 2)])

    def test_adjacency_sorted(self):
        g = Graph(4, [(2, 4), (1, 2), (2, 3)])
        assert g.neighbors(2) == (1, 3, 4)
        assert g.degree(2) == 3 and g.degree(1) == 1


class TestDegreeSequence:
    def test_bundled_tree(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        assert degree_sequence(g0) == (3, 2, 2, 2, 1, 1, 1)

    def test_empty(self):
        assert degree_sequence(Graph(3)) == (0, 0, 0)

    def test_eleven_vertex_pair_sorted(self, fig2_graphs):
        for g in fig2_graphs:
            assert tuple(sorted(degree_sequence(g), reverse=True)) == (
                6, 5, 4, 4, 3, 3, 3, 2, 2, 2, 2,
            )

    @given(graphs(max_n=7))
    def test_sum_even(self, g):
        assert sum(degree_sequence(g)) % 2 == 0


class TestGraphical:
    def test_known_cases(self):
        assert is_graphical((3, 2, 2, 2, 1, 1, 1))
        assert is_graphical((0, 0))
        assert not is_graphical((3, 1))
        assert not is_graphical((1,))  # odd sum
        assert is_graphical(())

    def test_matches_enumeration_small(self):
        # a sequence is graphical exactly when something realizes it
        from itertools import product

        from twoswitch.explorer import enumerate_family

        for n in range(5):
            for seq in product(range(n), repeat=n):
                any_graph = next(enumerate_family(seq), None) is not None
                assert is_graphical(seq) == any_graph, seq


class TestComponents:
    def test_bundled_values(self, fig1_graphs):
        g0, g1, _ = fig1_graphs
        assert kappa(g0) == 1
        # g1 keeps edge 1-4, so {1,2,3,4,7} and {5,6} are its components
        assert kappa(g1) == 2
        assert kappa(Graph(4)) == 4

    def test_component_contents(self):
        g = Graph(5, [(1, 2), (4, 5)])
        assert components(g) == [[1, 2], [3], [4, 5]]

    @given(graphs(max_n=8))
    def test_matches_union_find(self, g):
        assert kappa(g) == oracle_components(g)

    @pytest.mark.parametrize("odd_stops", [False, True])
    def test_pass_stops_once_one_class_is_left(self, odd_stops):
        # the path 1..6 joins every vertex at its fifth edge; the three
        # chords after it close even cycles, so only a count that needs
        # no colouring may stop there
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 4), (3, 6), (1, 6)]
        consumed = []

        def fed():
            for edge in edges:
                consumed.append(edge)
                yield edge

        count, _, _ = _parity_classes(6, fed(), odd_stops)
        assert count == 1
        assert consumed == (edges if odd_stops else edges[:5])


def _census_graphs(max_n):
    """Every labelled graph of order at most ``max_n``, by census mask."""
    for n in range(max_n + 1):
        cen = census(n)
        for mask in range(cen.n_masks):
            yield cen.graph(mask)


def _seeded_graphs():
    """Seeded G(n, m) up to n = 300, sparse to dense, then bipartite
    graphs on a random split, each with and without one edge inside a
    side, which may close an odd cycle."""
    rng = random.Random(2027)
    pairs = [(u, v) for u in range(1, 301) for v in range(u + 1, 301)]
    for n in (2, 5, 10, 30, 100, 300):
        slots = [(u, v) for u, v in pairs if v <= n]
        for m in sorted({0, 1, n // 2, n - 1, n, 2 * n, len(slots) // 3}):
            if m <= len(slots):
                yield Graph(n, rng.sample(slots, m))
        left = set(rng.sample(range(1, n + 1), n // 2))
        across = [(u, v) for u, v in slots if (u in left) != (v in left)]
        inside = [(u, v) for u, v in slots if (u in left) == (v in left)]
        for m in (n // 2, n, 3 * n):
            edges = rng.sample(across, min(m, len(across)))
            yield Graph(n, edges)
            if inside:
                yield Graph(n, [*edges, rng.choice(inside)])


class TestUnionFind:
    """Connectivity comes from one union-find pass: ``kappa`` and
    ``is_bipartite`` read its count, ``components`` and ``bipartition``
    its roots and colours.  They are checked against the breadth-first
    reference and, when installed, networkx."""

    def test_every_graph_to_order_six(self):
        checked = 0
        for g in _census_graphs(6):
            comps, parts = oracle_bfs_parts(g)
            assert components(g) == comps, g
            assert bipartition(g) == parts, g
            assert kappa(g) == len(comps), g
            assert is_bipartite(g) == (parts is not None), g
            checked += 1
        assert checked == sum(2 ** (n * (n - 1) // 2) for n in range(7))

    def test_seeded_graphs_to_order_300(self):
        verdicts = set()
        for g in _seeded_graphs():
            comps, parts = oracle_bfs_parts(g)
            assert components(g) == comps and bipartition(g) == parts
            assert kappa(g) == len(comps) == oracle_components(g)
            assert is_bipartite(g) == (parts is not None)
            verdicts.add(is_bipartite(g))
        assert verdicts == {True, False}

    def test_seeded_graphs_match_networkx(self):
        nx = pytest.importorskip("networkx")
        for g in _seeded_graphs():
            h = nx.Graph()
            h.add_nodes_from(g.vertices())
            h.add_edges_from(g.edges)
            assert kappa(g) == nx.number_connected_components(h)
            assert is_bipartite(g) == nx.is_bipartite(h)

    @given(graphs(max_n=9))
    @settings(max_examples=200)
    def test_matches_networkx_on_graphs(self, g):
        nx = pytest.importorskip("networkx")
        h = nx.Graph()
        h.add_nodes_from(g.vertices())
        h.add_edges_from(g.edges)
        want = sorted(sorted(c) for c in nx.connected_components(h))
        assert components(g) == want
        assert kappa(g) == nx.number_connected_components(h)
        if g.n:  # networkx calls the empty graph's forestness pointless
            assert is_forest(g) == nx.is_forest(h)
        parts = bipartition(g)
        assert (parts is not None) == nx.is_bipartite(h)
        if parts is not None:
            assert all(min(c) in parts[0] for c in want)

    def test_deep_path_and_odd_cycle(self):
        # a 5000-vertex path, its labels shuffled, closed into an odd cycle
        labels = list(range(1, 5001))
        random.Random(5).shuffle(labels)
        path = Graph(5000, list(zip(labels, labels[1:])))
        assert (kappa(path), is_bipartite(path)) == (1, True)
        cycle = path.with_edges(added=[(labels[0], labels[-2])])
        assert (kappa(cycle), is_bipartite(cycle)) == (1, False)
        assert bipartition(cycle) is None
        for g in (path, cycle):
            assert (components(g), bipartition(g)) == oracle_bfs_parts(g)


class TestShapePredicates:
    def test_bundled_flags(self, fig1_graphs):
        g0, g1, _ = fig1_graphs
        assert (is_forest(g0), is_tree(g0), is_unicyclic(g0)) == (True, True, False)
        assert (is_forest(g1), is_tree(g1)) == (False, False)
        assert is_unicyclic(TRIANGLE)
        # triangle plus pendant is still unicyclic; two triangles are not
        assert is_unicyclic(Graph(4, [(1, 2), (2, 3), (1, 3), (1, 4)]))
        two_cycles = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        assert not is_unicyclic(two_cycles)

    @given(forests(max_n=9))
    def test_forest_edge_count(self, f):
        assert is_forest(f)
        assert f.size == f.n - kappa(f)


class TestBipartition:
    def test_eleven_vertex_pair(self, fig2_graphs):
        g0, g1 = fig2_graphs
        (a0, b0), (a1, b1) = bipartition(g0), bipartition(g1)
        assert {1, 3} <= a0 or {1, 3} <= b0
        assert (3 in a0) != (4 in a0)
        assert {3, 4} <= a1 or {3, 4} <= b1

    def test_odd_cycle(self):
        assert bipartition(TRIANGLE) is None
        assert not is_bipartite(TRIANGLE)

    @given(graphs(max_n=8))
    def test_parts_are_legal(self, g):
        parts = bipartition(g)
        if parts is None:
            # some odd closed walk exists; a triangle-free check is enough
            # to exercise both branches without re-deriving odd cycles
            return
        part_a, part_b = parts
        assert isinstance(part_a, frozenset) and isinstance(part_b, frozenset)
        assert part_a | part_b == set(g.vertices())
        assert not part_a & part_b
        for u, v in g.edges:
            assert (u in part_a) != (v in part_a)

    @given(forests(max_n=9))
    def test_forests_always_bipartite(self, f):
        assert is_bipartite(f)


class TestEdgeListFormat:
    def test_round_trip(self, fig1_graphs):
        for g in fig1_graphs:
            assert parse_edge_list(format_edge_list(g)) == g

    @given(graphs(max_n=9))
    def test_round_trip_random(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    def test_exact_text(self):
        g = Graph(3, [(2, 3), (1, 2)])
        assert format_edge_list(g) == "n 3\n1 2\n2 3\n"

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a remark\nn 3\n\n1 2\n# another\n2 3\n")
        assert g.sorted_edges() == [(1, 2), (2, 3)]

    @pytest.mark.parametrize(
        "text",
        [
            "",  # no header
            "n x\n",  # bad order
            "n 3\n1\n",  # not a pair
            "n 3\n1 1\n",  # loop
            "n 3\n1 4\n",  # out of range
            "n 3\n1 2\n1 2\n",  # duplicate
            "1 2\nn 3\n",  # header not first
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(GraphFormatError):
            parse_edge_list(text)

    def test_duplicate_on_the_last_line_of_a_long_file(self):
        # 20,000 path edges, then the first one again on line 20,002
        n = 20001
        lines = [f"n {n}"] + [f"{v} {v + 1}" for v in range(1, n)] + ["1 2"]
        with pytest.raises(GraphFormatError, match="^line 20002: duplicate edge 1 2$"):
            parse_edge_list("\n".join(lines) + "\n")


def test_dot_output():
    g = Graph(3, [(1, 2)])
    dot = to_dot(g, name="demo")
    assert dot.startswith("graph demo {")
    assert "  1 -- 2;" in dot
    assert "  3;" in dot  # isolated vertices still drawn
    assert dot.rstrip().endswith("}")
