import numpy as np
import pytest
from conftest import forests, graphs
from hypothesis import given, settings
from oracles import oracle_components

from twoswitch.graphs import (
    Graph,
    GraphFormatError,
    bipartition,
    components,
    degree_sequence,
    depth_first,
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

    def test_rejects_bad_edges(self):
        with pytest.raises(GraphFormatError):
            Graph(3, [(1, 1)])
        with pytest.raises(GraphFormatError):
            Graph(3, [(1, 4)])
        with pytest.raises(GraphFormatError):
            Graph(2, [(0, 1)])

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


class TestDepthFirst:
    """``depth_first`` is the one traversal behind every connectivity
    answer, so its invariants and every answer built on it are checked
    against the union-find oracle and, when installed, networkx."""

    @staticmethod
    def _check_traversal(g):
        parent, order = depth_first(g.adjacency())
        assert sorted(order) == list(g.vertices())
        tin = {v: i for i, v in enumerate(order)}
        below = {v: {v} for v in g.vertices()}
        for v in order:
            p = parent[v]
            if p:
                assert (min(p, v), max(p, v)) in g.edges
                assert tin[p] < tin[v]
            x = p
            while x:
                below[x].add(v)
                x = parent[x]
        # every subtree is one contiguous run of the preorder, and the
        # root of every component is its lowest label
        for v in g.vertices():
            assert set(order[tin[v] : tin[v] + len(below[v])]) == below[v]
        roots = [v for v in order if not parent[v]]
        assert [min(c) for c in components(g)] == roots
        for r in roots:
            assert min(below[r]) == r
        # without its isolated vertices, as the forest route's working
        # copies hold it, the mapping gives the same links and order
        sub = {v: ns for v, ns in g.adjacency().items() if ns}
        sub_parent, sub_order = depth_first(sub)
        assert sub_order == [v for v in order if v in sub]
        assert sub_parent == parent[: len(sub_parent)]
        return parent, roots

    @given(graphs(max_n=9))
    @settings(max_examples=200)
    def test_invariants_on_graphs(self, g):
        parent, roots = self._check_traversal(g)
        assert kappa(g) == len(roots) == oracle_components(g)
        assert sorted(v for c in components(g) for v in c) == list(g.vertices())

    @given(forests(max_n=12))
    @settings(max_examples=200)
    def test_invariants_on_forests(self, f):
        parent, roots = self._check_traversal(f)
        # on a forest the parent links are exactly the edges
        links = {(min(v, parent[v]), max(v, parent[v])) for v in f.vertices() if parent[v]}
        assert links == f.edges
        assert kappa(f) == len(roots) == oracle_components(f)

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
