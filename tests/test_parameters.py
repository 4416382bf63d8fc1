import gc
import itertools
import random
import re
import time

import numpy as np
import pytest
from conftest import forests, graphs
from hypothesis import given, settings
from oracles import (
    FOREST_ORACLES,
    ORACLES,
    oracle_domination_memo,
    oracle_edge_cover,
    oracle_matching_memo,
    oracle_path_cover_partition,
    oracle_rank,
    oracle_vertex_cover,
)

import twoswitch
from twoswitch import parameters
from twoswitch.census import UNDEFINED, census
from twoswitch.graphs import (
    CapExceededError,
    Graph,
    GraphError,
    components,
    degree_sequence,
    is_forest,
)
from twoswitch.parameters import (
    STABLE_KINDS,
    IsolatedVertexError,
    adjacency_rank,
    compute,
)

K4 = Graph(4, [(u, v) for u in range(1, 4) for v in range(u + 1, 5)])
PM4 = Graph(4, [(1, 2), (3, 4)])
PM6 = Graph(6, [(1, 2), (3, 4), (5, 6)])
STAR5 = Graph(5, [(1, v) for v in range(2, 6)])
P5 = Graph(5, [(v, v + 1) for v in range(1, 5)])

# The general algorithms, which ``compute`` skips on forests; tests that
# exercise them on forests call them here.  ``GENERAL_ROUTE`` adds the two
# covers as ``compute`` takes them off a non-forest, by Gallai's identities.
GENERAL = parameters._GENERAL
GENERAL_ROUTE = {
    **GENERAL,
    "vertex_cover": lambda g: g.n - GENERAL["independence"](g),
    "edge_cover": lambda g: g.n - GENERAL["matching"](g),
}


class TestBundledValues:
    """Expected numbers below were frozen from the subset-scan oracles."""

    def test_spider_tree(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        assert {kind: general(g0) for kind, general in GENERAL_ROUTE.items()} == {
            "matching": 3,
            "independence": 4,
            "vertex_cover": 3,
            "domination": 3,
            "path_cover": 2,
            "edge_cover": 4,  # 7 - 3
            "chromatic": 2,
            "clique": 2,
        }
        assert adjacency_rank(g0) == 6

    def test_unicyclic_intermediate(self, fig1_graphs):
        _, g1, _ = fig1_graphs
        assert GENERAL["chromatic"](g1) == 3
        assert GENERAL["clique"](g1) == 3
        assert compute("components", g1) == 2

    def test_small_named_graphs(self):
        assert GENERAL["independence"](K4) == 1
        assert GENERAL_ROUTE["vertex_cover"](K4) == 3
        assert GENERAL["domination"](STAR5) == 1
        assert GENERAL["path_cover"](P5) == 1
        assert GENERAL_ROUTE["edge_cover"](PM4) == 2
        assert adjacency_rank(PM6) == 6

    def test_empty_graphs(self):
        assert GENERAL["matching"](Graph(0)) == 0
        assert degree_sequence(Graph(5)) == (0,) * 5
        assert GENERAL["independence"](Graph(5)) == 5
        assert GENERAL_ROUTE["vertex_cover"](Graph(5)) == 0
        assert GENERAL["domination"](Graph(3)) == 3
        assert GENERAL["path_cover"](Graph(4)) == 4
        assert GENERAL["chromatic"](Graph(2)) == 1
        assert GENERAL["clique"](Graph(2)) == 1
        assert GENERAL["chromatic"](Graph(0)) == 0
        assert adjacency_rank(Graph(3)) == 0

    def test_isolated_vertex_guard(self):
        # the guard is ``compute``'s, on forests and non-forests alike
        for g, v in ((Graph(3, [(1, 2)]), 3), (Graph(4, [(2, 3), (2, 4), (3, 4)]), 1)):
            with pytest.raises(IsolatedVertexError, match=f"vertex {v} has degree 0"):
                compute("edge_cover", g)
        assert compute("edge_cover", Graph(0)) == 0

    def test_compute_dispatch(self, fig1_graphs):
        g0, g1, _ = fig1_graphs
        assert compute("components", g1) == 2
        assert compute("matching", Graph(0)) == 0
        assert compute("domination", g0) == 3
        with pytest.raises(GraphError, match="unknown parameter kind 'girth'"):
            compute("girth", g0)

    @pytest.mark.parametrize(
        "kind", [["matching"], None, 3, b"matching"], ids=["list", "None", "int", "bytes"]
    )
    def test_a_kind_that_is_not_a_string_is_named(self, kind):
        with pytest.raises(GraphError, match=re.escape(f"unknown parameter kind {kind!r}")):
            compute(kind, P5)


def all_graphs_upto(max_n):
    for n in range(max_n + 1):
        slots = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
        for r in range(len(slots) + 1):
            for combo in itertools.combinations(slots, r):
                yield Graph(n, combo)


class TestAgainstOracles:
    @pytest.mark.parametrize("kind", STABLE_KINDS)
    def test_exhaustive_small(self, kind):
        for g in all_graphs_upto(4):
            if kind == "edge_cover" and any(d == 0 for d in degree_sequence(g)):
                continue
            assert compute(kind, g) == ORACLES[kind](g), g.sorted_edges()

    @pytest.mark.parametrize("kind", STABLE_KINDS)
    @given(g=graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_sampled_medium(self, kind, g):
        if kind == "edge_cover" and any(d == 0 for d in degree_sequence(g)):
            return
        assert compute(kind, g) == ORACLES[kind](g)

    @given(graphs(max_n=7, min_n=1))
    @settings(max_examples=60, deadline=None)
    def test_complement_identities(self, g):
        # both cover numbers are defined by Gallai's identities; check the
        # identities against brute force on the general algorithms, and
        # what ``compute`` returns, which takes forests the forest route
        assert GENERAL_ROUTE["vertex_cover"](g) == oracle_vertex_cover(g)
        assert compute("vertex_cover", g) == oracle_vertex_cover(g)
        if all(d > 0 for d in degree_sequence(g)):
            assert GENERAL_ROUTE["edge_cover"](g) == oracle_edge_cover(g)
            assert compute("edge_cover", g) == oracle_edge_cover(g)


class TestForestRoutines:
    """The forest route of ``compute`` must agree with the general
    algorithms."""

    ROUTED = GENERAL_ROUTE

    def _agrees_with_general(self, f):
        for kind, general in self.ROUTED.items():
            if kind == "edge_cover" and any(d == 0 for d in degree_sequence(f)):
                with pytest.raises(IsolatedVertexError):
                    compute(kind, f)
                continue
            assert compute(kind, f) == general(f), (kind, f)

    def test_exhaustive_forests(self):
        from twoswitch.explorer import enumerate_forests

        for n in range(7):
            for edges in enumerate_forests(n):
                self._agrees_with_general(Graph(n, edges))

    @given(forests(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_random_larger_forests(self, f):
        self._agrees_with_general(f)

    def test_order_seven_census(self):
        cen = census(7)
        checked = 0
        for mask in map(int, np.flatnonzero(cen.forest)):
            f = cen.graph(mask)
            for kind in self.ROUTED:
                want = int(cen.tables[kind][mask])
                if want == UNDEFINED:
                    with pytest.raises(IsolatedVertexError):
                        compute(kind, f)
                else:
                    assert compute(kind, f) == want, (kind, mask)
                checked += 1
        assert checked == 36961 * len(self.ROUTED)

    @pytest.mark.parametrize("n", [50, 100, 200, 300])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("join", [0.85, 1.0])
    def test_seeded_forests_match_the_tree_dps(self, n, seed, join):
        f = _random_forest(random.Random(1000 * n + seed), n, join)
        for kind, oracle in FOREST_ORACLES.items():
            try:
                want = oracle(f)
            except ValueError:
                with pytest.raises(IsolatedVertexError):
                    compute(kind, f)
                continue
            assert compute(kind, f) == want, kind
        assert compute("chromatic", f) == (2 if f.edges else 1)

    def test_every_kind_on_a_sixty_vertex_tree(self):
        # the subset-search kinds refuse this order: each is capped at 20 vertices
        t = _random_forest(random.Random(60), 60, 1.0)
        values = {kind: compute(kind, t) for kind in STABLE_KINDS}
        expected = {kind: oracle(t) for kind, oracle in FOREST_ORACLES.items()}
        assert values == {**expected, "chromatic": 2, "clique": 2, "components": 1}


class TestLeafPeeling:
    """The forest passes take their leaves-up order from
    ``parameters._leaves_up``; each must equal its rooted dynamic program
    in ``tests/oracles.py``."""

    PASSES = {
        "matching": parameters._forest_matching,
        "domination": parameters._dominating,
        "path_cover": lambda f: f.n - parameters._capped_links(f, 2),
    }

    def _agrees_with_the_tree_dps(self, f):
        for kind, run in self.PASSES.items():
            assert run(f) == FOREST_ORACLES[kind](f), (kind, f)

    def test_every_forest_to_order_seven(self):
        from twoswitch.explorer import enumerate_forests

        checked = 0
        for n in range(8):
            for edges in enumerate_forests(n):
                self._agrees_with_the_tree_dps(Graph(n, edges))
                checked += 1
        assert checked == 1 + 1 + 2 + 7 + 38 + 291 + 2932 + 36961

    @pytest.mark.parametrize("n", [10, 100, 700, 2000])
    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_forests_with_isolated_vertices(self, n, seed):
        rng = random.Random(7 * n + seed)
        f = _random_forest(rng, n, 0.9, isolated=n // 10)
        assert any(f.degree(v) == 0 for v in f.vertices())
        self._agrees_with_the_tree_dps(f)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_two_thousand_vertex_path(self, shuffled):
        labels = list(range(1, 2001))
        if shuffled:
            random.Random(2000).shuffle(labels)
        path = Graph(2000, list(zip(labels, labels[1:])))
        self._agrees_with_the_tree_dps(path)
        assert [run(path) for run in self.PASSES.values()] == [1000, 667, 1]

    @given(forests(max_n=12))
    @settings(max_examples=100)
    def test_order_lists_children_before_parents(self, f):
        parent, order = parameters._leaves_up(f)
        assert sorted(order) == list(f.vertices())
        position = {v: i for i, v in enumerate(order)}
        links = set()
        for v in f.vertices():
            if parent[v]:
                assert position[v] < position[parent[v]]
                links.add((min(v, parent[v]), max(v, parent[v])))
        assert links == f.edges
        assert sum(1 for v in f.vertices() if not parent[v]) == f.n - f.size

    def test_no_forest_kind_builds_adjacency_lists(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("adjacency lists built")

        t = _random_forest(random.Random(9), 40, 1.0)
        expected = {kind: oracle(t) for kind, oracle in FOREST_ORACLES.items()}
        monkeypatch.setattr(Graph, "adjacency", refuse)
        assert {kind: compute(kind, t) for kind in STABLE_KINDS} == {
            **expected,
            "chromatic": 2,
            "clique": 2,
            "components": 1,
        }


def _path(n):
    return Graph(n, [(v, v + 1) for v in range(1, n)])


def _cycle(n):
    return Graph(n, [(v, v % n + 1) for v in range(1, n + 1)])


def _random_forest(rng, n, join=0.85, isolated=0):
    """Random recursive forest on shuffled labels: each vertex joins an
    earlier one with probability ``join``, so 1.0 gives a tree, except
    the first ``isolated`` labels, which keep no edge."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = [
        (labels[i], labels[rng.randrange(isolated, i)])
        for i in range(isolated + 1, n)
        if rng.random() < join
    ]
    return Graph(n, edges)


def _clique_edges(size, offset=0):
    return [(offset + u, offset + v) for u in range(1, size) for v in range(u + 1, size + 1)]


def _disjoint_cliques(count, size):
    return Graph(
        count * size, [e for b in range(0, count * size, size) for e in _clique_edges(size, b)]
    )


class TestPathCoverLargeOrders:
    """The general DP where the brute-force oracle cannot reach."""

    @pytest.mark.parametrize("n,seed", [(16, 0), (16, 1), (16, 2), (20, 0), (20, 1)])
    def test_random_forests_match_the_tree_dp(self, n, seed):
        f = _random_forest(random.Random(seed), n)
        assert GENERAL["path_cover"](f) == FOREST_ORACLES["path_cover"](f)
        assert GENERAL["path_cover"](f) == compute("path_cover", f)

    @pytest.mark.parametrize(
        "g,expected",
        [
            (Graph(20), 20),
            (_path(20), 1),
            (Graph(20, [(1, v) for v in range(2, 21)]), 18),  # K1,19
            (Graph(20, [(v, v + 1) for v in range(1, 20, 2)]), 10),  # 10K2
            (_disjoint_cliques(2, 10), 2),
        ],
        ids=["empty", "P20", "K1,19", "10K2", "2K10"],
    )
    def test_closed_forms_at_twenty(self, g, expected):
        assert GENERAL["path_cover"](g) == expected

    @given(graphs(max_n=11, max_edges=12))
    @settings(max_examples=40, deadline=None)
    def test_sparse_graphs_match_the_partition_dp(self, g):
        assert GENERAL["path_cover"](g) == oracle_path_cover_partition(g)


def _certified(g):
    """Each component of ``g`` with the path the bounded search certifies
    in it, or None, in 1-based labels."""
    adj = parameters._adj_masks(g)
    out = []
    for comp in components(g):
        path = parameters._hamiltonian_path(adj, [v - 1 for v in comp])
        out.append((comp, None if path is None else [v + 1 for v in path]))
    return out


def _subdivided_claw_with_chord(offset):
    """K1,3 with each edge subdivided and a chord between two of the
    subdivision vertices: a triangle and three leaves, so no spanning
    path and path cover 2."""
    c, a1, a2, a3, b1, b2, b3 = range(offset + 1, offset + 8)
    return [(c, a1), (c, a2), (c, a3), (a1, b1), (a2, b2), (a3, b3), (a1, a2)]


def _complete_bipartite(a, b, offset=0):
    return [(offset + u, offset + a + w) for u in range(1, a + 1) for w in range(1, b + 1)]


class TestPathCoverCertificates:
    """Path cover certifies each component by a bounded search for a
    spanning path and sends only the others to the subset recurrence."""

    @pytest.mark.parametrize("n", range(8, 15))
    @pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_seeded_graphs_match_the_recurrence_and_partition_dp(self, n, density):
        slots = n * (n - 1) // 2
        g = _gnm(random.Random(f"path cover {n} {density}"), n, round(density * slots))
        want = parameters._path_cover_by_subsets(parameters._adj_masks(g))
        assert GENERAL["path_cover"](g) == want
        # the O(3^n) partition DP takes about a second per denser graph at n = 14
        if n <= 12 or density == 0.1:
            assert want == oracle_path_cover_partition(g)

    @pytest.mark.parametrize("n", [8, 11, 14, 17, 20])
    @pytest.mark.parametrize("density", [0.1, 0.15, 0.2, 0.3, 0.5, 0.9])
    def test_every_certified_path_spans_its_component(self, n, density):
        slots = n * (n - 1) // 2
        g = _gnm(random.Random(f"certificate {n} {density}"), n, round(density * slots))
        for comp, path in _certified(g):
            if path is not None:
                assert sorted(path) == comp
                assert all((u, v) in g for u, v in zip(path, path[1:])), path

    # claw: a subdivided K1,3 with a chord, on 1..7; pieces: each
    # component's path cover, in the order of their lowest vertices
    MIXED = {
        "claw+K4": (11, _subdivided_claw_with_chord(0) + _clique_edges(4, 7), [2, 1]),
        "K2,4+claw+C5": (
            18,
            _complete_bipartite(2, 4)
            + _subdivided_claw_with_chord(6)
            + [(13 + v, 13 + v % 5 + 1) for v in range(1, 6)],
            [2, 2, 1],
        ),
    }

    @pytest.mark.parametrize("name", MIXED)
    def test_mixed_components_run_the_recurrence_per_component(self, monkeypatch, name):
        n, edges, pieces = self.MIXED[name]
        g = Graph(n, edges)
        assert not is_forest(g)
        certified = _certified(g)
        assert [path is not None for _, path in certified] == [p == 1 for p in pieces]
        orders = []
        recurrence = parameters._path_cover_by_subsets

        def recording(adj):
            orders.append(len(adj))
            return recurrence(adj)

        whole = recurrence(parameters._adj_masks(g))
        monkeypatch.setattr(parameters, "_path_cover_by_subsets", recording)
        assert GENERAL["path_cover"](g) == sum(pieces) == whole
        if n <= 12:  # the partition DP is O(3^n)
            assert whole == oracle_path_cover_partition(g)
        # the recurrence ran once per uncertified component, on its own vertices
        assert orders == [len(comp) for comp, path in certified if path is None]

    def test_unbalanced_complete_bipartite_at_the_cap(self):
        # K9,11 has no spanning path; the recurrence settles it at 2^20 subsets
        g = Graph(20, _complete_bipartite(9, 11))
        assert _certified(g) == [(list(range(1, 21)), None)]
        assert GENERAL["path_cover"](g) == 2


class TestSubsetCap:
    """Every subset-search kind refuses a non-forest above ``SUBSET_MAX``
    vertices; matching and edge cover, from Edmonds' blossom algorithm,
    answer any order, and forests of any order take the linear route."""

    CAPPED = ("independence", "domination", "path_cover", "vertex_cover", "chromatic", "clique")
    ON_C21 = {"matching": 10, "edge_cover": 11}
    ON_P30 = {
        "matching": 15,
        "independence": 15,
        "domination": 10,
        "path_cover": 1,
        "edge_cover": 15,
        "vertex_cover": 15,
        "chromatic": 2,
        "clique": 2,
        "components": 1,
    }

    @pytest.mark.parametrize("kind", CAPPED)
    def test_refuses_order_above_cap(self, kind):
        with pytest.raises(CapExceededError, match=f"capped at {parameters.SUBSET_MAX} "):
            GENERAL_ROUTE[kind](Graph(parameters.SUBSET_MAX + 1))

    @pytest.mark.parametrize("kind", CAPPED)
    def test_compute_refuses_large_non_forest(self, kind):
        with pytest.raises(CapExceededError):
            compute(kind, _cycle(21))

    def test_matching_of_empty_graph_above_cap(self):
        assert GENERAL["matching"](Graph(parameters.SUBSET_MAX + 1)) == 0

    def test_edge_cover_of_empty_graph_above_cap(self):
        # the domain check is ``compute``'s and comes before any route
        with pytest.raises(IsolatedVertexError):
            compute("edge_cover", Graph(parameters.SUBSET_MAX + 1))

    @pytest.mark.parametrize("kind", ON_C21)
    def test_compute_answers_large_non_forest(self, kind):
        assert compute(kind, _cycle(21)) == self.ON_C21[kind]

    @pytest.mark.parametrize("kind", STABLE_KINDS)
    def test_forest_route_is_not_capped(self, kind):
        assert compute(kind, _path(30)) == self.ON_P30[kind]


def _gnm(rng, n, m):
    slots = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    return Graph(n, rng.sample(slots, m))


class TestBlossomMatching:
    """The blossom matching against references computed apart from it:
    the census's matching table (the largest matching inside each mask),
    the memoized subset search it replaced, and networkx."""

    # Greedy takes 1-2, 3-4, 5-6 and 7-8 and leaves 9 and 10 free.  The
    # one augmenting path, 9-2=1-4=3-7=8-5=6-10, crosses the triangles
    # {1, 3, 4} and {5, 7, 8}; from either free end the search reaches
    # the exit vertex (3 or 7) as an inner vertex, so only a contracted
    # blossom lets the path leave the triangle.
    TWO_TRIANGLES = Graph(
        10,
        [(9, 2), (2, 1), (1, 3), (1, 4), (3, 4), (3, 7),
         (7, 8), (5, 7), (5, 8), (5, 6), (6, 10)],
    )

    @pytest.mark.parametrize("n", range(7))
    def test_census_table(self, n):
        cen = census(n)
        table = cen.tables["matching"]
        for mask in range(len(table)):
            assert GENERAL["matching"](cen.graph(mask)) == table[mask], mask

    @pytest.mark.parametrize("n", [12, 16, 20])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("density", ["half", "sparse"])
    def test_memo_oracle(self, n, seed, density):
        m = n * (n - 1) // 4 if density == "half" else n
        g = _gnm(random.Random(f"{n} {seed} {density}"), n, m)
        assert GENERAL["matching"](g) == oracle_matching_memo(g)

    @pytest.mark.parametrize("n", [30, 60, 100, 200])
    @pytest.mark.parametrize("seed", range(2))
    def test_networkx(self, n, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(1000 * n + seed)
        g = _gnm(rng, n, rng.choice([n // 2, n, 2 * n, n * (n - 1) // 8]))
        h = nx.Graph(sorted(g.edges))
        h.add_nodes_from(g.vertices())
        assert GENERAL["matching"](g) == len(nx.max_weight_matching(h, maxcardinality=True))

    def test_augmenting_path_through_odd_cycles(self):
        assert GENERAL["matching"](self.TWO_TRIANGLES) == 5

    # Greedy matches the centre to leaf 2, so every other leaf roots a
    # search of its own: 1998 that fail on K1,1999, and with the edge 2-3
    # one that first augments along 3-2=1-4.
    @pytest.mark.parametrize(
        "extra,expected", [([], 1), ([(2, 3)], 2)], ids=["K1,1999", "star+edge"]
    )
    def test_large_star(self, extra, expected):
        g = Graph(2000, [(1, v) for v in range(2, 2001)] + extra)
        assert GENERAL["matching"](g) == expected


class TestDominationBranchAndBound:
    """The general domination search against the memoized subset search it
    replaced, at the subset cap."""

    @pytest.mark.parametrize("density", [0.15, 0.3, 0.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_graphs_at_twenty(self, density, seed):
        g = _gnm(random.Random(f"domination {density} {seed}"), 20, round(density * 190))
        assert GENERAL["domination"](g) == oracle_domination_memo(g)

    @pytest.mark.parametrize("density", [0.15, 0.3, 0.5])
    @pytest.mark.parametrize("seed", range(10))
    def test_search_without_the_greedy_bound(self, density, seed):
        # the greedy set is often optimal already, which leaves the search
        # nothing to find; from the whole vertex set it must find it all
        g = _gnm(random.Random(f"bare {density} {seed}"), 16, round(density * 120))
        closed = [a | 1 << v for v, a in enumerate(parameters._adj_masks(g))]
        best = [g.n]
        parameters._dominate(closed, (1 << g.n) - 1, 0, best, {})
        assert best[0] == oracle_domination_memo(g)

    # a cubic graph: the generalized Petersen graph GP(10, 3)
    CUBIC = [
        e
        for i in range(10)
        for e in ((i + 1, (i + 1) % 10 + 1), (i + 1, i + 11), (i + 11, (i + 3) % 10 + 11))
    ]
    NAMED = {
        "C19": (_cycle(19), 7),  # ceil(n / 3)
        "C20": (_cycle(20), 7),
        "GP(10,3)": (Graph(20, CUBIC), None),
        "K10,10": (Graph(20, _complete_bipartite(10, 10)), 2),
        "2K10": (_disjoint_cliques(2, 10), 2),
        "4C5": (
            Graph(20, [(b + v, b + v % 5 + 1) for b in range(0, 20, 5) for v in range(1, 6)]),
            8,
        ),
    }

    @pytest.mark.parametrize("name", NAMED)
    def test_named_graphs(self, name):
        g, closed_form = self.NAMED[name]
        want = oracle_domination_memo(g)
        assert GENERAL["domination"](g) == want
        assert closed_form in (None, want)


class TestPublicNames:
    """``compute`` is the one entry point for the nine kinds."""

    PER_KIND = (
        "matching_number",
        "independence_number",
        "vertex_cover_number",
        "clique_number",
        "domination_number",
        "path_cover_number",
        "edge_cover_number",
        "chromatic_number",
    )

    def test_every_exported_name_resolves(self):
        missing = [name for name in twoswitch.__all__ if not hasattr(twoswitch, name)]
        assert missing == []

    @pytest.mark.parametrize("name", PER_KIND)
    def test_no_per_kind_function_is_public(self, name):
        assert name not in twoswitch.__all__
        assert not hasattr(twoswitch, name)
        assert not hasattr(parameters, name)


class TestForestChecks:
    TRIANGLE = Graph(3, [(1, 2), (1, 3), (2, 3)])

    def test_one_forest_check_per_compute(self, monkeypatch):
        calls = []

        def counting_is_forest(g):
            calls.append(g)
            return is_forest(g)

        monkeypatch.setattr("twoswitch.graphs.is_forest", counting_is_forest)
        for kind in STABLE_KINDS:
            for g in (P5, self.TRIANGLE):
                calls.clear()
                compute(kind, g)
                assert len(calls) <= 1, kind


class TestMemoRelease:
    """The subset searches read their memo or table through an argument,
    never a closure, and the recursive searches reach themselves through
    the module; none may leave a reference cycle, and with it the memo,
    to the cycle collector."""

    @staticmethod
    def _no_cycle_left(call, g):
        gc.collect()
        gc.disable()
        try:
            call(g)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "kind",
        ["matching", "independence", "domination", "clique", "chromatic", "path_cover"],
        ids=lambda kind: f"{kind}_number",
    )
    def test_no_cycle_left(self, kind):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4)])
        self._no_cycle_left(GENERAL[kind], g)

    # neither has a spanning path, so the subset recurrence runs: K2,4
    # has no leaves and fails the rotation search, the claw with a chord
    # fails its leaf count
    @pytest.mark.parametrize(
        "edges",
        [_complete_bipartite(2, 4), _subdivided_claw_with_chord(0)],
        ids=["K2,4", "claw"],
    )
    def test_no_cycle_left_by_the_path_cover_fallback(self, edges):
        g = Graph(max(map(max, edges)), edges)
        self._no_cycle_left(GENERAL["path_cover"], g)

    # the two recursions of the explorer follow the same convention
    def test_no_cycle_left_by_enumerate_forests(self):
        from twoswitch.explorer import enumerate_forests

        self._no_cycle_left(lambda n: sum(1 for _ in enumerate_forests(n)), 5)

    def test_no_cycle_left_by_are_isomorphic(self):
        from twoswitch.explorer import are_isomorphic
        from twoswitch.fixtures import load

        self._no_cycle_left(lambda g: are_isomorphic(g, g), load("fig1_g0"))


class TestRank:
    @given(graphs(max_n=8))
    @settings(max_examples=120, deadline=None)
    def test_matches_floating_rank(self, g):
        assert adjacency_rank(g) == oracle_rank(g)

    @given(forests(max_n=10))
    @settings(max_examples=80, deadline=None)
    def test_forest_rank_is_twice_matching(self, f):
        assert adjacency_rank(f) == 2 * compute("matching", f) == 2 * GENERAL["matching"](f)

    def test_triangle_rank(self):
        # odd cycles are full rank, showing rank != 2*matching in general
        tri = Graph(3, [(1, 2), (1, 3), (2, 3)])
        assert adjacency_rank(tri) == 3
        assert GENERAL["matching"](tri) == 1

    @pytest.mark.parametrize("n", range(40, 102))
    def test_closed_forms_at_larger_orders(self, n):
        assert adjacency_rank(_cycle(n)) == (n - 2 if n % 4 == 0 else n)
        assert adjacency_rank(_path(n)) == (n if n % 2 == 0 else n - 1)
        a = n // 3
        k_ab = Graph(n, [(u, w) for u in range(1, a + 1) for w in range(a + 1, n + 1)])
        assert adjacency_rank(k_ab) == 2

    @pytest.mark.parametrize("n", [40, 41, 64, 101])
    def test_complete_graph_has_full_rank(self, n):
        assert adjacency_rank(_disjoint_cliques(1, n)) == n

    def test_dense_random_graph_matches_floating_rank(self):
        g = _gnp(random.Random(60), 60)
        assert adjacency_rank(g) == oracle_rank(g)

    def test_entries_stay_small(self):
        # without reducing rows, entry bit-lengths roughly double per pivot
        # and this took seconds; at n = 40 it did not finish in minutes
        g = _gnp(random.Random(30), 30)
        start = time.perf_counter()
        rank = adjacency_rank(g)
        assert time.perf_counter() - start < 1.0
        assert rank == oracle_rank(g)


def _gnp(rng, n):
    """G(n, 1/2): each slot an edge with probability one half."""
    slots = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    return Graph(n, [uv for uv in slots if rng.random() < 0.5])
