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


def _path(n):
    return Graph(n, [(v, v + 1) for v in range(1, n)])


def _cycle(n):
    return Graph(n, [(v, v % n + 1) for v in range(1, n + 1)])


def _random_forest(rng, n, join=0.85):
    """Random recursive forest on shuffled labels: each vertex joins an
    earlier one with probability ``join``, so 1.0 gives a tree."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = [
        (labels[i], labels[rng.randrange(i)])
        for i in range(1, n)
        if rng.random() < join
    ]
    return Graph(n, edges)


def _disjoint_cliques(count, size):
    return Graph(
        count * size,
        [
            (b + u, b + v)
            for b in range(0, count * size, size)
            for u in range(1, size)
            for v in range(u + 1, size + 1)
        ],
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
    """The subset searches read their memo through an argument, never a
    closure, and the recursive searches reach themselves through the
    module; none may leave a reference cycle, and with it the memo, to
    the cycle collector."""

    @pytest.mark.parametrize(
        "kind",
        ["matching", "independence", "domination", "clique", "chromatic"],
        ids=lambda kind: f"{kind}_number",
    )
    def test_no_cycle_left(self, kind):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4)])
        gc.collect()
        gc.disable()
        try:
            GENERAL[kind](g)
            assert gc.collect() == 0
        finally:
            gc.enable()


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
