import hashlib
import heapq
import json
import random

import pytest
from conftest import forests
from hypothesis import given, settings
from oracles import oracle_leaf_fixing_switch

import twoswitch.transition as transition
from twoswitch.explorer import constrained_transition_search, enumerate_forests
from twoswitch.graphs import (
    Graph,
    degree_sequence,
    is_bipartite,
    is_forest,
    kappa,
)
from twoswitch.switch import (
    ActionMatrix,
    SwitchKind,
    apply_switch,
    classify,
    is_interchangeable,
    nontrivial_matrices,
)
from twoswitch.transition import (
    DegreeSequenceMismatchError,
    SwitchTrace,
    TraceFormatError,
    TrivialStepError,
    leaf_fixing_switch,
    replay,
    trace_from_json,
    trace_to_json,
    transition_forest,
    transition_graph,
    trimmable_leaves,
    validate_trace,
)

FIG1_STEPS = (ActionMatrix(2, 5, 3, 6), ActionMatrix(2, 1, 5, 6))


class TestTrimmableLeaves:
    def test_bundled_pair(self, fig1_graphs):
        g0, _, g2 = fig1_graphs
        leaves = trimmable_leaves(g0, g2)
        assert leaves == frozenset({5, 7})
        assert 6 not in leaves  # leaf 6 hangs on 3 in one graph, on 1 in the other

    @given(forests(max_n=9))
    def test_self_pair_gives_all_leaves(self, f):
        assert trimmable_leaves(f, f) == frozenset(
            v for v in f.vertices() if f.degree(v) == 1
        )


class TestLeafFixingSwitch:
    def test_perfect_matching_case(self):
        f = Graph(4, [(1, 2), (3, 4)])
        f2 = Graph(4, [(1, 3), (2, 4)])
        m = leaf_fixing_switch(f, f2)
        assert m == ActionMatrix(1, 2, 3, 4)
        t = apply_switch(m, f)
        assert t == f2
        assert trimmable_leaves(t, f2) == frozenset({1, 2, 3, 4})

    def test_mixed_degree_case(self):
        # P2 plus a path, against a star-plus-edge mate with no leaf kept
        f = Graph(5, [(1, 2), (3, 4), (3, 5)])
        f2 = Graph(5, [(1, 3), (2, 3), (4, 5)])
        assert trimmable_leaves(f, f2) == frozenset()
        m = leaf_fixing_switch(f, f2)
        assert is_interchangeable(m, f)
        t = apply_switch(m, f)
        assert is_forest(t)
        assert trimmable_leaves(t, f2)
        assert len(t.edges & f2.edges) > len(f.edges & f2.edges)

    def test_rejects_degree_mismatch(self):
        f = Graph(4, [(1, 2), (2, 3), (3, 4)])
        star = Graph(4, [(1, 2), (2, 3), (2, 4)])
        with pytest.raises(DegreeSequenceMismatchError):
            leaf_fixing_switch(f, star)

    def test_rejects_trimmable_pair(self, fig1_graphs):
        g0, _, g2 = fig1_graphs
        with pytest.raises(Exception):
            leaf_fixing_switch(g0, g2)  # trimmable leaves exist

    def test_matches_reference_on_every_small_pair(self):
        # every ordered same-vector pair to order 6 that meets the
        # preconditions: different, no isolated vertex, no trimmable leaf
        compared = 0
        for members in _forests_by_vector(6).values():
            if 0 in degree_sequence(members[0]):
                continue
            for f in members:
                for g in members:
                    if f == g or trimmable_leaves(f, g):
                        continue
                    assert leaf_fixing_switch(f, g).labels() == oracle_leaf_fixing_switch(f, g)
                    compared += 1
        assert compared == 9528

    def test_matches_reference_on_seeded_pairs(self):
        rng = random.Random(4242)
        compared = 0
        while compared < 30:
            n = rng.randint(30, 60)
            a, b = _same_vector_pair(rng, n, rng.randint(1, 4))
            f, g = Graph(n, a), Graph(n, b)
            if trimmable_leaves(f, g):
                continue
            assert leaf_fixing_switch(f, g).labels() == oracle_leaf_fixing_switch(f, g)
            compared += 1

    # (seed, step, choice, path neighbour): at leaf fix 9 of seed 0 (n =
    # 89, 4 trees), leaf 34 (v = 41) takes u = 67, whose smallest gain-1
    # partner 33 is u's neighbour on the 34-67 path, so 65 wins
    PINNED = (0, 9, (1, 34, 41, 67, 65), 33)

    def test_matches_reference_on_working_states(self, monkeypatch):
        # every leaf fix of 20 seeded routes (n = 40..120, 1-5 trees),
        # asked of the reference on the working forests as full graphs
        states = []
        best = transition._best_leaf_fix

        def spy(adj1, adj2, *links):
            choice = best(adj1, adj2, *links)
            states.append((transition._edge_set(adj1), transition._edge_set(adj2), choice))
            return choice

        monkeypatch.setattr(transition, "_best_leaf_fix", spy)
        compared = 0
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(40, 120)
            a, b = _same_vector_pair(rng, n, rng.randint(1, 5))
            states.clear()
            transition_forest(Graph(n, a), Graph(n, b))
            for e1, e2, (_, *labels) in states:
                assert tuple(labels) == oracle_leaf_fixing_switch(Graph(n, e1), Graph(n, e2))
            compared += len(states)
            if seed == self.PINNED[0]:
                pinned = (n, *states[self.PINNED[1]])
        assert compared == 1280

        n, e1, e2, choice = pinned
        assert choice == self.PINNED[2]
        gain, leaf, v, u, w = choice
        x = self.PINNED[3]
        f, f2 = Graph(n, e1), Graph(n, e2)
        assert x < w and (u, x) in f
        assert 1 - ((u, x) in f2) + ((v, x) in f2) == gain
        assert classify(ActionMatrix(leaf, v, u, x), f) is SwitchKind.PLAIN


class TestTransitionForest:
    def test_identity_pair(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        trace = transition_forest(g0, g0)
        assert trace.steps == ()
        assert replay(trace) == [g0]

    def test_bundled_pair(self, fig1_graphs):
        g0, _, g2 = fig1_graphs
        trace = transition_forest(g0, g2)
        assert len(trace.steps) <= 1  # two new edges, so at most one switch
        assert replay(trace)[-1] == g2
        assert all(is_forest(g) for g in replay(trace))
        assert all(k in (SwitchKind.T_SWITCH, SwitchKind.F_SWITCH) for k in trace.kinds)

    def test_rejects_non_forest(self, fig1_graphs):
        g0, g1, _ = fig1_graphs
        with pytest.raises(Exception):
            transition_forest(g0, g1)

    def test_rejects_sequence_mismatch(self):
        with pytest.raises(DegreeSequenceMismatchError):
            transition_forest(
                Graph(4, [(1, 2), (2, 3), (3, 4)]),
                Graph(4, [(1, 2), (2, 3), (2, 4)]),
            )

    def test_exhaustive_tiny(self):
        # every same-vector ordered forest pair up to order 5
        pairs = 0
        for members in _forests_by_vector(5).values():
            for f in members:
                for g in members:
                    trace = transition_forest(f, g)
                    seq = replay(trace)
                    assert seq[-1] == g
                    assert all(is_forest(x) for x in seq)
                    assert trace.kinds == tuple(
                        classify(m, x) for m, x in zip(trace.steps, seq)
                    )
                    bound = max(0, len(g.edges - f.edges) - 1)
                    assert len(trace.steps) <= bound
                    assert kappa(f) == kappa(g)
                    pairs += 1
        assert pairs == 1018

    def test_randomized_with_switch_walks(self):
        rng = random.Random(1105)
        done = 0
        while done < 60:
            n = rng.randint(2, 12)
            f = _random_forest(rng, n)
            g = f
            for _ in range(rng.randint(0, 6)):
                moves = [
                    m
                    for m in nontrivial_matrices(g)
                    if classify(m, g)
                    in (SwitchKind.F_SWITCH, SwitchKind.T_SWITCH)
                ]
                if not moves:
                    break
                g = apply_switch(rng.choice(moves), g)
            trace = transition_forest(f, g)
            seq = replay(trace)
            assert seq[-1] == g
            assert all(is_forest(x) for x in seq)
            assert len(trace.steps) <= max(0, len(g.edges - f.edges) - 1)
            done += 1

    def test_two_paths_can_exceed_the_edge_difference_count(self):
        # eight-vertex paths over the same degree vector, no trimmable
        # leaves, three differing edges: no two-switch route exists, so
        # the usual |difference| - 1 count is not attainable for this pair
        f = Graph(8, [(1, 2), (2, 6), (3, 4), (3, 7), (4, 5), (5, 8), (6, 7)])
        g = Graph(8, [(1, 3), (2, 5), (2, 6), (3, 4), (4, 5), (6, 7), (7, 8)])
        assert trimmable_leaves(f, g) == frozenset()
        trace = transition_forest(f, g)
        seq = replay(trace)
        assert seq[-1] == g
        assert all(is_forest(x) for x in seq)
        assert len(trace.steps) == 3
        report = validate_trace(trace, target=g)
        assert report.ok
        assert report.bound == 2
        assert report.within_bound is False
        # independent check that two switches genuinely do not suffice
        frontier, seen = {f}, {f}
        for _ in range(2):
            nxt = set()
            for x in frontier:
                for m in nontrivial_matrices(x):
                    if classify(m, x) in (SwitchKind.F_SWITCH, SwitchKind.T_SWITCH):
                        y = apply_switch(m, x)
                        if y not in seen:
                            seen.add(y)
                            nxt.add(y)
            frontier = nxt
        assert g not in seen

    def test_construction_can_miss_a_reachable_bound(self):
        # a 14-vertex pair from a random soak, D = 7 differing edges: the
        # construction takes D switches, while the shortest all-forest route
        # takes 5, so D - 1 is reachable and the construction misses it
        f = Graph(14, [(1, 8), (1, 12), (1, 13), (2, 7), (2, 9), (3, 6), (4, 12),
                       (5, 13), (6, 9), (9, 14), (10, 11), (11, 12), (11, 14)])
        g = Graph(14, [(1, 2), (1, 7), (1, 12), (2, 9), (3, 13), (4, 14), (5, 11),
                       (6, 8), (6, 9), (9, 14), (10, 11), (11, 12), (12, 13)])
        trace = transition_forest(f, g)
        assert trace.steps == tuple(
            ActionMatrix(*s)
            for s in [(3, 6, 13, 5), (7, 2, 1, 8), (8, 2, 6, 5), (13, 1, 12, 4),
                      (1, 4, 5, 2), (1, 5, 14, 11), (1, 14, 2, 4)]
        )
        report = validate_trace(trace, g, require_forests=True)
        assert report.ok and report.length == len(g.edges - f.edges) == 7
        assert report.bound == 6 and report.within_bound is False
        witness = SwitchTrace(
            f,
            tuple(
                ActionMatrix(*s)
                for s in [(1, 8, 7, 2), (2, 8, 3, 6), (5, 13, 11, 14), (1, 13, 2, 3),
                          (4, 12, 14, 13)]
            ),
            (),
        )
        report = validate_trace(witness, g, require_forests=True)
        assert report.ok and report.forests_ok and report.length == 5

        # the forests within two switches of either end are disjoint sets,
        # so no all-forest route is shorter than the witness
        def ball(x):
            frontier, seen = {x}, {x}
            for _ in range(2):
                frontier = {
                    apply_switch(m, y)
                    for y in frontier
                    for m in nontrivial_matrices(y)
                    if classify(m, y) in (SwitchKind.F_SWITCH, SwitchKind.T_SWITCH)
                } - seen
                seen |= frontier
            return seen

        assert not ball(f) & ball(g)


class TestRouteIdentity:
    def test_seeded_routes_are_pinned(self):
        # trees and forests of 2-5 components at n = 40..117; the count
        # and digest were taken from the per-leaf path-search route
        rng = random.Random(1105)
        texts, total = [], 0
        for i in range(12):
            n = 40 + 7 * i
            k = 1 if i % 2 == 0 else 2 + (i // 2) % 4
            a, b = _same_vector_pair(rng, n, k)
            trace = transition_forest(Graph(n, a), Graph(n, b))
            texts.append(trace_to_json(trace))
            total += len(trace)
        assert total == 765
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest[:16] == "e76e85016062ad18"

    @pytest.mark.parametrize(
        "shape, n, trees, length, digest",
        [
            # three seeded trees on 1..1024
            ("forest", 1024, 3, 997, "5478e2d40267fc14c0b5b5f904a0c67c5086a14e6f8c05aba2712f64ec2f1cbb"),
            # the path 1-2-...-512 against a seeded path with the same ends,
            # where the working trees are as tall as they get
            ("path", 512, 1, 497, "43d41b1ae2415010f6dcc34b87a3961c94112d4862df4ef7b7bc82582b5b4ac7"),
        ],
    )
    def test_large_routes_are_pinned(self, shape, n, trees, length, digest):
        # taken from the route that searched the working forest for each
        # path question and replayed with a union-find per step
        rng = random.Random(n)
        if shape == "forest":
            a, b = _same_vector_pair(rng, n, trees)
        else:
            order = [1, *rng.sample(range(2, n), n - 2), n]
            a, b = [(v, v + 1) for v in range(1, n)], list(zip(order, order[1:]))
        f, g = Graph(n, a), Graph(n, b)
        assert kappa(f) == trees
        trace = transition_forest(f, g)
        assert len(trace) == length
        assert hashlib.sha256(trace_to_json(trace).encode()).hexdigest() == digest


class TestFallbackRoutes:
    # (seed, trees) of order-20 pairs from _same_vector_pair under
    # random.Random(seed) whose route leaves the leaf fixes: the first two
    # take a switch from the gaining scan (the second twice), the last four
    # end in the plateau search
    PAIRS = ((4, 1), (26, 1), (70, 2), (206, 3), (216, 1), (232, 1))

    def test_fallback_routes_are_pinned(self, monkeypatch):
        reached = {"scan": 0, "search": 0}
        scan = transition._scan_gaining_switch
        search = transition._search_completion

        def spy_scan(*args):
            m = scan(*args)
            reached["scan"] += m is not None
            return m

        def spy_search(*args):
            reached["search"] += 1
            return search(*args)

        monkeypatch.setattr(transition, "_scan_gaining_switch", spy_scan)
        monkeypatch.setattr(transition, "_search_completion", spy_search)
        texts, total = [], 0
        for seed, k in self.PAIRS:
            a, b = _same_vector_pair(random.Random(seed), 20, k)
            trace = transition_forest(Graph(20, a), Graph(20, b))
            texts.append(trace_to_json(trace))
            total += len(trace)
        assert reached == {"scan": 3, "search": 4}
        assert total == 70
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == "53c255bdc89520f73ec226b91fa72394a869ebd31d8b6b7084976d03b2e71c22"


class TestRouteVerification:
    """Each check of the closing replay catches a fault no other one does."""

    # the eight-vertex path pair of TestTransitionForest: three switches
    F = Graph(8, [(1, 2), (2, 6), (3, 4), (3, 7), (4, 5), (5, 8), (6, 7)])
    G = Graph(8, [(1, 3), (2, 5), (2, 6), (3, 4), (4, 5), (6, 7), (7, 8)])

    def _edit_route(self, monkeypatch, edit):
        steps = edit(transition._forest_steps(self.F, self.G))
        monkeypatch.setattr(transition, "_forest_steps", lambda f, g: steps)
        return steps

    def _lands_on_target(self, steps):
        g = self.F
        for m in steps:
            g = apply_switch(m, g)
        return g == self.G

    def test_unedited_route_passes(self, monkeypatch):
        steps = self._edit_route(monkeypatch, list)
        assert transition_forest(self.F, self.G).steps == tuple(steps)

    def test_cycle_closing_step_raises(self, monkeypatch):
        cyclic = next(
            m for m in nontrivial_matrices(self.F) if classify(m, self.F) is SwitchKind.PLAIN
        )
        steps = self._edit_route(monkeypatch, lambda s: [cyclic, cyclic.transpose(), *s])
        assert self._lands_on_target(steps)
        with pytest.raises(AssertionError, match="step 0 .* closes a cycle"):
            transition_forest(self.F, self.G)

    @pytest.mark.parametrize(
        "edit, index",
        [
            # the first step again: its deleted edges are gone
            (lambda s: [s[0], *s], 1),
            # on F's path 1-2-6-7 both deleted edges are there, but an
            # added one (26) is too, as the first or as the second
            (lambda s: [ActionMatrix(2, 1, 6, 7), *s], 0),
            (lambda s: [ActionMatrix(1, 2, 7, 6), *s], 0),
            # a repeated label: 12 and 26 are both there
            (lambda s: [ActionMatrix(2, 1, 2, 6), *s], 0),
        ],
    )
    def test_trivial_step_raises(self, monkeypatch, edit, index):
        steps = self._edit_route(monkeypatch, edit)
        assert self._lands_on_target(steps)  # a trivial step acts as the identity
        with pytest.raises(TrivialStepError) as exc:
            transition_forest(self.F, self.G)
        assert exc.value.index == index

    def test_dropped_last_step_raises(self, monkeypatch):
        steps = self._edit_route(monkeypatch, lambda s: s[:-1])
        replay(SwitchTrace(self.F, tuple(steps)))  # every step rewires
        with pytest.raises(AssertionError, match="target"):
            transition_forest(self.F, self.G)


class TestOneJudge:
    """Every non-empty route the package returns is the trace that
    ``validate_trace`` judged, once, with that verdict's kinds."""

    F, G = TestRouteVerification.F, TestRouteVerification.G

    @pytest.mark.parametrize(
        "route, forests",
        [
            (transition_forest, True),
            (transition_graph, False),
            (lambda f, g: constrained_transition_search(f, g, "forest").trace, True),
        ],
        ids=["forest", "graph", "search"],
    )
    def test_a_returned_route_is_judged_once(self, monkeypatch, route, forests):
        judged = []

        def spy(trace, target=None, require_forests=False):
            verdict = judge(trace, target, require_forests)
            judged.append((trace.steps, target, require_forests, verdict))
            return verdict

        judge = transition.validate_trace
        monkeypatch.setattr(transition, "validate_trace", spy)
        trace = route(self.F, self.G)
        assert len(trace) > 0
        [(steps, target, require_forests, verdict)] = judged
        assert steps == trace.steps and target == self.G
        assert require_forests is forests and verdict.ok
        assert trace.kinds == verdict.kinds


def _forests_by_vector(max_order):
    """Forests of each order up to ``max_order``, grouped by degree vector."""
    by_vector = {}
    for n in range(max_order + 1):
        for edges in enumerate_forests(n):
            f = Graph(n, edges)
            by_vector.setdefault((n, degree_sequence(f)), []).append(f)
    return by_vector


def _prufer_tree(block, code):
    degree = dict.fromkeys(block, 1)
    for x in code:
        degree[x] += 1
    leaves = [v for v in block if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _same_vector_pair(rng, n, k):
    """Two forests on 1..n with k trees of two or more vertices each and
    one degree vector.

    The first grows a random Pruefer tree on each block of a random
    partition.  The second permutes labels within each degree class and
    grows a tree on each image block from a shuffled code in which every
    vertex appears its degree minus one times.
    """
    sizes = [2] * k
    for _ in range(n - 2 * k):
        sizes[rng.randrange(k)] += 1
    order = rng.sample(range(1, n + 1), n)
    blocks, start = [], 0
    for size in sizes:
        blocks.append(order[start : start + size])
        start += size
    first = []
    for block in blocks:
        first += _prufer_tree(block, [rng.choice(block) for _ in block[2:]])
    deg = dict.fromkeys(range(1, n + 1), 0)
    for u, v in first:
        deg[u] += 1
        deg[v] += 1
    image = {}
    for d in set(deg.values()):
        members = [v for v in deg if deg[v] == d]
        image.update(zip(members, rng.sample(members, len(members))))
    second = []
    for block in blocks:
        target = [image[v] for v in block]
        code = [v for v in target for _ in range(deg[v] - 1)]
        rng.shuffle(code)
        second += _prufer_tree(target, code)
    return first, second


def _graph_replay_verdict(trace, target, require_forests):
    """``validate_trace(...).as_dict()`` as a replay on ``Graph``s gives it,
    with ``is_forest`` on every intermediate and ``classify`` for kinds."""
    graphs, kinds, first_trivial = [trace.initial], [], None
    for i, m in enumerate(trace.steps):
        kinds.append(classify(m, graphs[-1]).value)
        after = apply_switch(m, graphs[-1])
        if after is graphs[-1]:
            first_trivial = i
            break
        graphs.append(after)
    nontrivial = first_trivial is None
    final = nontrivial and (target is None or graphs[-1] == target)
    forests_ok = first_nonforest = None
    if require_forests:
        cyclic = [k for k, x in enumerate(graphs) if not is_forest(x)]
        forests_ok = not cyclic
        first_nonforest = cyclic[0] if cyclic else None
    bound = within = None
    if target is not None:
        bound = max(0, len(target.edges - trace.initial.edges) - 1)
        within = len(trace.steps) <= bound
    return {
        "ok": nontrivial and final and forests_ok is not False,
        "final_matches": final,
        "steps_nontrivial": nontrivial,
        "forests_ok": forests_ok,
        "length": len(trace.steps),
        "kinds": kinds,
        "first_trivial": first_trivial,
        "first_nonforest": first_nonforest,
        "bound": bound,
        "within_bound": within,
    }


def _random_forest(rng, n):
    slots = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    rng.shuffle(slots)
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    want = rng.randint(0, n - 1)
    for u, v in slots:
        if len(edges) >= want:
            break
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            edges.append((u, v))
    return Graph(n, edges)


class TestTransitionGraph:
    def test_identity(self, fig2_graphs):
        g0, _ = fig2_graphs
        assert transition_graph(g0, g0).steps == ()

    def test_bundled_forest_pair(self, fig1_graphs):
        g0, _, g2 = fig1_graphs
        trace = transition_graph(g0, g2)
        assert replay(trace)[-1] == g2

    def test_eleven_vertex_pair_leaves_bipartite_world(self, fig2_graphs):
        g0, g1 = fig2_graphs
        trace = transition_graph(g0, g1)
        seq = replay(trace)
        assert seq[-1] == g1
        assert any(not is_bipartite(g) for g in seq)

    def test_rejects_sequence_mismatch(self):
        with pytest.raises(DegreeSequenceMismatchError):
            transition_graph(Graph(3, [(1, 2)]), Graph(3, [(1, 2), (2, 3)]))

    def test_small_same_vector_pairs(self):
        from twoswitch.explorer import enumerate_family

        for seq in [(2, 2, 2, 2), (2, 2, 1, 1), (3, 2, 2, 2, 1), (2, 2, 2, 1, 1)]:
            members = list(enumerate_family(seq))
            for f in members:
                for g in members:
                    trace = transition_graph(f, g)
                    out = replay(trace)
                    assert out[-1] == g
                    assert all(degree_sequence(x) == seq for x in out)
                    assert trace.kinds == tuple(
                        classify(m, x) for m, x in zip(trace.steps, out)
                    )


class TestReplayAndTraces:
    def test_empty_trace(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        assert replay(SwitchTrace(g0, ())) == [g0]

    def test_bundled_two_step(self, fig1_graphs):
        g0, g1, g2 = fig1_graphs
        assert replay(SwitchTrace(g0, FIG1_STEPS)) == [g0, g1, g2]

    def test_inverse_steps_return_home(self, fig1_graphs):
        g0, _, g2 = fig1_graphs
        back = tuple(m.transpose() for m in reversed(FIG1_STEPS))
        full = SwitchTrace(g0, FIG1_STEPS + back)
        assert replay(full)[-1] == g0

    def test_trivial_step_raises(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        with pytest.raises(TrivialStepError) as exc:
            replay(SwitchTrace(g0, (ActionMatrix(1, 2, 1, 3),)))
        assert exc.value.index == 0


class TestValidateTrace:
    def test_transition_output_validates(self, fig1_graphs):
        g0, _, g2 = fig1_graphs
        trace = transition_forest(g0, g2)
        v = validate_trace(trace, g2, require_forests=True)
        assert v.ok and v.final_matches and v.forests_ok and v.within_bound

    def test_two_step_fails_forest_requirement(self, fig1_graphs):
        g0, _, g2 = fig1_graphs
        v = validate_trace(SwitchTrace(g0, FIG1_STEPS), g2, require_forests=True)
        assert not v.ok
        assert v.final_matches  # it does land on the target
        assert v.forests_ok is False
        assert v.first_nonforest == 1  # the middle graph has a triangle
        assert v.bound == 1 and v.within_bound is False

    def test_empty_trace_passes(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        v = validate_trace(SwitchTrace(g0, ()), g0)
        assert v.ok and v.length == 0

    def test_wrong_target(self, fig1_graphs):
        g0, g1, _ = fig1_graphs
        v = validate_trace(SwitchTrace(g0, ()), g1)
        assert not v.ok and not v.final_matches

    def test_trivial_step_reported(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        v = validate_trace(SwitchTrace(g0, (ActionMatrix(1, 2, 1, 3),)), g0)
        assert not v.steps_nontrivial and v.first_trivial == 0

    def test_kinds_match_classify_to_order_five(self):
        # kinds come from acyclicity before and after each step; on every
        # (graph, switch) incidence they must be what classify decides
        checked = 0
        for n in range(6):
            slots = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
            for mask in range(1 << len(slots)):
                g = Graph(n, [e for k, e in enumerate(slots) if mask >> k & 1])
                for m in nontrivial_matrices(g):
                    v = validate_trace(SwitchTrace(g, (m, m)))
                    assert v.kinds == (classify(m, g), SwitchKind.TRIVIAL)
                    assert v.first_trivial == 1
                    checked += 1
        assert checked == 1944

    def test_kinds_of_a_walk_through_a_cycle(self, fig1_graphs):
        g0, g1, g2 = fig1_graphs
        v = validate_trace(SwitchTrace(g0, FIG1_STEPS), g2)
        assert v.kinds == (classify(FIG1_STEPS[0], g0), classify(FIG1_STEPS[1], g1))
        assert v.kinds == (SwitchKind.PLAIN, SwitchKind.PLAIN)

    def test_first_nonforest_is_the_first_of_several(self, fig1_graphs):
        # into the triangle, a switch that keeps a cycle, and back: three
        # intermediates with a cycle, and the walk ends on a forest
        g0, g1, _ = fig1_graphs
        m = next(m for m in nontrivial_matrices(g1) if not is_forest(apply_switch(m, g1)))
        steps = (FIG1_STEPS[0], m, m.transpose(), FIG1_STEPS[0].transpose())
        v = validate_trace(SwitchTrace(g0, steps), g0, require_forests=True)
        assert v.final_matches and v.forests_ok is False
        assert v.first_nonforest == 1
        assert v.kinds == (SwitchKind.PLAIN,) * 4

    def test_matches_a_graph_replay_on_walks_through_cycles(self):
        # seeded walks from forests: switches that close and open cycles,
        # undoing steps that return to a forest and go on from there, and
        # in every fourth walk one matrix with random labels, usually
        # trivial; each judged against four targets, one of another order,
        # with and without the forest requirement
        rng = random.Random(3303)
        returned = 0  # walks back on a forest after a cycle before any trivial step
        for _ in range(400):
            n = rng.randint(5, 12)
            g = start = _random_forest(rng, n)
            steps, cyclic, trivial, back = [], False, False, False
            odd_one = rng.randrange(40)
            for i in range(rng.randint(1, 10)):
                moves = list(nontrivial_matrices(g))
                if i == odd_one or not moves:
                    m = ActionMatrix(*(rng.randint(1, n + 1) for _ in range(4)))
                elif steps and rng.random() < 0.3:
                    m = steps[-1].transpose()
                else:
                    m = rng.choice(moves)
                steps.append(m)
                after = apply_switch(m, g)
                trivial = trivial or after is g
                g = after
                cyclic = cyclic or not is_forest(g)
                back = back or (cyclic and not trivial and is_forest(g))
            returned += back
            trace = SwitchTrace(start, tuple(steps))
            for target in (None, g, start, Graph(n + 1, g.edges)):
                for forests in (False, True):
                    got = validate_trace(trace, target, forests).as_dict()
                    assert got == _graph_replay_verdict(trace, target, forests)
        assert returned > 50

    def test_forest_route_takes_one_union_find(self, monkeypatch, fig1_graphs):
        # the initial graph's acyclicity only; each step of a forest is
        # judged on parent links, and after a cycle each step takes one
        calls = []

        def spy(n, edges):
            calls.append(len(edges))
            return acyclic(n, edges)

        acyclic = transition._acyclic
        a, b = _same_vector_pair(random.Random(1000), 1000, 2)
        f, g = Graph(1000, a), Graph(1000, b)
        trace = transition_forest(f, g)
        monkeypatch.setattr(transition, "_acyclic", spy)
        verdict = validate_trace(trace, g, require_forests=True)
        assert verdict.ok and len(trace) > 900
        assert calls == [998]
        calls.clear()
        g0, _, g2 = fig1_graphs
        verdict = validate_trace(SwitchTrace(g0, FIG1_STEPS), g2, require_forests=True)
        assert verdict.first_nonforest == 1  # the first step closes a triangle
        assert calls == [6, 6]

    def test_target_of_another_order_does_not_match(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        v = validate_trace(SwitchTrace(g0, ()), Graph(g0.n + 1, g0.edges))
        assert not v.final_matches


class TestJsonFormat:
    def test_exact_bytes(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        text = trace_to_json(SwitchTrace(g0, FIG1_STEPS))
        assert text == (
            '{"n":7,'
            '"initial":[[1,2],[1,3],[1,4],[2,5],[3,6],[4,7]],'
            '"steps":[[2,5,3,6],[2,1,5,6]]}'
        )

    def test_round_trip(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        trace = SwitchTrace(g0, FIG1_STEPS)
        again = trace_from_json(trace_to_json(trace))
        assert again.initial == trace.initial
        assert again.steps == trace.steps
        assert trace_to_json(again) == trace_to_json(trace)

    @given(forests(max_n=9))
    def test_round_trip_initial_only(self, f):
        t = trace_from_json(trace_to_json(SwitchTrace(f, ())))
        assert t.initial == f

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '{"n":3,"initial":[]}',  # missing steps
            '{"n":3,"initial":[[1,2]],"steps":[[1,2,3]]}',  # bad arity
            '{"n":3,"initial":[[1,4]],"steps":[]}',  # label out of range
            '{"n":"x","initial":[],"steps":[]}',
            '{"n":3,"initial":[[1,2],[1,2]],"steps":[]}',  # duplicate edge
            '{"n":3,"initial":[[1,2,3]],"steps":[]}',  # edge of three labels
            '{"n":3,"initial":[[1,"a"]],"steps":[]}',  # non-integer label
            '{"n":true,"initial":[],"steps":[]}',  # boolean order
            '{"n":3,"initial":[[1.5,2]],"steps":[]}',  # float endpoint
            '{"n":4,"initial":[[1,2],[3,4]],"steps":[[true,2,3,4]]}',  # boolean label
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(TraceFormatError):
            trace_from_json(text)

    def test_steps_preserve_column_order(self):
        g = Graph(4, [(1, 2), (3, 4)])
        t = trace_from_json(
            '{"n":4,"initial":[[1,2],[3,4]],"steps":[[1,2,4,3]]}'
        )
        assert t.steps == (ActionMatrix(1, 2, 4, 3),)
        assert json.loads(trace_to_json(t))["steps"] == [[1, 2, 4, 3]]
