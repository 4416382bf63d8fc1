"""End-to-end checks of the package's headline claims.

Each test records one PASS/FAIL line in the terminal summary.  Scopes
and tolerances are stated inline; every check is exhaustive or runs a
documented deterministic sample/seed.
"""

import itertools
import random
import time

import numpy as np
from conftest import record_acceptance
from oracles import (
    census_edge_cover_table,
    census_vertex_cover_table,
    oracle_distances,
    oracle_edge_cover,
    oracle_vertex_cover,
)

from twoswitch import parameters
from twoswitch.census import census
from twoswitch.explorer import (
    bipartite_counterexample_check,
    constrained_transition_search,
    edge_diff_audit,
    enumerate_forests,
    interval_audit,
    interval_sweep,
    stability_sweep,
)
from twoswitch.graphs import Graph, degree_sequence, is_forest, is_graphical, is_tree
from twoswitch.parameters import adjacency_rank
from twoswitch.switch import (
    ActionMatrix,
    SwitchKind,
    apply_switch,
    classify,
    nontrivial_matrices,
)
from twoswitch.transition import replay, transition_forest, validate_trace

FOREST_MOVES = (SwitchKind.F_SWITCH, SwitchKind.T_SWITCH)


def _forest_moves(g):
    return [m for m in nontrivial_matrices(g) if classify(m, g) in FOREST_MOVES]


def test_01_bundled_pair_replays_exactly(fig1_graphs):
    t0 = time.time()
    g0, g1, g2 = fig1_graphs
    step1 = apply_switch(ActionMatrix(2, 5, 3, 6), g0)
    step2 = apply_switch(ActionMatrix(2, 1, 5, 6), step1)
    ok = (
        step1.edges == g1.edges
        and step2.edges == g2.edges
        and not is_forest(g1)
        and is_tree(g2)
    )
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    record_acceptance(
        "fig1 pair: two recorded switches replay to the exact edge sets",
        ok,
        f"{elapsed:.2f}s",
    )
    assert ok


def test_02_forest_routes_exhaustive(forest_atlas):
    pairs = 0
    failures = []
    for n, families in forest_atlas.items():
        for fam in families:
            pairs += len(fam["lengths"])
            failures.extend(fam["failures"])
    ok = pairs == 29990 and not failures
    record_acceptance(
        "forest routes, all same-vector ordered pairs to order 6",
        ok,
        f"{pairs} pairs, {len(failures)} violations",
    )
    assert pairs == 29990
    assert failures == []


def test_03_forest_routes_randomized():
    # seed 0 was fixed before the run and is not special; any seed tried
    # during development passed as well
    rng = random.Random(0)
    violations = 0
    for _ in range(500):
        n = rng.randint(2, 12)
        f = _random_forest(rng, n)
        g = f
        for _ in range(rng.randint(0, 8)):
            moves = _forest_moves(g)
            if not moves:
                break
            g = apply_switch(rng.choice(moves), g)
        trace = transition_forest(f, g)
        seq = replay(trace)
        good = (
            seq[-1] == g
            and all(is_forest(x) for x in seq)
            and len(trace.steps) <= max(0, len(g.edges - f.edges) - 1)
        )
        violations += not good
    record_acceptance(
        "forest routes, 500 seeded switch-walk pairs to order 12",
        violations == 0,
        f"{violations} violations",
    )
    assert violations == 0


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


def test_04_stability_exhaustive():
    checked = 0
    bad = []
    for n in range(1, 8):
        reports = stability_sweep(n)
        for kind, report in reports.items():
            checked += report.checked
            if not report.passed:
                bad.append((n, kind))
    ok = not bad
    record_acceptance(
        "every parameter moves at most 1 per switch, all graphs to order 7",
        ok,
        f"{checked} graph-switch incidences",
    )
    assert bad == []


def test_05_interval_property_exhaustive():
    sweeps = 0
    bad = []
    for n in range(1, 8):
        for kind in parameters.STABLE_KINDS:
            for family in ("all", "forest"):
                report = interval_sweep(n, kind, family)
                sweeps += 1
                if not report.passed:
                    bad.append((n, kind, family, report.bad_sequence))
    # the per-vector operation, exhaustively on order <= 4
    audits = 0
    for n in range(1, 5):
        for seq in itertools.product(range(n), repeat=n):
            if not is_graphical(seq):
                continue
            for kind in parameters.STABLE_KINDS:
                for family in ("all", "forest"):
                    report = interval_audit(seq, kind, family)
                    audits += 1
                    if not report.passed:
                        bad.append((seq, kind, family))
    ok = not bad
    record_acceptance(
        "value sets are integer intervals, every degree vector to order 7",
        ok,
        f"{sweeps} sweeps + {audits} per-vector audits",
    )
    assert bad == []


def test_06_component_count_constant_per_forest_family():
    bad = []
    for n in range(1, 8):
        report = interval_sweep(n, "components", "forest")
        if not (report.passed and report.singletons):
            bad.append(n)
    # order 8 exceeds the table cap: enumerate and union-find directly
    groups: dict[tuple, set] = {}
    count8 = 0
    for edges in enumerate_forests(8):
        count8 += 1
        degs = [0] * 9
        parent = list(range(9))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = 8
        for u, v in edges:
            degs[u] += 1
            degs[v] += 1
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        groups.setdefault(tuple(degs[1:]), set()).add(comps)
    if count8 != 561948 or any(len(s) != 1 for s in groups.values()):
        bad.append(8)
    ok = not bad
    record_acceptance(
        "component count is constant on every forest family to order 8",
        ok,
        f"{len(groups)} order-8 vectors over {count8} forests",
    )
    assert bad == []


def test_07_no_single_edge_difference():
    checked = 0
    bad = []
    for n in range(2, 7):
        report = edge_diff_audit(n)
        checked += report.checked
        if not report.passed:
            bad.append(n)
    ok = not bad
    record_acceptance(
        "equal degree vectors never differ in exactly one edge, to order 6",
        ok,
        f"{checked} moves checked",
    )
    assert bad == []


def test_08_identities_and_rank():
    bad = []
    # the package takes edge_cover = n - matching and vertex_cover =
    # n - independence; on all graphs to order 7 the census tables must
    # equal direct dynamic programs over every mask
    for n in range(8):
        cen = census(n)
        if not np.array_equal(cen.tables["edge_cover"], census_edge_cover_table(n)):
            bad.append(("edge_cover", n))
        if not np.array_equal(cen.tables["vertex_cover"], census_vertex_cover_table(n)):
            bad.append(("vertex_cover", n))
    # the identities on the general algorithms, which also serve forests
    # here, against brute-force subset scans, order <= 5
    general = parameters._GENERAL
    for n in range(6):
        cen = census(n)
        for mask in range(cen.n_masks):
            g = cen.graph(mask)
            if all(g.degree(v) > 0 for v in g.vertices()):
                if g.n - general["matching"](g) != oracle_edge_cover(g):
                    bad.append(("edge_cover_graph", n, mask))
            if g.n - general["independence"](g) != oracle_vertex_cover(g):
                bad.append(("vertex_cover_graph", n, mask))
    # exact adjacency rank equals twice the matching number on every
    # forest to order 8 (fraction-free elimination vs leaves-up matching);
    # every 997th order-8 forest in enumeration order is kept for the
    # rank steps below
    rank_checked = 0
    sampled = []
    for n in range(9):
        for i, edges in enumerate(enumerate_forests(n)):
            g = Graph(n, edges)
            rank_checked += 1
            if adjacency_rank(g) != 2 * parameters.compute("matching", g):
                bad.append(("rank", n, edges))
            if n == 8 and i % 997 == 0:
                sampled.append(g)
    # rank steps under forest-preserving switches: direct to order 6;
    # at order 7 the identity above plus the order-7 stability sweep
    # (test 04) force every step to 0 or 2; order 8 sampled directly
    step_checked = 0
    for n in range(7):
        for edges in enumerate_forests(n):
            g = Graph(n, edges)
            r0 = adjacency_rank(g)
            for m in _forest_moves(g):
                step_checked += 1
                if abs(adjacency_rank(apply_switch(m, g)) - r0) not in (0, 2):
                    bad.append(("step", n, edges, m))
    for g in sampled:
        r0 = adjacency_rank(g)
        for m in _forest_moves(g):
            step_checked += 1
            if abs(adjacency_rank(apply_switch(m, g)) - r0) not in (0, 2):
                bad.append(("step", 8, g.sorted_edges(), m))
    ok = not bad
    record_acceptance(
        "cover identities and rank = 2*matching with {0,2} switch steps",
        ok,
        f"{rank_checked} forests, {step_checked} rank steps",
    )
    assert bad == []


def test_09_bipartite_pair_gates(fig2_graphs):
    t0 = time.time()
    g0, g1 = fig2_graphs
    want = (6, 5, 4, 4, 3, 3, 3, 2, 2, 2, 2)
    report = bipartite_counterexample_check()
    elapsed = time.time() - t0
    gates = (
        tuple(sorted(degree_sequence(g0), reverse=True)) == want
        and degree_sequence(g0) == degree_sequence(g1)
        and report.both_bipartite
        and report.both_connected
        and report.non_isomorphic
        and report.parts_differ
        and report.one_step_invariant
    )
    ok = gates and elapsed < 10.0
    detail = (
        f"{report.switches_checked} switches, {elapsed:.1f}s, "
        f"closure explored {report.closure.explored}"
    )
    record_acceptance("fig2 pair: bipartite non-transition gates", ok, detail)
    assert ok


def test_10_search_never_beats_the_constructor(forest_atlas):
    pairs = 0
    bad = []
    for n, families in forest_atlas.items():
        for fam in families:
            members = fam["members"]
            for i, f in enumerate(members):
                dist = oracle_distances(
                    f, lambda x: (apply_switch(m, x) for m in _forest_moves(x))
                )
                for j, g in enumerate(members):
                    pairs += 1
                    if g not in dist or dist[g] > fam["lengths"][(i, j)]:
                        bad.append((n, i, j))
    # the search operation itself, exhaustively on orders <= 5
    searched = 0
    for n, families in forest_atlas.items():
        if n > 5:
            continue
        for fam in families:
            members = fam["members"]
            for i, f in enumerate(members):
                for j, g in enumerate(members):
                    res = constrained_transition_search(f, g, "forest")
                    searched += 1
                    if not res.found or len(res.trace.steps) > fam["lengths"][(i, j)]:
                        bad.append(("op", n, i, j))
    ok = pairs == 29990 and not bad
    record_acceptance(
        "breadth-first routes exist and never exceed constructed ones",
        ok,
        f"{pairs} pairs, {searched} literal searches",
    )
    assert pairs == 29990
    assert bad == []


def test_11_interval_property_beyond_switch_connectivity():
    # the paper derives the interval property from switch-connectivity
    # inside the family; unicyclic and bipartite families are not always
    # switch-connected (scripts/unicyclic_search.py, the fig2 pair), so the
    # property is checked here directly, with trees alongside
    sweeps = 0
    families = 0
    bad = []
    for n in range(1, 8):
        for kind in parameters.STABLE_KINDS:
            for family in ("tree", "unicyclic", "bipartite"):
                report = interval_sweep(n, kind, family)
                sweeps += 1
                families += report.families
                if not report.passed:
                    bad.append((n, kind, family, report.bad_sequence))
    ok = not bad
    record_acceptance(
        "tree, unicyclic and bipartite value sets are integer intervals to order 7",
        ok,
        f"{sweeps} sweeps over {families} degree-vector families",
    )
    assert bad == []
