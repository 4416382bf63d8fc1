"""Family enumeration, the two audits, isomorphism and bounded searches."""

import concurrent.futures
import copy
import functools
import hashlib
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from conftest import forests
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    oracle_distances,
    oracle_edge_diff_audit,
    oracle_interval_census,
    oracle_interval_witnesses,
    oracle_stability_sweep,
)

import twoswitch.explorer as ex
from twoswitch import parameters, switch
from twoswitch.census import RUN, UNDEFINED, census, slot_mask, slot_view
from twoswitch.explorer import (
    AuditReport,
    CapExceededError,
    ValueOutOfRangeError,
    are_isomorphic,
    bipartite_counterexample_check,
    constrained_transition_search,
    edge_diff_audit,
    enumerate_family,
    enumerate_forests,
    explore,
    interval_audit,
    interval_sweep,
    realize_parameter_value,
    stability_audit,
    stability_sweep,
)
from twoswitch.graphs import (
    Graph,
    GraphError,
    degree_sequence,
    is_bipartite,
    is_forest,
    is_graphical,
    is_unicyclic,
)
from twoswitch.switch import SwitchKind, apply_switch, nontrivial_matrices
from twoswitch.transition import SwitchTrace, replay, validate_trace

FAMILIES = ("all", "forest", "tree", "unicyclic", "bipartite")


def _shuffled(seq, seed=0):
    seq = list(seq)
    random.Random(seed).shuffle(seq)
    return tuple(seq)


# families above the census cap, with the kinds audited on them: the
# interval cases of the benchmark's family_search workload, each also
# relabelled as that workload relabels them, and the 2-regular order-8
# families
_FAMILY_SEARCH = [
    ((4, 2, 2, 2, 1, 1, 1, 1), "tree", parameters.STABLE_KINDS),
    ((3, 3, 2, 2, 2, 1, 1, 1, 1), "tree", ("path_cover", "domination")),
    ((3, 3, 2, 2, 2, 2, 1, 1), "all", ("matching", "chromatic")),
]
ABOVE_CAP = [
    *_FAMILY_SEARCH,
    *((_shuffled(seq), family, kinds) for seq, family, kinds in _FAMILY_SEARCH),
    ((2,) * 8, "all", ("matching",)),
    ((2,) * 8, "unicyclic", ("matching",)),
]
# the same witness rule below the census cap: the README's forest
# example and the 2-regular order-6 family
ENUMERATED = [
    *ABOVE_CAP,
    ((3, 2, 2, 2, 1, 1, 1), "forest", parameters.STABLE_KINDS),
    ((2,) * 6, "all", parameters.STABLE_KINDS),
]


@functools.lru_cache(maxsize=None)
def _members(n: int, family: str) -> tuple[int, ...]:
    """The order-``n`` masks in ``family``, by the per-graph predicate."""
    cen, member = census(n), ex.FAMILY_PREDICATES[family]
    return tuple(m for m in range(cen.n_masks) if member(cen.graph(m)))


def _reference_sweep(cen, kind: str, family: str) -> dict:
    """``interval_sweep(...).as_dict()`` by grouping the family's masks on
    their degree vectors in plain Python."""
    groups: dict[tuple[int, ...], set[int]] = {}
    table = cen.tables[kind]
    for mask in _members(cen.n, family):
        if table[mask] != UNDEFINED:
            seq = degree_sequence(cen.graph(mask))
            groups.setdefault(seq, set()).add(int(table[mask]))
    # ascending packed vector, as in Census.degree_vectors: the last
    # vertex's degree is the most significant
    gaps = sorted(
        (seq[::-1], seq)
        for seq, values in groups.items()
        if len(values) != max(values) - min(values) + 1
    )
    return {
        "n": cen.n,
        "family": family,
        "kind": kind,
        "families": len(groups),
        "passed": not gaps,
        "singletons": not gaps and all(len(v) == 1 for v in groups.values()),
        "bad_sequence": list(gaps[0][1]) if gaps else None,
    }


class TestEnumerateFamily:
    def test_non_graphical_yields_nothing(self):
        assert list(enumerate_family((3, 1))) == []
        assert list(enumerate_family((5, 1, 1, 1, 1))) == []

    def test_unknown_family(self):
        with pytest.raises(GraphError):
            list(enumerate_family((1, 1), "chordal"))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            list(enumerate_family((1,) * 10))

    @pytest.mark.parametrize("seq", [(2.7, 2.2, 2.9), (True, True), ("1", "1")])
    def test_non_integer_degrees_are_rejected(self, seq):
        with pytest.raises(GraphError, match="degree must be an integer"):
            list(enumerate_family(seq))

    def test_numpy_integer_degrees(self):
        seq = np.array([2, 2, 2, 1, 1])
        assert list(enumerate_family(seq)) == list(enumerate_family((2, 2, 2, 1, 1)))

    def test_two_regular_on_five(self):
        members = list(enumerate_family((2, 2, 2, 2, 2)))
        assert len(members) == 12  # labeled 5-cycles
        assert all(degree_sequence(g) == (2, 2, 2, 2, 2) for g in members)
        assert list(enumerate_family((2, 2, 2, 2, 2), "forest")) == []

    def test_deterministic_and_duplicate_free(self):
        a = list(enumerate_family((1, 1, 2, 2, 2)))
        b = list(enumerate_family((1, 1, 2, 2, 2)))
        assert a == b
        assert len(set(a)) == len(a) == 7

    @pytest.mark.parametrize("seq,family,kinds", ABOVE_CAP)
    def test_ascending_sorted_edge_lists(self, seq, family, kinds):
        # interval_audit takes the first member with each value as its
        # witness, relying on this order
        edges = [g.sorted_edges() for g in enumerate_family(seq, family)]
        assert edges and all(a < b for a, b in zip(edges, edges[1:]))

    @pytest.mark.parametrize("family", ["all", "forest", "tree", "unicyclic", "bipartite"])
    def test_counts_match_census_order_five(self, family):
        from twoswitch.explorer import _family_selector

        cen = census(5)
        sel = _family_selector(cen, family)
        seen = {}
        for mask in np.nonzero(sel)[0]:
            seq = degree_sequence(cen.graph(int(mask)))
            seen[seq] = seen.get(seq, 0) + 1
        for seq in [(2, 2, 2, 2, 2), (1, 1, 2, 2, 2), (3, 3, 2, 2, 2), (1, 1, 1, 1, 0)]:
            assert len(list(enumerate_family(seq, family))) == seen.get(seq, 0)


class TestFamilyCheck:
    """Every entry point that takes a family refuses the same way."""

    CALLS = {
        "enumerate_family": lambda family: list(enumerate_family((1, 1), family)),
        "interval_audit": lambda family: interval_audit((1, 1), "matching", family),
        "constrained_transition_search": lambda family: constrained_transition_search(
            Graph(2, [(1, 2)]), Graph(2, [(1, 2)]), family
        ),
        "interval_sweep": lambda family: interval_sweep(2, "matching", family),
    }

    @pytest.mark.parametrize("family", ["chordal", ["tree"]], ids=["unknown", "list"])
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_refused_as_a_domain_error(self, call, family):
        with pytest.raises(GraphError) as info:
            call(family)
        assert str(info.value) == f"unknown family {family!r}"


class TestEnumerateForests:
    # labeled forest counts, order 0 up
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 7), (4, 38), (5, 291), (6, 2932)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_forests(n)) == count

    def test_matches_census_flags(self):
        cen = census(5)
        got = {frozenset(edges) for edges in enumerate_forests(5)}
        want = {
            frozenset(cen.graph(int(m)).edges) for m in np.nonzero(cen.forest)[0]
        }
        assert got == want

    def test_edge_tuples_sorted(self):
        for edges in enumerate_forests(4):
            assert list(edges) == sorted(edges)
            assert all(u < v for u, v in edges)


class TestSlotView:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_boolean_selection(self, data):
        n = data.draw(st.integers(4, 6))
        cen = census(n)
        bits = data.draw(st.integers(0, cen.full_mask))
        req = data.draw(st.integers(0, cen.full_mask)) & bits
        masks = np.arange(cen.n_masks)
        view = slot_view(masks, bits, req)
        assert np.shares_memory(view, masks)
        flat = view.ravel()
        assert np.array_equal(flat, masks[(masks & bits) == req])
        assert np.all(np.diff(flat) > 0)
        picks = data.draw(st.lists(st.integers(0, flat.size - 1), max_size=20))
        for element in {0, flat.size - 1, *picks}:
            assert slot_mask(element, bits, req) == flat[element]
        # a table with one row per mask keeps its row axis last
        rows = np.stack([masks, masks[::-1]], axis=-1)
        stacked = slot_view(rows, bits, req)
        assert np.shares_memory(stacked, rows)
        assert np.array_equal(stacked.reshape(-1, 2), rows[flat])


def _audit_one_kind(graph, kind):
    """The stability audit of one kind on its own walk over the switches;
    a refusal of ``compute`` stops it where it happens."""

    def refused(checked, where, exc):
        return AuditReport(
            audit="stability",
            passed=False,
            kind=kind,
            checked=checked,
            notes=f"{kind} not evaluated on {where}: {exc}",
        )

    try:
        base = parameters.compute(kind, graph)
    except CapExceededError as exc:
        return refused(0, "the input graph", exc)
    checked = 0
    for m in nontrivial_matrices(graph):
        try:
            value = parameters.compute(kind, apply_switch(m, graph))
        except CapExceededError as exc:
            return refused(checked, f"the graph after switch {m}", exc)
        checked += 1
        if abs(value - base) > 1:
            return AuditReport(
                audit="stability",
                passed=False,
                kind=kind,
                counterexample=(graph, m),
                checked=checked,
                notes=f"{kind} jumped from {base} to {value}",
            )
    return AuditReport(audit="stability", passed=True, kind=kind, checked=checked)


class TestStabilityAudit:
    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            stability_audit(Graph(3), ("matching", "girth"))

    @pytest.mark.parametrize(
        "audit",
        [lambda kinds: stability_audit(Graph(3), kinds), lambda kinds: stability_sweep(4, kinds)],
        ids=["graph", "order"],
    )
    def test_a_string_of_kinds_is_named_whole(self, audit):
        # not read as the kinds 'm', 'a', 't', ...
        with pytest.raises(GraphError, match="collection of kinds, got 'matching'"):
            audit("matching")

    def test_single_graph(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        reports = stability_audit(g0, ("matching",))
        assert list(reports) == ["matching"]
        assert reports["matching"].passed and reports["matching"].checked > 0

    def test_all_kinds_by_default(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        reports = stability_audit(g0)
        assert list(reports) == list(parameters.STABLE_KINDS)
        assert reports == {k: _audit_one_kind(g0, k) for k in parameters.STABLE_KINDS}

    def test_edge_cover_skips_isolated(self):
        report = stability_audit(Graph(3, [(1, 2)]), ("edge_cover", "matching"))["edge_cover"]
        assert report.passed and report.checked == 0
        assert "isolated" in report.notes

    def test_planted_jump_stops_only_its_kind(self, fig2_graphs, monkeypatch):
        # domination reads 5 too high on the switched graph of the 40th
        # switch: its report stops there, as a walk of its own would
        g0, _ = fig2_graphs
        switches = list(nontrivial_matrices(g0))
        planted = apply_switch(switches[39], g0)
        compute = parameters.compute

        def jumping(kind, g):
            return compute(kind, g) + 5 * (kind == "domination" and g == planted)

        monkeypatch.setattr(parameters, "compute", jumping)
        reports = stability_audit(g0)
        assert reports == {k: _audit_one_kind(g0, k) for k in parameters.STABLE_KINDS}
        failed = reports["domination"]
        assert not failed.passed and failed.checked == 40
        assert failed.counterexample == (g0, switches[39])
        assert all(
            r.passed and r.checked == len(switches)
            for k, r in reports.items()
            if k != "domination"
        )

    @pytest.mark.parametrize("refused_at", [None, 19], ids=["input", "switch-20"])
    def test_refused_kind_stops_alone_next_to_a_jump(self, fig2_graphs, monkeypatch, refused_at):
        # independence is refused on the input graph or on the graph of
        # the 20th switch, and domination jumps at the 40th: each stops
        # there, and the seven other kinds run over every switch
        g0, _ = fig2_graphs
        switches = list(nontrivial_matrices(g0))
        planted = apply_switch(switches[39], g0)
        capped = g0 if refused_at is None else apply_switch(switches[refused_at], g0)
        compute = parameters.compute

        def planting(kind, g):
            if kind == "independence" and g == capped:
                raise CapExceededError("planted cap")
            return compute(kind, g) + 5 * (kind == "domination" and g == planted)

        monkeypatch.setattr(parameters, "compute", planting)
        reports = stability_audit(g0)
        assert reports == {k: _audit_one_kind(g0, k) for k in parameters.STABLE_KINDS}
        refused = reports["independence"]
        assert not refused.passed and refused.counterexample is None
        if refused_at is None:
            assert refused.checked == 0
            assert refused.notes == "independence not evaluated on the input graph: planted cap"
        else:
            assert refused.checked == refused_at
            assert refused.notes == (
                f"independence not evaluated on the graph after switch "
                f"{switches[refused_at]}: planted cap"
            )
        failed = reports["domination"]
        assert not failed.passed and failed.checked == 40
        assert all(
            r.passed and r.checked == len(switches)
            for k, r in reports.items()
            if k not in ("domination", "independence")
        )

    def test_sweep_all_kinds_order_four(self):
        reports = stability_sweep(4)
        assert set(reports) == set(parameters.STABLE_KINDS)
        assert all(r.passed for r in reports.values())

    def test_sweep_all_kinds_order_five(self):
        # the first order where switches move parameters both ways, so a
        # drop of one must not read as a jump
        reports = stability_sweep(5)
        assert all(r.passed and r.checked > 0 for r in reports.values())

    @pytest.mark.parametrize("shift", [2, -2])
    def test_sweep_reports_a_planted_jump(self, monkeypatch, shift):
        # one graph's matching number moved by two, up or down, must be
        # caught across a switch into or out of it, and nothing else
        # flagged; order 5 is the first where switches change the matching
        cen = copy.copy(census(5))
        planted = Graph(5, [(1, 2), (3, 4)])
        table = cen.tables["matching"].copy()
        k = cen.mask_of(planted)
        table[k] = int(table[k]) + shift
        cen.tables = dict(cen.tables, matching=table)
        monkeypatch.setattr(ex, "census", lambda n: cen)
        report = stability_sweep(5, kinds=("matching",))["matching"]
        assert not report.passed
        g, m = report.counterexample
        assert planted in (g, apply_switch(m, g))

    @pytest.mark.parametrize("kind", ["matching", "domination", "edge_cover"])
    @pytest.mark.parametrize("seed", range(3))
    def test_sweep_reports_the_lowest_bad_incidence(self, monkeypatch, kind, seed):
        # a dozen planted jumps of two; a plain scan of every graph's
        # switches, in ascending mask order, names the first bad graph
        cen = copy.copy(census(5))
        table = cen.tables[kind].copy()
        rng = random.Random(seed)
        defined = np.nonzero(table < UNDEFINED)[0].tolist()
        for k in rng.sample(defined, 12):
            table[k] = table[k] + 2 if table[k] < 2 or rng.random() < 0.5 else table[k] - 2
        cen.tables = dict(cen.tables, **{kind: table})
        monkeypatch.setattr(ex, "census", lambda n: cen)

        def jumps(g, m):
            before = int(table[cen.mask_of(g)])
            after = int(table[cen.mask_of(apply_switch(m, g))])
            return before < UNDEFINED and abs(after - before) > 1

        lowest = next(
            mask
            for mask in range(cen.n_masks)
            if any(jumps(cen.graph(mask), m) for m in nontrivial_matrices(cen.graph(mask)))
        )
        report = stability_sweep(5, kinds=(kind,))[kind]
        assert not report.passed
        g, m = report.counterexample
        assert cen.mask_of(g) == lowest
        assert jumps(g, m)

    @pytest.mark.parametrize(
        "audit",
        [
            lambda kinds: stability_audit(Graph(5, [(1, 2), (3, 4)]), kinds),
            lambda kinds: stability_sweep(4, kinds),
        ],
        ids=["graph", "order"],
    )
    def test_a_repeated_kind_reports_once(self, audit):
        # each kind once, in first-seen order, with the single-kind count
        once = audit(("matching", "edge_cover"))
        reports = audit(("matching", "edge_cover", "matching", "edge_cover"))
        assert list(reports) == ["matching", "edge_cover"]
        assert reports == once
        assert reports["matching"] == audit(("matching",))["matching"]

    @pytest.mark.parametrize("kinds", [("bogus",), ("matching", "girth")])
    def test_sweep_rejects_unknown_kinds(self, kinds):
        with pytest.raises(GraphError, match="unknown parameter kind"):
            stability_sweep(4, kinds=kinds)

    def test_sweep_cap(self):
        with pytest.raises(CapExceededError):
            stability_sweep(8)


class TestSweepsMatchTheOrderedOracles:
    """The sweeps compare each switch shape or edge move with its inverse
    once; the oracles compare every ordered shape and move on its own."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_unplanted_orders(self, n):
        cen = census(n)
        kinds = parameters.STABLE_KINDS
        assert stability_sweep(n) == oracle_stability_sweep(cen, kinds)
        assert edge_diff_audit(n) == oracle_edge_diff_audit(cen)

    @pytest.mark.parametrize("seed", range(64))
    def test_planted_tables(self, monkeypatch, seed):
        cen = _planted_census(5, seed)
        monkeypatch.setattr(ex, "census", lambda n: cen)

        reports = stability_sweep(5)
        assert not all(r.passed for r in reports.values())
        assert reports == oracle_stability_sweep(cen, parameters.STABLE_KINDS)
        report = edge_diff_audit(5)
        assert not report.passed
        assert report == oracle_edge_diff_audit(cen)

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_tables_order_six(self, monkeypatch, seed):
        cen = _planted_census(6, seed)
        monkeypatch.setattr(ex, "census", lambda n: cen)

        reports = stability_sweep(6)
        assert not all(r.passed for r in reports.values())
        assert reports == oracle_stability_sweep(cen, parameters.STABLE_KINDS)
        report = edge_diff_audit(6)
        assert not report.passed
        assert report == oracle_edge_diff_audit(cen)

    def test_two_kinds_jump_on_one_switch_pair(self, monkeypatch):
        # matching and domination both read two high at one graph, so the
        # same switch pairs carry a jump of each kind
        cen = copy.copy(census(6))
        mask = cen.mask_of(Graph(6, [(1, 2), (3, 4)]))
        tables = dict(cen.tables)
        for kind in ("matching", "domination"):
            tables[kind] = tables[kind].copy()
            tables[kind][mask] += 2
        cen.tables = tables
        monkeypatch.setattr(ex, "census", lambda n: cen)

        reports = stability_sweep(6)
        assert reports == oracle_stability_sweep(cen, parameters.STABLE_KINDS)
        failed = {kind for kind, r in reports.items() if not r.passed}
        assert failed == {"matching", "domination"}
        assert reports["matching"].counterexample == reports["domination"].counterexample

    def test_edge_cover_planted_on_an_undefined_mask(self, monkeypatch):
        # vertices 5 and 6 are isolated, so the table is undefined there
        # and at both of the graph's switch neighbours; a planted value
        # makes the graph's own two switches count and judge, while the
        # switches into it start undefined and still do not
        unplanted = stability_sweep(6, ("edge_cover",))["edge_cover"]
        cen = copy.copy(census(6))
        g = Graph(6, [(1, 2), (3, 4)])
        table = cen.tables["edge_cover"].copy()
        assert table[cen.mask_of(g)] == UNDEFINED
        table[cen.mask_of(g)] = 2
        cen.tables = dict(cen.tables, edge_cover=table)
        monkeypatch.setattr(ex, "census", lambda n: cen)

        reports = stability_sweep(6)
        assert reports == oracle_stability_sweep(cen, parameters.STABLE_KINDS)
        report = reports["edge_cover"]
        assert not report.passed
        assert report.counterexample[0] == g
        assert report.checked == unplanted.checked + 2
        assert all(r.passed for kind, r in reports.items() if kind != "edge_cover")

    @pytest.mark.parametrize(
        "kinds",
        [("edge_cover", "matching"), tuple(reversed(parameters.STABLE_KINDS))],
        ids=["two", "all"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_a_kind_subset_in_any_order_matches_one_call_per_kind(
        self, monkeypatch, kinds, seed
    ):
        cen = _planted_census(5, seed)
        monkeypatch.setattr(ex, "census", lambda n: cen)

        reports = stability_sweep(5, kinds)
        assert list(reports) == list(kinds)
        assert reports == {kind: stability_sweep(5, (kind,))[kind] for kind in kinds}


def _planted_census(n: int, seed: int):
    """A copy of ``census(n)`` with jumps of two at up to 40 masks per kind,
    so that some graphs have several bad switches and the tie-break names
    one of them, and up to five planted edge-move collisions.  Edge cover
    plants land on undefined masks too, where 99 - 2 reads as defined on
    one side of a switch only."""
    rng = random.Random(seed)
    cen = copy.copy(census(n))
    tables = dict(cen.tables)
    for kind in ("matching", "domination", "edge_cover", "chromatic"):
        table = tables[kind].copy()
        for k in rng.sample(range(cen.n_masks), rng.randint(1, 40)):
            up = table[k] < 2 or rng.random() < 0.5
            table[k] = table[k] + 2 if up else table[k] - 2
        tables[kind] = table
    cen.tables = tables
    ids = cen.degree_id.copy()
    for _ in range(rng.randint(1, 5)):
        mask = rng.randrange(1, cen.full_mask)
        kdel = rng.choice([k for k in range(cen.n_slots) if mask >> k & 1])
        kadd = rng.choice([k for k in range(cen.n_slots) if not mask >> k & 1])
        ids[mask ^ (1 << kdel) ^ (1 << kadd)] = ids[mask]
    cen.degree_id = ids
    return cen


class TestSweepOrders:
    SWEEPS = {
        "stability": stability_sweep,
        "interval": lambda n: interval_sweep(n, "matching"),
        "edge_diff": edge_diff_audit,
    }

    @pytest.mark.parametrize("n", [True, 3.0, "3"])
    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_non_integer_orders_are_rejected(self, sweep, n):
        with pytest.raises(GraphError, match="order must be an integer"):
            self.SWEEPS[sweep](n)

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_orders_above_the_census_cap(self, sweep):
        with pytest.raises(CapExceededError, match="census supports orders 0..7, got 8"):
            self.SWEEPS[sweep](8)

    @pytest.mark.parametrize(
        "sweep",
        [lambda n: stability_sweep(n, kinds=("bogus",)), lambda n: interval_sweep(n, "bogus")],
        ids=["stability", "interval"],
    )
    def test_a_bad_order_is_named_before_a_bad_kind(self, sweep):
        with pytest.raises(CapExceededError):
            sweep(8)
        with pytest.raises(GraphError, match="order must be an integer"):
            sweep(3.0)
        with pytest.raises(GraphError, match="unknown parameter kind"):
            sweep(3)


class TestIntervalAudit:
    def test_serial_walk_keeps_one_member_per_value(self):
        # 1,074 members with two values: the walk keeps the two witnesses,
        # where a list of every member peaked at about 2 MB
        tracemalloc.start()
        try:
            report = interval_audit((3, 3, 2, 2, 2, 2, 1, 1), "matching")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.checked == 1074 and report.values == (3, 4)
        assert peak < 256 * 1024

    def test_domination_over_small_forests(self):
        report = interval_audit((3, 2, 2, 2, 1, 1, 1), "domination", "forest")
        assert report.passed and report.interval_ok
        assert set(report.values) >= {2, 3}
        for value, witness in report.witnesses.items():
            assert is_forest(witness)
            assert parameters.compute("domination", witness) == value

    def test_single_member_family(self):
        report = interval_audit((2, 2, 2), "components", "all")
        assert report.values == (1,)
        assert report.interval_ok

    def test_non_graphical(self):
        report = interval_audit((3, 1), "matching", "all")
        assert report.passed and report.interval_ok is None
        assert "graphical" in report.notes

    def test_edge_cover_isolated_sequence(self):
        report = interval_audit((1, 1, 0), "edge_cover", "all")
        assert report.passed and report.interval_ok is None

    def test_enumeration_path_beyond_census(self):
        # order 8 is above the census cap; the audit enumerates every order
        report = interval_audit((2,) * 8, "matching", "all")
        assert report.values == (3, 4)
        assert report.checked == 3507
        assert report.passed

    def test_workers_do_not_change_the_report(self):
        one = interval_audit((2,) * 8, "matching", "all", workers=1)
        two = interval_audit((2,) * 8, "matching", "all", workers=2)
        assert one == two

    def test_pool_never_exceeds_members_or_cpus(self, monkeypatch):
        sizes = []

        class SerialPool:
            """Records the requested size and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                assert all(grp for _, _, grp in items), "empty group submitted"
                return map(fn, items)

        # interval_audit imports the pool class from its module when it
        # starts a pool, so the patch goes there
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(ex.os, "cpu_count", lambda: 3)
        # K8 is the only member of its family: no pool at all
        one = interval_audit((7,) * 8, "matching", "all", workers=5000)
        assert sizes == []
        assert one == interval_audit((7,) * 8, "matching", "all")
        many = interval_audit((2,) * 8, "matching", "all", workers=5000)
        assert sizes == [3]
        assert many == interval_audit((2,) * 8, "matching", "all")

    @pytest.mark.parametrize(
        "seq,family",
        [((3, 2, 2, 2, 1, 1, 1), "forest"), ((2,) * 6, "all"), ((1, 1, 0, 2, 2, 2), "all"),
         ((3, 1), "all"), ((2, 2, 2, 2), "forest")],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_walk_gives_every_kinds_report(self, seq, family, workers):
        # an isolated vertex leaves edge cover unwalked; the family of four
        # 2s holds no forest
        kinds = parameters.STABLE_KINDS
        assert ex._interval_audits(seq, kinds, family, workers) == [
            interval_audit(seq, kind, family, workers=workers) for kind in kinds
        ]

    @pytest.mark.parametrize("seq,family,kinds", ENUMERATED)
    def test_enumeration_path_matches_the_sorting_oracle(self, seq, family, kinds):
        checked = len(list(enumerate_family(seq, family)))
        for kind in kinds:
            witnesses = oracle_interval_witnesses(seq, kind, family)
            values = tuple(sorted(witnesses))
            ok = values == tuple(range(values[0], values[-1] + 1))
            expected = AuditReport(
                audit="interval",
                passed=ok,
                kind=kind,
                family=family,
                sequence=seq,
                values=values,
                interval_ok=ok,
                witnesses=witnesses,
                checked=checked,
            )
            for workers in (1, 2):
                assert interval_audit(seq, kind, family, workers=workers) == expected

    @pytest.mark.parametrize(
        "seq,kind", [((3, 1), "matching"), ((0, 0), "edge_cover"), ((2,) * 8, "matching")]
    )
    def test_unknown_family_is_rejected_on_every_path(self, seq, kind):
        # a non-graphical vector and an isolated vertex under edge cover
        # return early; order 8 reaches the enumerator
        with pytest.raises(GraphError, match="unknown family"):
            interval_audit(seq, kind, "chordal")

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_are_rejected(self, workers):
        for seq in ((2,) * 8, (2, 2, 2), (3, 1)):
            with pytest.raises(GraphError, match="at least 1"):
                interval_audit(seq, "matching", "all", workers=workers)

    def test_order_six_agrees_with_direct_scan(self):
        seq, kind = (2, 2, 2, 2, 2, 2), "independence"
        report = interval_audit(seq, kind, "all")
        direct = sorted({parameters.compute(kind, g) for g in enumerate_family(seq)})
        assert list(report.values) == direct
        assert report.checked == len(list(enumerate_family(seq)))

    @pytest.mark.parametrize("n", range(6))
    def test_matches_the_census_oracle(self, n):
        # every graphical vector to order 5, every family and kind: the
        # census read-off gives the same values, counts and verdicts as
        # enumeration; only the witnesses follow another scan order
        fields = ("values", "checked", "interval_ok", "passed", "notes")
        for seq in itertools.product(range(n), repeat=n):
            if not is_graphical(seq):
                continue
            for family in FAMILIES:
                for kind in parameters.STABLE_KINDS:
                    if kind == "edge_cover" and 0 in seq:
                        continue  # undefined: both return before any scan
                    got = interval_audit(seq, kind, family)
                    want = oracle_interval_census(seq, kind, family)
                    assert [getattr(got, f) for f in fields] == [
                        getattr(want, f) for f in fields
                    ], (seq, family, kind)

    @pytest.mark.parametrize("seq", [(2.7, 2.2, 2.9), (True, True), (2, 2, 2.0)])
    def test_non_integer_degrees_are_rejected(self, seq):
        # truncating them would audit (2, 2, 2) and (1, 1) under these names
        with pytest.raises(GraphError, match="degree must be an integer"):
            interval_audit(seq, "matching")

    @pytest.mark.parametrize("workers", [True, 2.5, "2"])
    def test_non_integer_workers_are_rejected(self, workers):
        with pytest.raises(GraphError, match="worker count must be an integer"):
            interval_audit((2, 2, 2), "matching", "all", workers=workers)
        assert interval_audit((2, 2, 2), "matching", "all", workers=np.int64(1)).passed


class TestIntervalSweep:
    @pytest.mark.parametrize("kind", parameters.STABLE_KINDS)
    def test_order_four_all_graphs(self, kind):
        report = interval_sweep(4, kind, "all")
        assert report.passed

    def test_components_constant_on_forest_families(self):
        report = interval_sweep(6, "components", "forest")
        assert report.passed and report.singletons

    def test_agrees_with_per_vector_audit(self):
        kind = "matching"
        swept = interval_sweep(4, kind, "all")
        count = 0
        for seq in itertools.product(range(4), repeat=4):
            if not is_graphical(seq):
                continue
            report = interval_audit(seq, kind, "all")
            if report.values:
                count += 1
                assert report.interval_ok
        assert swept.families == count

    def test_cap(self):
        with pytest.raises(CapExceededError):
            interval_sweep(8, "matching")

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_the_reference(self, n, family):
        for kind in parameters.STABLE_KINDS:
            expected = _reference_sweep(census(n), kind, family)
            assert interval_sweep(n, kind, family).as_dict() == expected, kind

    @pytest.mark.parametrize(
        "kind,family,families",
        [
            ("matching", "all", 111850),
            ("edge_cover", "all", 72789),
            ("matching", "forest", 2941),
            ("edge_cover", "forest", 553),
        ],
    )
    def test_order_seven_family_counts(self, kind, family, families):
        report = interval_sweep(7, kind, family)
        assert report.passed and report.families == families

    @pytest.mark.parametrize("seed", range(6))
    def test_reports_a_planted_gap(self, monkeypatch, seed):
        # lift one graph's value two above the rest of its family, so the
        # value in between is missing
        rng = random.Random(seed)
        kind = rng.choice(parameters.STABLE_KINDS)
        family = rng.choice(FAMILIES)
        cen = copy.copy(census(5))
        table = cen.tables[kind].copy()
        groups: dict[int, list[int]] = {}
        for m in _members(5, family):
            if table[m] != UNDEFINED:
                groups.setdefault(int(cen.degree_id[m]), []).append(m)
        mask, *rest = rng.choice([g for g in groups.values() if len(g) > 1])
        table[mask] = max(table[rest]) + 2
        cen.tables = {**cen.tables, kind: table}
        monkeypatch.setattr(ex, "census", lambda n: cen)

        expected = _reference_sweep(cen, kind, family)
        report = interval_sweep(5, kind, family)
        assert report.passed is False
        assert expected["passed"] is False
        assert report.as_dict() == expected
        assert report.bad_sequence == degree_sequence(cen.graph(mask))

    # sha256 over the JSON of every order-7 report, kinds then families
    ORDER_SEVEN_DIGEST = "8e286898840ae432176b31e59cebd1f92dfdf7121dc5ed8a96f174b68cda533d"

    def test_order_seven_wire_format(self):
        # n <= 5 is compared with the reference above and n <= 6 fits in
        # one run of masks; order 7 is the order that takes 32 runs
        h = hashlib.sha256()
        for kind in parameters.STABLE_KINDS:
            for family in FAMILIES:
                report = interval_sweep(7, kind, family).as_dict()
                h.update(json.dumps(report, sort_keys=True).encode() + b"\n")
        assert h.hexdigest() == self.ORDER_SEVEN_DIGEST

    @pytest.mark.parametrize(
        "kind,family,where",
        [
            ("matching", "all", "first"),
            ("clique", "all", "middle"),
            ("path_cover", "all", "last"),
            ("domination", "unicyclic", "last"),
            ("edge_cover", "all", "first"),
            ("edge_cover", "all", "middle"),
            ("edge_cover", "all", "last"),
            ("edge_cover", "bipartite", "last"),
        ],
    )
    def test_planted_gap_in_each_run(self, monkeypatch, kind, family, where):
        # order 7 marks its members in runs of RUN: plant a gap, as above,
        # at a member of the family's first, middle or last run; an edge
        # cover gap goes at a mask whose next or previous mask is undefined
        cen = copy.copy(census(7))
        unplanted = interval_sweep(7, kind, family)
        table = cen.tables[kind].copy()
        members = np.flatnonzero(ex._family_selector(cen, family))
        runs = -(-members.size // RUN)
        r = {"first": 0, "middle": runs // 2, "last": runs - 1}[where]
        span = members[r * RUN : (r + 1) * RUN]
        if kind == "edge_cover":
            below, above = np.maximum(span - 1, 0), np.minimum(span + 1, cen.n_masks - 1)
            beside = (table[below] == UNDEFINED) | (table[above] == UNDEFINED)
            span = span[(table[span] != UNDEFINED) & beside]
        ids = cen.degree_id[members]
        top = 6 if kind == "edge_cover" else 7  # largest value that can occur
        for mask in span:
            group = members[ids == cen.degree_id[mask]]
            rest = table[group[group != mask]]
            if rest.size and int(rest.max()) + 2 <= top:
                table[mask] = rest.max() + 2
                break
            if rest.size and int(rest.min()) >= 2:
                table[mask] = rest.min() - 2
                break
        else:
            pytest.fail("no member of the run can carry a gap")
        if where == "last" and family == "all":
            assert mask >= cen.n_masks - RUN
        cen.tables = {**cen.tables, kind: table}
        monkeypatch.setattr(ex, "census", lambda n: cen)

        report = interval_sweep(7, kind, family)
        assert unplanted.passed and report.passed is False
        assert report.families == unplanted.families
        assert report.bad_sequence == degree_sequence(cen.graph(int(mask)))

    def test_memory_is_bounded(self):
        """The stated limit of the docstring: with census(7) built, no
        order-7 sweep allocates more than 6 MB (MB = 2^20 bytes, numpy's
        arrays as tracemalloc sees them).  Measured peaks, matching and
        edge cover alike: 'all' 1.9 MB, 'forest' 2.3, 'tree' 2.1,
        'unicyclic' 4.0 and 'bipartite' 3.0.  One whole-order int32 index
        and an int16 unicyclic selector read 8.9 MB ('all', matching),
        10.9 MB ('all', edge cover) and 16.0 MB ('unicyclic')."""
        census(7)
        peaks = {}
        for kind in ("matching", "edge_cover"):
            for family in FAMILIES:
                tracemalloc.start()
                try:
                    interval_sweep(7, kind, family)
                    peaks[kind, family] = tracemalloc.get_traced_memory()[1] / (1 << 20)
                finally:
                    tracemalloc.stop()
        assert max(peaks.values()) <= 6, peaks


class TestRealizeParameterValue:
    def test_every_value_in_range(self):
        for value in (2, 3):
            g = realize_parameter_value((2,) * 6, "independence", value, "all")
            assert parameters.compute("independence", g) == value
            assert degree_sequence(g) == (2,) * 6

    def test_forest_walk(self):
        g = realize_parameter_value((3, 2, 2, 2, 1, 1, 1), "domination", 2, "forest")
        assert is_forest(g)
        assert parameters.compute("domination", g) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueOutOfRangeError):
            realize_parameter_value((2,) * 6, "independence", 5, "all")

    def test_family_restriction(self):
        with pytest.raises(GraphError):
            realize_parameter_value((2,) * 6, "independence", 2, "unicyclic")

    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_non_integer_value_is_rejected(self, value):
        # 2.5 lies inside [2, 3] but no member attains it
        with pytest.raises(GraphError, match="parameter value must be an integer"):
            realize_parameter_value((2,) * 6, "independence", value, "all")


class TestEdgeDiffAudit:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_no_single_edge_moves(self, n):
        report = edge_diff_audit(n)
        assert report.passed
        if n >= 3:  # two vertices leave no second slot to move an edge to
            assert report.checked > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_reports_a_planted_collision(self, monkeypatch, seed):
        # give one graph the degree id of a graph one edge move away
        cen = copy.copy(census(5))
        ids = cen.degree_id.copy()
        rng = random.Random(seed)
        mask = rng.randrange(1, cen.full_mask)
        kdel = rng.choice([k for k in range(cen.n_slots) if mask >> k & 1])
        kadd = rng.choice([k for k in range(cen.n_slots) if not mask >> k & 1])
        ids[mask ^ (1 << kdel) ^ (1 << kadd)] = ids[mask]
        cen.degree_id = ids
        monkeypatch.setattr(ex, "census", lambda n: cen)

        # reference: the same moves in the same order, by boolean selection
        moves = [
            (d, a) for d in range(cen.n_slots) for a in range(cen.n_slots) if a != d
        ]
        masks = np.arange(cen.n_masks)
        for position, (d, a) in enumerate(moves):
            bits = (1 << d) | (1 << a)
            cur = masks[(masks & bits) == 1 << d]
            hits = cur[ids[cur ^ bits] == ids[cur]]
            if hits.size:
                break
        else:
            pytest.fail("the planted collision was not found by the reference")

        report = edge_diff_audit(5)
        assert not report.passed
        g, h = report.counterexample
        assert len(g.edges - h.edges) == 1 and len(h.edges - g.edges) == 1
        assert (cen.mask_of(g), cen.mask_of(h)) == (int(hits[0]), int(hits[0]) ^ bits)
        assert report.checked == (position + 1) * (cen.n_masks >> 2)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            edge_diff_audit(9)


class TestAreIsomorphic:
    def test_relabelled_path(self):
        p = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        q = Graph(5, [(3, 5), (5, 1), (1, 4), (4, 2)])
        assert are_isomorphic(p, q)

    def test_same_vector_different_shape(self):
        c6 = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        cc = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        assert not are_isomorphic(c6, cc)

    def test_quick_rejects(self):
        assert not are_isomorphic(Graph(3), Graph(4))
        assert not are_isomorphic(Graph(3, [(1, 2)]), Graph(3))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            are_isomorphic(Graph(13), Graph(13))

    def test_regular_graphs_need_backtracking(self):
        # colour refinement splits no regular graph, so every map comes
        # from the backtracking search, which must undo its dead ends
        prism = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
        k33 = [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]
        c8 = [(v, v % 8 + 1) for v in range(1, 9)]
        rng = random.Random(8)
        for edges in (prism, k33, c8):
            g = Graph(max(map(max, edges)), edges)
            for _ in range(20):
                perm = dict(zip(g.vertices(), rng.sample(list(g.vertices()), g.n)))
                assert are_isomorphic(g, Graph(g.n, [(perm[u], perm[v]) for u, v in edges]))
        assert not are_isomorphic(Graph(6, prism), Graph(6, k33))

    @settings(max_examples=40, deadline=None)
    @given(forests(max_n=7))
    def test_invariant_under_relabelling(self, f):
        perm = {v: f.n + 1 - v for v in f.vertices()}
        h = Graph(f.n, [(perm[u], perm[v]) for u, v in f.edges])
        assert are_isomorphic(f, h)


@pytest.fixture(scope="module")
def bipartite_report():
    """One default run of the bipartite check, whose 232-state closure
    takes about a second; the report is frozen, so tests can share it."""
    return bipartite_counterexample_check()


class TestBipartitePair:
    def test_all_gates(self, bipartite_report):
        report = bipartite_report
        assert report.passed
        assert report.same_degree_vector
        assert report.both_bipartite
        assert report.both_connected
        assert report.non_isomorphic
        assert report.parts_differ
        assert report.one_step_invariant
        assert report.switches_checked > 100
        assert report.closure.complete and not report.closure.reached_target

    def test_exhausted_budget_is_incomplete(self, monkeypatch):
        # a closure cut short proves nothing, so the check fails
        monkeypatch.setattr(ex, "CLOSURE_STATES", 5)
        report = bipartite_counterexample_check()
        assert not report.closure.complete
        assert not report.closure.reached_target
        assert report.one_step_invariant and report.parts_differ
        assert not report.passed

    @pytest.mark.parametrize(
        "budget, expected",
        [
            (5, (5, 25, False, False)),
            (50, (50, 43, False, False)),
            (2000, (232, 0, False, True)),
        ],
    )
    def test_closure_at_pinned_budgets(self, monkeypatch, request, budget, expected):
        if budget == ex.CLOSURE_STATES:  # the default run
            c = request.getfixturevalue("bipartite_report").closure
        else:
            monkeypatch.setattr(ex, "CLOSURE_STATES", budget)
            c = bipartite_counterexample_check().closure
        assert (c.explored, c.frontier, c.reached_target, c.complete) == expected


    def test_closure_checks_each_candidate_once(self, fig2_graphs, monkeypatch):
        # one walk per expanded state: every candidate matrix meets the
        # switch rule once, and no switched graph is checked again to be built
        counts = {"rule": 0, "candidates": 0}
        rule, candidates = switch._rewiring, switch.candidate_matrices

        def counted_rule(m, edges):
            counts["rule"] += 1
            return rule(m, edges)

        def counted_candidates(sorted_edges):
            for m in candidates(sorted_edges):
                counts["candidates"] += 1
                yield m

        monkeypatch.setattr(switch, "_rewiring", counted_rule)
        monkeypatch.setattr(switch, "candidate_matrices", counted_candidates)
        g0, g1 = fig2_graphs
        reach = explore(g0, is_bipartite, goal=g1, max_states=ex.CLOSURE_STATES)
        assert (reach.explored, reach.complete) == (232, True)
        assert counts["rule"] == counts["candidates"] > 0


class TestExplore:
    def test_goal_is_start(self):
        g = Graph(4, [(1, 2), (3, 4)])
        reach = explore(g, is_forest, goal=g, max_states=1)
        assert reach.found and not reach.complete
        assert reach.explored == 0
        assert reach.route(g) == ()

    def test_budget_exhaustion(self, fig2_graphs):
        g0, g1 = fig2_graphs
        reach = explore(g0, is_bipartite, goal=g1, max_states=7)
        assert not reach.found and not reach.complete
        assert reach.explored == 7
        assert reach.frontier == len(reach.parents) - 7

    def test_whole_component_without_goal(self):
        members = list(enumerate_family((2, 2, 2, 2, 2)))
        reach = explore(members[0], lambda g: True, max_states=len(members))
        assert reach.complete and not reach.found
        assert reach.frontier == 0
        assert reach.explored == len(members)
        assert set(reach.parents) == {g.edges for g in members}

    @pytest.mark.parametrize(
        "seq, keep",
        [
            ((3, 2, 2, 1, 1, 1), is_forest),
            ((3, 2, 2, 2, 2, 1), is_unicyclic),
            ((2, 2, 2, 2, 1, 1), is_bipartite),
        ],
    )
    def test_every_route_replays_inside_keep(self, seq, keep):
        members = list(enumerate_family(seq))
        start = next(g for g in members if keep(g))
        reach = explore(start, keep, max_states=len(members))
        assert reach.complete and len(reach.parents) > 1
        for key in reach.parents:
            goal = Graph(start.n, key)
            walk = replay(SwitchTrace(start, reach.route(goal)))
            assert walk[-1] == goal
            assert all(keep(x) for x in walk)

    def test_goal_search_stops_at_the_goal(self):
        members = list(enumerate_family((3, 2, 2, 1, 1, 1), "forest"))
        full = explore(members[0], is_forest, max_states=len(members))
        for goal in members[1:]:
            reach = explore(members[0], is_forest, goal=goal, max_states=len(members))
            assert reach.found and not reach.complete
            # the goal is discovered but never queued or expanded
            assert reach.frontier == len(reach.parents) - 1 - reach.explored
            assert reach.route(goal) == full.route(goal)

    def test_keep_is_asked_only_about_unseen_states(self):
        # a rejected state may be met and asked about again; an accepted
        # one is seen from then on and never asked about twice
        members = list(enumerate_family((2, 2, 2, 2, 1, 1)))
        asked = []

        def keep(g):
            asked.append(g.edges)
            return is_bipartite(g)

        start = next(g for g in members if is_bipartite(g))
        reach = explore(start, keep, max_states=len(members))
        assert reach.complete
        accepted = [e for e in asked if e in reach.parents]
        assert len(accepted) == len(set(accepted)) == len(reach.parents) - 1
        assert start.edges not in asked

    def test_route_to_an_unreached_graph_raises(self):
        u = Graph(6, [(1, 5), (1, 6), (2, 3), (2, 4), (3, 4)])
        v = Graph(6, [(1, 3), (1, 4), (2, 5), (2, 6), (3, 4)])
        reach = explore(u, is_unicyclic, goal=v, max_states=10)
        assert reach.complete and reach.explored == 1
        with pytest.raises(GraphError):
            reach.route(v)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_is_rejected(self, bound):
        with pytest.raises(GraphError):
            explore(Graph(2, [(1, 2)]), is_forest, max_states=bound)

    def test_goal_of_another_order_is_rejected(self):
        # edge sets alone would make the two empty graphs one state
        with pytest.raises(GraphError):
            explore(Graph(3), is_forest, goal=Graph(4), max_states=5)


class TestConstrainedSearch:
    def test_vector_mismatch_is_definitive(self):
        res = constrained_transition_search(
            Graph(3, [(1, 2)]), Graph(3, [(1, 2), (2, 3)])
        )
        assert not res.found and res.complete

    def test_identity(self):
        g = Graph(4, [(1, 2), (3, 4)])
        res = constrained_transition_search(g, g)
        assert res.found and res.trace.steps == ()

    def test_forest_route(self, fig1_graphs):
        g0, _, g2 = fig1_graphs
        res = constrained_transition_search(g0, g2, "forest")
        assert res.found
        seq = replay(res.trace)
        assert seq[-1] == g2
        assert all(is_forest(x) for x in seq)

    def test_shortest_route_on_the_stubborn_pair(self):
        f = Graph(8, [(1, 2), (2, 6), (3, 4), (3, 7), (4, 5), (5, 8), (6, 7)])
        g = Graph(8, [(1, 3), (2, 5), (2, 6), (3, 4), (4, 5), (6, 7), (7, 8)])
        res = constrained_transition_search(f, g, "forest")
        assert res.found and len(res.trace.steps) == 3
        v = validate_trace(res.trace, g, require_forests=True)
        assert v.ok

    def test_forest_route_carries_its_judgement(self):
        f = Graph(8, [(1, 2), (2, 6), (3, 4), (3, 7), (4, 5), (5, 8), (6, 7)])
        g = Graph(8, [(1, 3), (2, 5), (2, 6), (3, 4), (4, 5), (6, 7), (7, 8)])
        trace = constrained_transition_search(f, g, "forest").trace
        kinds = validate_trace(trace, g, require_forests=True).kinds
        assert trace.kinds == kinds == (SwitchKind.T_SWITCH,) * 3  # two trees

    def test_bipartite_route_carries_its_judgement(self):
        # from a 4-cycle with a pendant path to a 6-cycle with a pendant
        # vertex; every intermediate has a cycle
        g = Graph(6, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 6)])
        h = Graph(6, [(1, 2), (1, 3), (1, 5), (2, 4), (3, 4), (5, 6)])
        trace = constrained_transition_search(g, h, "bipartite").trace
        assert trace.kinds == validate_trace(trace, h).kinds == (SwitchKind.PLAIN,) * 3

    def test_budget_below_one_is_rejected(self):
        g = Graph(4, [(1, 2), (3, 4)])
        with pytest.raises(GraphError):
            constrained_transition_search(g, g, budget=0)

    @pytest.mark.parametrize("budget", [True, 2.5, "2"])
    def test_non_integer_budget_is_rejected(self, budget):
        g = Graph(4, [(1, 2), (3, 4)])
        with pytest.raises(GraphError, match="search budget must be an integer"):
            constrained_transition_search(g, g, budget=budget)
        assert constrained_transition_search(g, g, budget=np.int64(1)).found

    def test_budget_exhaustion_is_inconclusive(self):
        f = Graph(8, [(1, 2), (2, 6), (3, 4), (3, 7), (4, 5), (5, 8), (6, 7)])
        g = Graph(8, [(1, 3), (2, 5), (2, 6), (3, 4), (4, 5), (6, 7), (7, 8)])
        res = constrained_transition_search(f, g, "forest", budget=1)
        assert not res.found and not res.complete

    def test_family_gate(self):
        tri = Graph(4, [(1, 2), (2, 3), (1, 3)])
        tri2 = Graph(4, [(1, 2), (2, 4), (1, 4)])
        res = constrained_transition_search(tri, tri2, "forest")
        assert not res.found and res.complete and res.explored == 0

    def test_unicyclic_families_connected_order_five(self):
        # every same-vector unicyclic pair is joined through unicyclic
        # intermediates at this order
        from twoswitch.graphs import is_unicyclic

        seen_any = False
        for seq in [(2, 2, 2, 2, 2), (2, 2, 2, 1, 1), (3, 2, 2, 2, 1), (2, 2, 2, 2, 0)]:
            members = list(enumerate_family(seq, "unicyclic"))
            for g in members[1:]:
                res = constrained_transition_search(members[0], g, "unicyclic")
                assert res.found
                assert all(is_unicyclic(x) for x in replay(res.trace))
                seen_any = True
        assert seen_any

    def test_triangle_plus_path_is_frozen(self):
        # a triangle with a disjoint 2-edge path admits no switch that
        # keeps exactly one cycle, so its family falls apart at order 6
        u = Graph(6, [(1, 5), (1, 6), (2, 3), (2, 4), (3, 4)])
        v = Graph(6, [(1, 3), (1, 4), (2, 5), (2, 6), (3, 4)])
        assert degree_sequence(u) == degree_sequence(v)
        res = constrained_transition_search(u, v, "unicyclic")
        assert not res.found
        assert res.complete  # the whole reachable set is just the start
        assert res.explored == 1

    def test_connected_unicyclic_families_joined_order_six(self):
        # restricting to one-component members, every order-6 family is
        # a single switch component
        from twoswitch.graphs import is_unicyclic, kappa
        from twoswitch.switch import apply_switch, nontrivial_matrices

        cen = census(6)
        from twoswitch.explorer import _family_selector

        def unicyclic_moves(g):
            switched = (apply_switch(m, g) for m in nontrivial_matrices(g))
            return filter(is_unicyclic, switched)

        groups = {}
        for mask in np.nonzero(_family_selector(cen, "unicyclic"))[0]:
            groups.setdefault(int(cen.degree_id[mask]), []).append(cen.graph(int(mask)))
        families = 0
        for members in groups.values():
            if kappa(members[0]) != 1 or len(members) == 1:
                continue
            families += 1
            seen = oracle_distances(members[0], unicyclic_moves)
            assert all(g in seen for g in members)
        assert families > 300
