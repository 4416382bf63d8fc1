"""The four workloads: seeded inputs, timed operations, output checks.

Each workload has three parts.  ``prepare`` builds the inputs from the
seed and does any program work that must precede timing (the census, the
route screen); it counts as set-up.  ``round`` runs the timed operations
through ``Run.call`` and returns their outputs.  ``verify`` checks those
outputs against ``checks`` and raises CheckError on a mismatch; it runs
outside the timed region.  Every round runs the same operations.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent


class OpTimeout(Exception):
    """An operation ran past its per-operation time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout


FAILED = object()


class Run:
    """Book-keeping for one run: operation times, failures and counts."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_s = []
        self.attempted = 0
        self.failed = 0
        self.counts = {}
        self.slowest_ok_s = 0.0
        signal.signal(signal.SIGALRM, _on_alarm)

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, fn, *args, limit=None):
        """One timed call; returns (result or FAILED, seconds)."""
        self.attempted += 1
        depth = len(self.tracer.stack) if self.tracer else 0
        start = time.perf_counter()
        try:
            if limit:
                signal.setitimer(signal.ITIMER_REAL, limit)
            result = fn(*args)
        except OpTimeout:
            result = FAILED
        finally:
            if limit:
                signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        if result is FAILED:
            self.failed += 1
            if self.tracer:
                del self.tracer.stack[depth:]
        else:
            self.slowest_ok_s = max(self.slowest_ok_s, elapsed)
        return result, elapsed

    def op(self, fn, *args, limit=None):
        """A call that is also one operation sample for the percentiles."""
        result, elapsed = self.call(fn, *args, limit=limit)
        self.op_s.append(elapsed)
        return result


def _edges(g):
    return sorted(g.edges)


# -- forest_routes ----------------------------------------------------------------


class _Plateau(Exception):
    """The route reached the plateau fallback search."""


def _refuse_plateau(*args):
    raise _Plateau


class ForestRoutes:
    """transition_forest on seeded same-degree forest pairs at order 100.

    Candidate pairs alternate trees (a Pruefer code and a shuffle of it)
    with forests of 2 to 5 components.  Set-up routes every candidate once
    with the plateau fallback replaced by a refusal and keeps the first
    100 that never reach it, so the seeded pairs exercise the greedy route
    only.  Two fixed pairs that do reach the fallback, and were still in it
    after 12 s, run every round under the per-pair limit and count as
    failed.
    """

    N = 100
    PAIRS = 100
    LIMIT_S = 1.5  # 5x the slowest screened pair seen; plateau pairs run past 12 s
    SCREEN_LIMIT_S = 5.0

    def __init__(self, api, seed):
        self.api = api
        self.seed = seed

    def _candidates(self):
        rng = random.Random(self.seed)
        i = 0
        while True:
            k = 1 if i % 5 < 3 else 2 + i % 4
            yield inputs.forest_pair(rng, self.N, k)
            i += 1

    def prepare(self, run):
        api = self.api
        transition = sys.modules["twoswitch.transition"]
        original = transition._search_completion
        self.pairs = []
        dropped = 0
        transition._search_completion = _refuse_plateau
        try:
            for a, b in self._candidates():
                if len(self.pairs) == self.PAIRS:
                    break
                f, g = api.Graph(self.N, a), api.Graph(self.N, b)
                try:
                    signal.setitimer(signal.ITIMER_REAL, self.SCREEN_LIMIT_S)
                    api.transition_forest(f, g)
                except _Plateau:
                    dropped += 1
                    continue
                except OpTimeout:
                    pass  # kept: the timed rounds will report it as failed
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                self.pairs.append((a, b, f, g))
        finally:
            transition._search_completion = original
        run.counts["transition.plateau_dropped"] = dropped
        fixed = json.loads((HERE / "plateau_pairs.json").read_text())
        self.plateau = [
            (p["source"], p["target"], api.Graph(self.N, p["source"]), api.Graph(self.N, p["target"]))
            for p in fixed
        ]

    def round(self, run):
        out = []
        for a, b, f, g in self.pairs + self.plateau:
            out.append((a, b, run.op(self.api.transition_forest, f, g, limit=self.LIMIT_S)))
        return out

    def verify(self, out, run):
        for a, b, trace in out:
            if trace is FAILED:
                continue
            checks.require(_edges(trace.initial) == sorted(a), "trace starts off its source")
            steps = [m.labels() for m in trace.steps]
            checks.check_route(self.N, a, b, steps, "forest")
            run.count("transition.switches", len(steps))
            run.count("transition.edges_to_add", len(set(b) - set(a)))


# -- order_audit ---------------------------------------------------------------------


class OrderAudit:
    """scripts/run_audits.py at its default order 7, through the library.

    Set-up builds census(n) for n = 1..7.  A round runs stability_sweep,
    interval_sweep for all nine kinds over the 'all' and 'forest'
    families, and edge_diff_audit, at every order; the 20 order-7 calls
    are the operation samples.  The inputs are exhaustive; the seed only
    picks the order-7 graphs whose census rows are recomputed by brute
    force.
    """

    ORDER = 7
    SAMPLE = 40

    def __init__(self, api, seed):
        self.api = api
        self.seed = seed
        self.kinds = api.STABLE_KINDS
        self.tables_checked = False

    def prepare(self, run):
        for n in range(1, self.ORDER + 1):
            self.api.census(n)

    def round(self, run):
        api = self.api
        out = {"stability": {}, "interval": [], "edge_diff": {}}

        def call(fn, *args):
            # the order-7 calls are the operation samples; lower orders take
            # microseconds of per-call overhead and would only add noise
            if args[0] == self.ORDER:
                return run.op(fn, *args)
            return run.call(fn, *args)[0]

        for n in range(1, self.ORDER + 1):
            out["stability"][n] = call(api.stability_sweep, n)
        for n in range(1, self.ORDER + 1):
            for kind in self.kinds:
                for family in ("all", "forest"):
                    out["interval"].append(call(api.interval_sweep, n, kind, family))
        for n in range(2, self.ORDER + 1):
            out["edge_diff"][n] = call(api.edge_diff_audit, n)
        return out

    def verify(self, out, run):
        for n, reports in out["stability"].items():
            for kind, report in reports.items():
                checks.require(report.passed, f"stability of {kind} fails at n={n}")
                if kind != "edge_cover":
                    checks.require(
                        report.checked == checks.switch_incidences(n),
                        f"stability of {kind} at n={n} checked {report.checked}",
                    )
                run.count("explorer.incidences", report.checked)
        for report in out["interval"]:
            checks.require(report.passed, f"interval sweep fails: {report.as_dict()}")
        for n, report in out["edge_diff"].items():
            checks.require(report.passed, f"edge-move audit fails at n={n}")
            checks.require(
                report.checked == checks.edge_moves(n),
                f"edge-move audit at n={n} checked {report.checked}",
            )
        if self.tables_checked:
            return
        for n in range(1, self.ORDER + 1):
            forests = int(self.api.census(n).forest.sum())
            checks.require(
                forests == checks.labelled_forests(n),
                f"census counts {forests} forests at n={n}",
            )
        cen = self.api.census(self.ORDER)
        rng = random.Random(self.seed)
        slots = [(u, v) for u in range(1, self.ORDER) for v in range(u + 1, self.ORDER + 1)]
        for mask in rng.sample(range(cen.n_masks), self.SAMPLE):
            edges = [slots[k] for k in range(len(slots)) if mask >> k & 1]
            checks.require(_edges(cen.graph(mask)) == edges, f"census mask {mask} decodes wrongly")
            for kind in self.kinds:
                value = int(cen.tables[kind][mask])
                if kind == "edge_cover" and checks.edge_cover(self.ORDER, edges) is None:
                    continue
                checks.check_parameter(kind, self.ORDER, edges, value)
        self.tables_checked = True


# -- family_search -------------------------------------------------------------------


def _permuted(rng, seq):
    seq = list(seq)
    rng.shuffle(seq)
    return tuple(seq)


class FamilySearch:
    """Many small graphs through the per-graph path above the census cap.

    Every seed relabels fixed shapes: degree vectors are seeded
    permutations of fixed multisets, and search pairs are a seeded vertex
    permutation applied to fixed base pairs, so every seed does the same
    work up to isomorphism while the labels, and with them the program's
    tie orders, change.  The operation samples are batches of order-7
    forests, each forest built, matched and ranked.
    """

    ENUMERATE = (
        ((3, 3, 2, 2, 2, 1, 1, 1, 1), "tree"),
        ((4, 2, 2, 2, 1, 1, 1, 1), "tree"),
        ((3, 2, 2, 1, 1, 1, 1, 1), "forest"),
        ((2, 2, 2, 2, 2, 2, 1, 1), "forest"),
        ((3, 3, 2, 2, 2, 2, 1, 1), "unicyclic"),
        ((3, 3, 2, 2, 2, 2, 1, 1), "bipartite"),
        ((3, 3, 2, 2, 2, 2, 1, 1), "all"),
    )
    INTERVAL = (
        ((4, 2, 2, 2, 1, 1, 1, 1), "tree", "all kinds"),
        ((3, 3, 2, 2, 2, 1, 1, 1, 1), "tree", ("path_cover", "domination")),
        ((3, 3, 2, 2, 2, 2, 1, 1), "all", ("matching", "chromatic")),
    )
    SEARCH_FAMILIES = ("forest", "tree", "unicyclic", "bipartite")
    SEARCHES = 4  # per family
    FOREST_ORDER = 7
    FOREST_SAMPLE = 200
    # forests per operation: 36,961 = 23 * 1607.  One forest takes about
    # 70 us while this machine's speed swings by half on a scale of tens of
    # milliseconds, so an operation is a batch of about 0.1 s
    BATCH = 1607

    def __init__(self, api, seed):
        self.api = api
        self.seed = seed

    def prepare(self, run):
        api = self.api
        rng = random.Random(self.seed)
        base = random.Random("family_search bases")
        self.enumerate = [(_permuted(rng, seq), fam) for seq, fam in self.ENUMERATE]
        self.interval = []
        for seq, fam, kinds in self.INTERVAL:
            kinds = api.STABLE_KINDS if kinds == "all kinds" else kinds
            self.interval.extend((_permuted(rng, seq), kind, fam) for kind in kinds)
        self.searches = []
        for family in self.SEARCH_FAMILIES:
            seq = next(s for s, f in self.ENUMERATE if f == family)
            members = sorted(_edges(g) for g in api.enumerate_family(seq, family))
            for _ in range(self.SEARCHES):
                a, b = base.sample(members, 2)
                perm = inputs.permutation(rng, len(seq))
                a, b = inputs.relabel(a, perm), inputs.relabel(b, perm)
                n = len(seq)
                self.searches.append((n, a, b, family, api.Graph(n, a), api.Graph(n, b)))
        forests = checks.labelled_forests(self.FOREST_ORDER)
        self.sample = set(random.Random(self.seed).sample(range(forests), self.FOREST_SAMPLE))
        g0, g1 = api.fig2()
        perm = inputs.permutation(rng, g0.n)
        a, b = inputs.relabel(_edges(g0), perm), inputs.relabel(_edges(g1), perm)
        self.component = (g0.n, a, b, api.Graph(g0.n, a), api.Graph(g0.n, b))

    def round(self, run):
        api = self.api
        out = {"enumerate": [], "interval": [], "search": []}
        for seq, family in self.enumerate:
            members, _ = run.call(lambda: list(api.enumerate_family(seq, family)))
            out["enumerate"].append((seq, family, members))
        for seq, kind, family in self.interval:
            report, _ = run.call(lambda: api.interval_audit(seq, kind, family, workers=1))
            out["interval"].append((seq, kind, family, report))
        for n, a, b, family, g, h in self.searches:
            result, _ = run.call(api.constrained_transition_search, g, h, family)
            out["search"].append((n, a, b, family, result))
        n, a, b, g, h = self.component
        out["component"], _ = run.call(api.constrained_transition_search, g, h, "bipartite")
        out["bipartite"], _ = run.call(api.bipartite_counterexample_check)
        order = self.FOREST_ORDER
        # keep plain ints, and edges only for the brute-force sample, so the
        # benchmark's own bookkeeping adds no objects for the collector to scan
        matchings, ranks, sampled = [], [], {}

        def evaluate(batch):
            for edges in batch:
                g = api.Graph(order, edges)
                matchings.append(api.compute("matching", g))
                ranks.append(api.adjacency_rank(g))

        batch = []
        for i, edges in enumerate(api.enumerate_forests(order)):
            if i in self.sample:
                sampled[i] = edges
            batch.append(edges)
            if len(batch) == self.BATCH:
                run.op(evaluate, batch)
                batch = []
        if batch:
            run.op(evaluate, batch)
        out["forests"] = (matchings, ranks, sampled)
        return out

    def verify(self, out, run):
        for seq, family, members in out["enumerate"]:
            expected = checks.tree_count(seq) if family == "tree" else None
            checks.check_family(seq, family, [_edges(g) for g in members], expected)
        for seq, kind, family, report in out["interval"]:
            checks.check_interval(report.values)
            if family == "tree":
                checks.require(report.checked == checks.tree_count(seq), f"{seq} tree family size")
            n = len(seq)
            for value, g in report.witnesses.items():
                edges = _edges(g)
                checks.check_family(seq, family, [edges])
                checks.check_parameter(kind, n, edges, value)
        for n, a, b, family, result in out["search"]:
            checks.require(result.found, f"no {family} route between {a} and {b}")
            steps = [m.labels() for m in result.trace.steps]
            checks.check_route(n, a, b, steps, family)
            run.count("explorer.states_explored", result.explored)
        component, report = out["component"], out["bipartite"]
        checks.require(
            not component.found and component.complete,
            "relabelled fig2 pair must lie in different bipartite components",
        )
        checks.require(report.passed, f"bipartite counterexample check fails: {report.as_dict()}")
        closure = report.closure
        checks.require(closure.complete and not closure.reached_target, "closure incomplete or hit its target")
        checks.require(
            component.explored == closure.explored,
            f"component of {component.explored} states vs closure of {closure.explored}",
        )
        run.count("explorer.states_explored", component.explored + closure.explored)
        matchings, ranks, sampled = out["forests"]
        checks.require(
            len(matchings) == checks.labelled_forests(self.FOREST_ORDER),
            f"{len(matchings)} forests of order {self.FOREST_ORDER}",
        )
        for i, (mu, rank) in enumerate(zip(matchings, ranks)):
            checks.require(rank == 2 * mu, f"forest {i}: rank {rank} != 2 * matching {mu}")
        checks.require(sampled.keys() == self.sample, "sampled forests missing")
        for i, edges in sampled.items():
            checks.check_parameter("matching", self.FOREST_ORDER, list(edges), matchings[i])


# -- large_params -----------------------------------------------------------------------


class LargeParams:
    """All nine kinds plus adjacency_rank on seeded graphs of order 12-20.

    Graphs are uniform G(n, m) with m = C(n, 2) / 2, redrawn until no
    vertex is isolated; at this density the exact DPs' cost varies least
    from graph to graph.  Every call runs under a two-second limit.  The
    path cover DP enumerates all 3^n submask pairs whatever the edges, so
    it is evaluated once per order on a fixed graph that does not depend
    on the seed: at n = 12 it completes, at 16 and 20 it fails.  The
    operation samples are the per-graph evaluations at the top order.
    """

    GRAPHS = {12: 8, 16: 8, 20: 32}
    DENSITY = 0.5
    # 6x the slowest completing call seen (0.32 s, over 200 graphs at n = 20);
    # path cover needs about 5 s at n = 16
    LIMIT_S = 2.0

    def __init__(self, api, seed):
        self.api = api
        self.seed = seed
        self.kinds = [k for k in api.STABLE_KINDS if k != "path_cover"]

    def _edges_for(self, rng, n):
        return inputs.gnm_no_isolated(rng, n, round(self.DENSITY * n * (n - 1) / 2))

    def prepare(self, run):
        api = self.api
        rng = random.Random(self.seed)
        self.graphs = []
        self.fixed = []
        for n, count in self.GRAPHS.items():
            for _ in range(count):
                edges = self._edges_for(rng, n)
                self.graphs.append((n, edges, api.Graph(n, edges)))
            edges = self._edges_for(random.Random(f"path_cover {n}"), n)
            self.fixed.append((n, edges, api.Graph(n, edges)))

    def round(self, run):
        api = self.api
        top = max(self.GRAPHS)
        out = {"graphs": [], "path_cover": []}
        for n, edges, g in self.graphs:
            values = {}
            spent = 0.0
            for kind in self.kinds:
                values[kind], dt = run.call(api.compute, kind, g, limit=self.LIMIT_S)
                spent += dt
            values["rank"], dt = run.call(api.adjacency_rank, g, limit=self.LIMIT_S)
            if n == top:
                run.op_s.append(spent + dt)
            out["graphs"].append((n, edges, g, values))
        for n, edges, g in self.fixed:
            value, _ = run.call(api.compute, "path_cover", g, limit=self.LIMIT_S)
            out["path_cover"].append((n, edges, g, value))
        return out

    def _complement_alpha(self, n, edges):
        present = set(edges)
        others = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1) if (u, v) not in present]
        return self.api.compute("independence", self.api.Graph(n, others))

    def verify(self, out, run):
        for n, edges, g, values in out["graphs"]:
            failed = [k for k, v in values.items() if v is FAILED]
            if failed:
                continue
            checks.check_large_params(n, edges, values, self._complement_alpha(n, edges))
        for n, edges, g, value in out["path_cover"]:
            if value is FAILED:
                continue
            alpha = self.api.compute("independence", g)
            checks.require(1 <= value <= alpha, f"path cover {value} above independence {alpha}")


WORKLOADS = {
    "forest_routes": ForestRoutes,
    "order_audit": OrderAudit,
    "family_search": FamilySearch,
    "large_params": LargeParams,
}
