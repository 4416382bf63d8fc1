"""Family-level experiments: enumeration, audits, searches.

A family is all graphs sharing one degree vector, optionally restricted
to forests, trees, unicyclic or bipartite members.  The audits confirm
the two headline behaviours of the 2-switch on these families: every
parameter moves by at most one per switch, and the value set of a
parameter over a family is a full integer interval.

The three order-wide sweeps (``stability_sweep``, ``interval_sweep``,
``edge_diff_audit``) are independent numpy passes over census tables:
switch pairs, runs of ``census.RUN`` masks and edge moves.  Each sweep
splits its passes into interleaved shares over ``sweep_workers(n)``
threads, one per usable CPU, at most one per run of masks and at most
``SWEEP_THREADS_CAP`` = 3, so orders up to 6 run on the calling thread
alone; numpy releases the GIL inside each kernel.  At n = 7 each thread
holds one buffer: 1.2 MB for stability, 0.9 + 0.5 MB for an interval
sweep, 0.5 MB for edge moves.  No report depends on the thread count.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from . import parameters
from .census import RUN, UNDEFINED, census, runs_of, slot_mask, slot_view
from .fixtures import fig2
from .graphs import (
    CapExceededError,
    Graph,
    GraphError,
    _integer,
    bipartition,
    degree_sequence,
    is_bipartite,
    is_forest,
    is_graphical,
    is_tree,
    is_unicyclic,
    kappa,
)
from .switch import ActionMatrix, _switches, candidate_matrices
from .transition import (
    SwitchTrace,
    _verified_route,
    replay,
    transition_forest,
    transition_graph,
)

if TYPE_CHECKING:
    import numpy as np


class ValueOutOfRangeError(GraphError):
    """Requested parameter value lies outside the family's interval."""


FAMILY_PREDICATES = {
    "all": lambda g: True,
    "forest": is_forest,
    "tree": is_tree,
    "unicyclic": is_unicyclic,
    "bipartite": is_bipartite,
}

ENUMERATION_CAP = 9


def _check_family(family) -> None:
    """Refuse anything but a key of ``FAMILY_PREDICATES``, naming it as
    given."""
    if not (isinstance(family, str) and family in FAMILY_PREDICATES):
        raise GraphError(f"unknown family {family!r}")


# -- enumeration ---------------------------------------------------------------


def enumerate_family(seq, family: str = "all"):
    """Yield every graph with degree vector ``seq`` in the family.

    Output order is lexicographic on sorted edge lists: vertex 1's
    neighbourhood is decided first, in ascending combinations, then the
    next unfinished vertex, and so on.  Non-graphical input yields
    nothing.
    """
    _check_family(family)
    seq = tuple(_integer(d, "degree") for d in seq)
    n = len(seq)
    if n > ENUMERATION_CAP:
        raise CapExceededError(f"order {n} above enumeration cap {ENUMERATION_CAP}")
    if not is_graphical(seq):
        return
    residual = [0] + list(seq)  # 1-indexed
    yield from _complete(n, residual, [], FAMILY_PREDICATES[family], {})


def _complete(n: int, residual: list[int], edges: list, keep, graphical: dict):
    """Yield the family members that add to ``edges`` a graph whose
    degrees are ``residual``, in ``enumerate_family``'s order.

    ``graphical`` holds the Erdős–Gallai verdict of each sorted residual
    vector met so far: the test ignores order, and the branches of one
    enumeration meet few distinct vectors.  The recursion is at most n
    deep, and each verdict costs O(n^2) once.  A module-level generator,
    so no closure cell keeps it, or the verdicts, in a reference cycle.
    """
    v = next((u for u in range(1, n + 1) if residual[u] > 0), None)
    if v is None:
        g = Graph(n, edges)
        if keep(g):
            yield g
        return
    partners = [w for w in range(v + 1, n + 1) if residual[w] > 0]
    need = residual[v]
    if len(partners) < need:
        return
    for combo in itertools.combinations(partners, need):
        residual[v] = 0
        for w in combo:
            residual[w] -= 1
        rest = tuple(sorted(residual[v + 1 :]))
        if rest not in graphical:
            graphical[rest] = is_graphical(rest)
        if graphical[rest]:
            edges.extend((v, w) for w in combo)
            yield from _complete(n, residual, edges, keep, graphical)
            del edges[-need:]
        for w in combo:
            residual[w] += 1
        residual[v] = need


# -- reports --------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a stability, interval or edge-move audit."""

    audit: str
    passed: bool
    kind: str | None = None
    family: str | None = None
    sequence: tuple[int, ...] | None = None
    values: tuple[int, ...] = ()
    interval_ok: bool | None = None
    witnesses: dict[int, Graph] = field(default_factory=dict)
    counterexample: tuple | None = None
    checked: int = 0
    notes: str = ""

    def as_dict(self) -> dict:
        cex = None
        if self.counterexample is not None:
            cex = [
                sorted(x.edges) if isinstance(x, Graph) else str(x)
                for x in self.counterexample
            ]
        return {
            "audit": self.audit,
            "passed": self.passed,
            "kind": self.kind,
            "family": self.family,
            "sequence": list(self.sequence) if self.sequence is not None else None,
            "values": list(self.values),
            "interval_ok": self.interval_ok,
            "witnesses": {
                int(v): [list(e) for e in g.sorted_edges()]
                for v, g in sorted(self.witnesses.items())
            },
            "counterexample": cex,
            "checked": self.checked,
            "notes": self.notes,
        }


# -- census plumbing -------------------------------------------------------------


def _switch_patterns(cen):
    """Every switch shape on the order as ``(k1, k2, a1, a2, matrix)``: the
    slots of its two deleted and two added edges, in ``candidate_matrices``
    order on the complete graph."""

    def slot(edge):
        return cen.slot_index[min(edge) - 1, max(edge) - 1]

    complete = [(u + 1, v + 1) for u, v in cen.slots]
    return [
        (*map(slot, m.deleted_edges()), *map(slot, m.added_edges()), m)
        for m in candidate_matrices(complete)
    ]


def _family_selector(cen, family: str) -> np.ndarray:
    import numpy as np

    _check_family(family)
    if family == "all":
        return np.ones(cen.n_masks, dtype=bool)
    if family == "forest":  # the census's own flags, read-only
        forest = cen.forest.view()
        forest.flags.writeable = False
        return forest
    if family == "tree":
        return cen.forest & (cen.tables["components"] == 1)
    if family == "unicyclic":  # uint8 sums, at most 21 + 7
        return cen.popcount + cen.tables["components"] == cen.n + 1
    return cen.tables["chromatic"] <= 2  # bipartite


# threads an order-wide sweep may use at most; each holds one buffer of
# at most 1.4 MB at order 7 (see the sweeps)
SWEEP_THREADS_CAP = 3


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sweep_workers(n: int) -> int:
    """Threads an order-``n`` sweep runs on: one per usable CPU, at most
    one per run of ``census.RUN`` masks and at most ``SWEEP_THREADS_CAP``,
    so orders up to 6 run on the calling thread alone."""
    runs = -(-(1 << n * (n - 1) // 2) // RUN)
    return max(1, min(_usable_cpus(), runs, SWEEP_THREADS_CAP))


def _in_shares(work, items: list, shares: int) -> list:
    """``[work(items[i::shares]) for i in range(shares)]``, with at most
    one share per item.

    The calling thread takes the first share and a thread of its own
    each of the others.  ``work`` runs numpy kernels, which release the
    GIL, and calls no other module: perfbench's tracer wraps those names
    and keeps one stack of spans.  Every thread has joined before this
    returns or raises; the first error, in share order, is raised here.
    """
    shares = min(shares, len(items))
    if shares <= 1:
        return [work(items)]
    results, errors = [None] * shares, [None] * shares

    def run(i):
        try:
            results[i] = work(items[i::shares])
        except BaseException as exc:  # raised below, once every thread joined
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, shares)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


# -- stability audit --------------------------------------------------------------


def stability_audit(graph: Graph, kinds=parameters.STABLE_KINDS) -> dict[str, AuditReport]:
    """Check |kind(tau(G)) - kind(G)| <= 1 for every non-trivial switch
    tau of one ``graph`` and each of ``kinds``.

    One walk builds each switched graph once and evaluates every kind that
    has not stopped yet; a kind's report stops at its first jump, and
    ``checked`` counts the switches it was evaluated on.  A kind that
    ``compute`` refuses with ``CapExceededError``, on ``graph`` or on a
    switched graph, stops alone, unpassed and without a counterexample,
    its notes naming where and the cap.  ``stability_sweep`` checks a
    whole order.
    """
    kinds = parameters._check_kinds(kinds)
    reports = {}
    base = {}

    def refused(kind, checked, where, exc):
        return AuditReport(
            audit="stability",
            passed=False,
            kind=kind,
            checked=checked,
            notes=f"{kind} not evaluated on {where}: {exc}",
        )

    for kind in kinds:
        try:
            base[kind] = parameters.compute(kind, graph)
        except parameters.IsolatedVertexError:
            reports[kind] = AuditReport(
                audit="stability",
                passed=True,
                kind=kind,
                notes="edge_cover undefined: graph has isolated vertices",
            )
        except CapExceededError as exc:
            reports[kind] = refused(kind, 0, "the input graph", exc)
    checked = 0
    for m, switched in _switches(graph):
        if not base:
            break
        checked += 1
        for kind, before in list(base.items()):
            try:
                value = parameters.compute(kind, switched)
            except CapExceededError as exc:
                del base[kind]
                reports[kind] = refused(kind, checked - 1, f"the graph after switch {m}", exc)
                continue
            if abs(value - before) > 1:
                del base[kind]
                reports[kind] = AuditReport(
                    audit="stability",
                    passed=False,
                    kind=kind,
                    counterexample=(graph, m),
                    checked=checked,
                    notes=f"{kind} jumped from {before} to {value}",
                )
    for kind in base:
        reports[kind] = AuditReport(audit="stability", passed=True, kind=kind, checked=checked)
    return {kind: reports[kind] for kind in kinds}


def _switch_pairs(cen):
    """Each switch shape with its inverse, once per unordered pair.

    A shape flips its four slots, so its inverse is the shape with the
    same slots and the complementary edge pattern: the transpose.  Yields
    ``(bits, sides)`` for the 3 C(n,4) pairs, where each of the two sides
    is ``(req, position, matrix)``: the slots the shape needs set, its
    position in ``_switch_patterns`` order and its matrix.
    """
    sides = {}
    for position, (k1, k2, a1, a2, m) in enumerate(_switch_patterns(cen)):
        bits = (1 << k1) | (1 << k2) | (1 << a1) | (1 << a2)
        sides[bits, (1 << k1) | (1 << k2)] = (position, m)
    for (bits, req), (position, m) in sides.items():
        inverse = sides[bits, bits ^ req]
        if position < inverse[0]:
            yield bits, ((req, position, m), (bits ^ req, *inverse))


def _first_true(flags: np.ndarray) -> int | None:
    first = int(flags.argmax())
    return first if flags.flat[first] else None


def stability_sweep(n: int, kinds=parameters.STABLE_KINDS) -> dict[str, AuditReport]:
    """Order-wide stability check for several parameters at once.

    Every graph admitting a switch shape has the shape's two edge slots
    set and its two non-edge slots clear, and the switch flips all four.
    The inverse of a switch is the switch flipping the same four slots
    back, so the 6 C(n,4) shapes form 3 C(n,4) unordered pairs, one per
    pair of perfect matchings on a 4-set.  The sweep stacks the tables of
    ``kinds`` into one array of len(kinds) bytes per mask, read from
    ``census(n).tables`` at the call, about 19 MB at n = 7 for all nine
    kinds and freed on return.  For each pair it takes two strided views
    of the stack (``census.slot_view``), the graphs on either side in
    ascending mask order with the kinds last, and compares every kind in
    one uint8 pass: no index array and no gather.  That is 2^(C(n,2)-4)
    rows of len(kinds) bytes per pair, about 124 million comparisons at
    n = 7 for all nine kinds.  Only a pair with a jump is searched kind
    by kind.  ``checked`` counts every (graph, switch) incidence, both
    directions of each pair.  A failing kind reports its lowest-mask bad
    incidence; when one graph has several bad switches, the shape first
    in ``_switch_patterns`` order is named.

    The pairs go in interleaved shares to ``sweep_workers(n)`` threads.
    Each thread takes the differences of a pair into one reused buffer,
    1.2 MB at n = 7 for all nine kinds, and keeps only the first bad
    element per kind and side of a pair with a jump; the caller keeps
    the least (mask, position) per kind and sums the defined edge-cover
    starts.  At n = 7, census built, on a 2-core VM (medians of 15
    calls, 5 interleaved processes per side): 111-193 ms, median 123,
    on 2 threads and 173-259 ms on one CPU, against 203-264 ms for one
    thread allocating three temporaries per pair.
    """
    import numpy as np

    cen = census(n)
    kinds = parameters._check_kinds(kinds)
    if not kinds:
        return {}
    stack = np.stack([cen.tables[kind] for kind in kinds], axis=-1, dtype=np.uint8)
    rows = cen.n_masks >> 4  # the graphs on one side of a switch pair
    cover = kinds.index("edge_cover") if "edge_cover" in kinds else None
    if cover is not None:
        # isolated vertices leave the table undefined; only an incidence
        # whose starting graph is defined counts and judges
        defined = cen.tables["edge_cover"] < UNDEFINED
    pairs = list(_switch_pairs(cen))
    views = []
    for i, (bits, ((req, _, _), (inv_req, _, _))) in enumerate(pairs):
        starts = ()
        if cover is not None:
            starts = slot_view(defined, bits, req), slot_view(defined, bits, inv_req)
        views.append((i, slot_view(stack, bits, req), slot_view(stack, bits, inv_req), starts))

    def compare(share):
        diff = np.empty(rows * len(kinds), dtype=np.uint8)
        defined_starts, found = 0, []
        for i, cur, after, starts in share:
            defined_starts += sum(int(np.count_nonzero(s)) for s in starts)
            # uint8 arithmetic: after - cur + 1 wraps into 0..2 exactly
            # when |after - cur| <= 1, as table values are below 255
            out = diff.reshape(cur.shape)
            np.subtract(after, cur, out=out)
            out += 1
            if out.max() <= 2:
                continue
            by_kind = (diff > 2).reshape(rows, len(kinds))
            for j in np.flatnonzero(by_kind.any(axis=0)):
                if j == cover:
                    firsts = [_first_true(by_kind[:, j] & s.reshape(-1)) for s in starts]
                else:
                    firsts = [_first_true(by_kind[:, j])] * 2
                found.append((i, j, firsts))
        return defined_starts, found

    incidences, defined_incidences = 2 * rows * len(pairs), 0
    worst: dict[str, tuple[int, int, ActionMatrix]] = {}
    for defined_starts, found in _in_shares(compare, views, sweep_workers(cen.n)):
        defined_incidences += defined_starts
        for i, j, firsts in found:
            kind, (bits, sides) = kinds[j], pairs[i]
            # the two views order the free slots alike, so the first bad
            # element is the lowest bad graph on each side
            for first, (side_req, position, m) in zip(firsts, sides):
                if first is None:
                    continue
                candidate = (slot_mask(first, bits, side_req), position, m)
                if kind not in worst or candidate[:2] < worst[kind][:2]:
                    worst[kind] = candidate
    checked = {
        kind: defined_incidences if kind == "edge_cover" else incidences for kind in kinds
    }
    out = {}
    for kind in kinds:
        if kind in worst:
            mask, _, m = worst[kind]
            out[kind] = AuditReport(
                audit="stability",
                passed=False,
                kind=kind,
                counterexample=(cen.graph(mask), m),
                checked=checked[kind],
                notes="order-wide sweep found a jump of 2 or more",
            )
        else:
            out[kind] = AuditReport(
                audit="stability", passed=True, kind=kind, checked=checked[kind]
            )
    return out


# -- interval audit ----------------------------------------------------------------


def _interval_walk(seq, family: str, kinds, share: int, shares: int):
    """Evaluate every ``shares``-th family member from index ``share`` on
    ``kinds``; return the count and, per kind, each value's first
    ``(index, sorted edges)``."""
    firsts = [{} for _ in kinds]
    walked = 0
    members = itertools.islice(enumerate(enumerate_family(seq, family)), share, None, shares)
    for walked, (i, g) in enumerate(members, 1):
        for seen, v in zip(firsts, map(parameters.compute, kinds, itertools.repeat(g))):
            seen.setdefault(v, (i, g))
    return walked, [{v: (i, g.sorted_edges()) for v, (i, g) in seen.items()} for seen in firsts]


def interval_audit(
    seq,
    kind: str,
    family: str = "all",
    workers: int = 1,
) -> AuditReport:
    """Do the family's values of ``kind`` form a full integer interval?

    The family is enumerated at every order (``enumerate_family``), and
    each value's witness is the first member with that value in
    enumeration order.  ``min(workers, usable CPUs)`` processes each
    enumerate the family and evaluate their own stride of members, so
    each holds one enumeration stack and its witnesses: on the 133,105
    members of (3,3,3,3,3,3,2,2,2), nine kinds, 2-core VM, one worker
    took 21-27 s at 20 MB peak RSS and two 12-14 s at 22 + 16 MB.  The
    report does not depend on ``workers``.
    """
    return _interval_audits(seq, (kind,), family, workers)[0]


def _interval_audits(seq, kinds, family: str, workers: int) -> list[AuditReport]:
    """``interval_audit`` of each of ``kinds``, in order: each member is
    evaluated once on every kind defined on the family."""
    seq = tuple(_integer(d, "degree") for d in seq)
    n = len(seq)
    kinds = parameters._check_kinds(kinds)
    _check_family(family)
    workers = _integer(workers, "worker count")
    if workers < 1:
        raise GraphError(f"worker count must be at least 1, got {workers}")
    notes = {}
    if not is_graphical(seq):
        notes = dict.fromkeys(kinds, "sequence is not graphical")
    elif "edge_cover" in kinds and 0 in seq:
        notes["edge_cover"] = "edge_cover undefined: sequence has isolated vertices"
    walked = [kind for kind in kinds if kind not in notes]
    value_of = {kind: {} for kind in kinds}
    checked = 0
    if walked:
        walk = functools.partial(_interval_walk, seq, family, walked)
        shares = min(workers, _usable_cpus())
        if shares > 1:
            # imported here so that ``import twoswitch`` loads no
            # multiprocessing machinery
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=shares) as pool:
                results = list(pool.map(walk, range(shares), [shares] * shares))
        else:
            results = [walk(0, 1)]
        checked = sum(count for count, _ in results)
        for k, kind in enumerate(walked):
            # in index order, so each value keeps its first member
            seen = value_of[kind]
            for _, v, edges in sorted((i, v, e) for _, f in results for v, (i, e) in f[k].items()):
                if v not in seen:
                    seen[v] = Graph(n, edges)
        if not checked:
            notes.update(dict.fromkeys(walked, "family is empty"))
    reports = []
    for kind in kinds:
        values = tuple(sorted(value_of[kind]))
        interval_ok = None
        if values:
            interval_ok = values == tuple(range(values[0], values[-1] + 1))
        reports.append(
            AuditReport(
                audit="interval",
                passed=interval_ok is not False,
                kind=kind,
                family=family,
                sequence=seq,
                values=values,
                interval_ok=interval_ok,
                witnesses=value_of[kind],
                checked=checked if kind in walked else 0,
                notes=notes.get(kind, ""),
            )
        )
    return reports


def realize_parameter_value(seq, kind: str, value: int, family: str = "all") -> Graph:
    """A family member with ``kind`` equal to ``value``: the switch trace
    between the extreme witnesses of ``interval_audit``, which enumerates
    the whole family, is replayed until it reaches the value."""
    if family not in ("all", "forest"):
        raise GraphError("realization walks need family 'all' or 'forest'")
    value = _integer(value, "parameter value")
    report = interval_audit(seq, kind, family)
    if not report.values:
        raise GraphError(f"no members: {report.notes or 'empty family'}")
    lo, hi = report.values[0], report.values[-1]
    if not lo <= value <= hi:
        raise ValueOutOfRangeError(f"{kind} ranges over [{lo}, {hi}], asked {value}")
    start = report.witnesses[lo]
    goal = report.witnesses[hi]
    trace = (
        transition_forest(start, goal)
        if family == "forest"
        else transition_graph(start, goal)
    )
    for g in replay(trace):
        if parameters.compute(kind, g) == value:
            return g
    raise AssertionError("stability guarantees some intermediate hits the value")


@dataclass(frozen=True)
class SweepReport:
    """Interval verdicts for every degree vector of one order at once."""

    n: int
    family: str
    kind: str
    families: int
    passed: bool
    singletons: bool
    bad_sequence: tuple[int, ...] | None = None

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "family": self.family,
            "kind": self.kind,
            "families": self.families,
            "passed": self.passed,
            "singletons": self.singletons,
            "bad_sequence": list(self.bad_sequence) if self.bad_sequence else None,
        }


def interval_sweep(n: int, kind: str, family: str = "all") -> SweepReport:
    """Check the interval property for every degree vector of order ``n``.

    Equivalent to running interval_audit on each graphical vector, but
    grouped: one marking pass over the order-``n`` table, with no sort.
    Every (degree id, value) pair that occurs is marked, which gives each
    ``Census.degree_id`` a byte whose bit v says that some member of its
    family has value v (values are at most n <= 7).  A family's value set
    is an interval exactly when its bits form one run, that is when adding
    the lowest set bit clears them all.  ``singletons`` records the
    stronger fact that every family had a single value.  The 'all' family
    reads the table and the ids whole; the others gather their members.
    A defined edge cover is at most n - 1 <= 6, so undefined entries are
    marked in bit 7 and that bit is cleared before anything is counted.

    The pairs are marked a run of ``census.RUN`` masks (or members) at a
    time, each run's index ``id << 3 | value`` built as intp, the type
    numpy indexes with, so the scatter casts nothing.  The runs go in
    interleaved shares to ``sweep_workers(n)`` threads; each marks its
    own array (0.9 MB at n = 7) through one reused index of a run (0.5
    MB), and the caller ORs the arrays.  At n = 7, census built, on a
    2-core VM (5 interleaved processes per side, 20 calls each): an
    'all' call takes 4.5-10.7 ms, median 6.2, on 2 threads and 6.7-7.3
    ms on one CPU, against 6.9-10.8 ms for one thread before the split;
    the forest and tree families have one run of members, so one thread.
    Memory limit, as tracemalloc counts numpy's arrays in every thread
    (MB of 2^20 bytes): at most 6 MB beyond the census for any kind and
    family on up to ``SWEEP_THREADS_CAP`` threads.  Measured: 'all' 1.4,
    2.8 and 4.3 MB on 1, 2 and 3 threads (0.2 MB more for edge cover),
    'unicyclic' 4.0-4.3 MB, whose selector is the largest temporary; a
    test holds the bound on 1 and 3 threads.
    """
    import numpy as np

    cen = census(n)
    parameters._check_kind(kind)
    ids, values = cen.degree_id, cen.tables[kind]
    if family != "all":
        masks = np.flatnonzero(_family_selector(cen, family))
        ids, values = ids[masks], values[masks]
    runs = [(ids[run], values[run]) for run in runs_of(ids.size)]

    def mark(share):
        marked = np.zeros(cen.degree_vectors.size << 3, dtype=bool)
        index = np.empty(min(ids.size, RUN), dtype=np.intp)
        for run_ids, run_values in share:
            at = index[: run_ids.size]
            np.left_shift(run_ids, 3, out=at, dtype=np.intp)
            if kind == "edge_cover":
                run_values = np.minimum(run_values, np.uint8(7))
            at |= run_values
            marked[at] = True
        return marked

    marked, *others = _in_shares(mark, runs, sweep_workers(cen.n))
    for other in others:
        marked |= other
    bits = np.packbits(marked, bitorder="little")  # one byte per id
    if kind == "edge_cover":
        bits &= np.uint8(0x7F)
    families = int(np.count_nonzero(bits))
    # uint8 arithmetic: the carry out of bit 7 wraps away, as it should
    gaps = np.flatnonzero((bits + (bits & -bits)) & bits)
    if gaps.size:
        key = int(cen.degree_vectors[gaps[0]])
        seq = tuple((key >> (3 * i)) & 7 for i in range(cen.n))
        return SweepReport(cen.n, family, kind, families, False, False, bad_sequence=seq)
    singletons = not np.any(bits & (bits - np.uint8(1)))
    return SweepReport(cen.n, family, kind, families, True, singletons)


def enumerate_forests(n: int):
    """All forests on vertex set 1..n as sorted edge tuples.

    Plain cycle-free backtracking over edge slots in lexicographic order;
    union-find with undo keeps the acyclicity test near constant.  Exists
    separately from enumerate_family because sweeping one order's forests
    (all degree vectors at once) is a different access pattern than
    realizing one vector.
    """
    slots = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    yield from _grow_forests(slots, 0, list(range(n + 1)), [1] * (n + 1), [])


def _grow_forests(slots: list, k: int, parent: list[int], size: list[int], edges: list):
    """Yield the forests that add to ``edges`` some of ``slots[k:]``, in
    ``enumerate_forests``' order: each slot left out first, then taken
    when its ends lie in different classes.

    ``parent`` and ``size`` are a union-find by size without path
    compression, so each union is undone by resetting one link.  A
    module-level generator, as ``_complete`` is, so no closure cell
    leaves a reference cycle behind every call.
    """
    if k == len(slots):
        yield tuple(edges)
        return
    yield from _grow_forests(slots, k + 1, parent, size, edges)
    ru, rv = slots[k]
    while parent[ru] != ru:
        ru = parent[ru]
    while parent[rv] != rv:
        rv = parent[rv]
    if ru != rv:
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        size[ru] += size[rv]
        edges.append(slots[k])
        yield from _grow_forests(slots, k + 1, parent, size, edges)
        edges.pop()
        size[ru] -= size[rv]
        parent[rv] = rv


# -- edge-move audit -----------------------------------------------------------------


def edge_diff_audit(n: int) -> AuditReport:
    """No two distinct graphs with one degree vector differ in exactly one
    edge: moving a single edge always changes some degree.

    For each ordered pair of slots (deleted, added), the graphs with the
    first slot set and the second clear are compared with the graphs after
    the move as two strided views of ``degree_id`` (``census.slot_view``),
    2^(C(n,2)-2) int32 comparisons per move; equal ids are equal degree
    vectors.  The inverse of a move is the
    move back, which compares the same pairs of graphs; it comes later in
    the loop, after its twin has passed, so only the C(n,2)(C(n,2)-1)/2
    moves whose deleted slot is the lower one are compared, about 110
    million comparisons at n = 7.  ``checked`` counts every (graph, move)
    incidence.  A failure reports the lowest-mask graph of the first
    failing move and ``checked`` counts the incidences up to and including
    that move.

    The moves go in interleaved shares to ``sweep_workers(n)`` threads,
    each comparing into one reused buffer of 2^(C(n,2)-2) flags (0.5 MB
    at n = 7) and stopping at its first failing move; the first over all
    threads is reported.  At n = 7, census built, on a 2-core VM
    (medians of 15 calls, 5 interleaved processes per side): 91-153 ms,
    median 113, on 2 threads and 175-237 ms on one CPU, against 168-225
    ms for one thread before the split.
    """
    import numpy as np

    cen = census(n)
    slots = range(cen.n_slots)
    moves = [(kdel, kadd) for kdel in slots for kadd in slots if kadd != kdel]
    views = []
    for position, (kdel, kadd) in enumerate(moves):
        if kadd > kdel:  # the later move (kadd, kdel) compares the same graphs
            bits = (1 << kdel) | (1 << kadd)
            cur = slot_view(cen.degree_id, bits, 1 << kdel)
            views.append((position, cur, slot_view(cen.degree_id, bits, 1 << kadd)))

    def compare(share):
        same = np.empty(cen.n_masks >> 2, dtype=bool)
        for position, cur, after in share:  # in loop order, so stop at the first failure
            np.equal(cur, after, out=same.reshape(cur.shape))
            first = int(same.argmax())
            if same[first]:
                return position, first
        return None

    failures = [f for f in _in_shares(compare, views, sweep_workers(cen.n)) if f is not None]
    if not failures:
        return AuditReport(audit="edge_diff", passed=True, checked=len(moves) * (cen.n_masks >> 2))
    position, first = min(failures)
    kdel, kadd = moves[position]
    bits = (1 << kdel) | (1 << kadd)
    mask = slot_mask(first, bits, 1 << kdel)
    return AuditReport(
        audit="edge_diff",
        passed=False,
        counterexample=(cen.graph(mask), cen.graph(mask ^ bits)),
        checked=(position + 1) * (cen.n_masks >> 2),
    )


# -- isomorphism ------------------------------------------------------------------


ISOMORPHISM_CAP = 12


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test by colour refinement plus backtracking."""
    if g.n != h.n or g.size != h.size:
        return False
    if g.n > ISOMORPHISM_CAP:
        raise CapExceededError(f"isomorphism test capped at order {ISOMORPHISM_CAP}")
    if sorted(degree_sequence(g)) != sorted(degree_sequence(h)):
        return False

    def refine(graph: Graph) -> dict[int, int]:
        colour = {v: graph.degree(v) for v in graph.vertices()}
        for _ in range(graph.n):
            sig = {
                v: (colour[v], tuple(sorted(colour[w] for w in graph.neighbors(v))))
                for v in graph.vertices()
            }
            palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
            new = {v: palette[sig[v]] for v in graph.vertices()}
            if new == colour:
                break
            colour = new
        return colour

    cg, ch = refine(g), refine(h)
    if sorted(cg.values()) != sorted(ch.values()):
        return False
    by_colour: dict[int, list[int]] = {}
    for v, c in ch.items():
        by_colour.setdefault(c, []).append(v)
    order = sorted(g.vertices(), key=lambda v: (len(by_colour[cg[v]]), cg[v], v))
    choices = [by_colour[cg[v]] for v in order]
    return _extend_isomorphism(g, h, order, choices, {}, set(), 0)


def _extend_isomorphism(
    g: Graph, h: Graph, order: list[int], choices: list, image: dict, used: set, i: int
) -> bool:
    """Whether the map ``image`` of ``order[:i]`` into ``h``, which uses
    the vertices ``used``, extends to an isomorphism from ``g``, mapping
    each ``order[j]`` into ``choices[j]``, tried in order.

    A module-level function, as ``_colour_from`` is, so the recursion
    reaches itself through the module, not a closure cell that would
    leave a reference cycle behind every call.
    """
    if i == len(order):
        return True
    v = order[i]
    for w in choices[i]:
        if w in used:
            continue
        ok = True
        for u in order[:i]:
            if ((min(u, v), max(u, v)) in g.edges) != (
                (min(image[u], w), max(image[u], w)) in h.edges
            ):
                ok = False
                break
        if ok:
            image[v] = w
            used.add(w)
            if _extend_isomorphism(g, h, order, choices, image, used, i + 1):
                return True
            used.remove(w)
            del image[v]
    return False


# -- bounded search -----------------------------------------------------------------


@dataclass(frozen=True)
class Exploration:
    """What one bounded breadth-first search over switch space reached.

    ``parents`` maps each discovered edge set to its discoverer's edge set
    and switch (``None`` for the start); ``frontier`` counts the states
    still queued for expansion.
    """

    parents: dict[frozenset, tuple[frozenset, ActionMatrix] | None]
    found: bool
    complete: bool
    explored: int
    frontier: int

    def route(self, goal: Graph) -> tuple[ActionMatrix, ...]:
        """The switches carrying the start to a discovered ``goal``."""
        if goal.edges not in self.parents:
            raise GraphError("goal was not reached by this search")
        steps = []
        link = self.parents[goal.edges]
        while link is not None:
            key, m = link
            steps.append(m)
            link = self.parents[key]
        return tuple(reversed(steps))


def explore(
    start: Graph, keep, *, goal: Graph | None = None, max_states: int
) -> Exploration:
    """Breadth-first search from ``start`` through switches into ``keep``.

    ``keep`` is asked only about unseen edge sets.  The search stops when
    ``goal`` is discovered or after ``max_states`` expansions, each of
    which enumerates and applies O(|E|^2) switches; memory is one entry
    per discovered state.  ``complete`` means the component of ``start``
    inside ``keep`` was expanded without meeting ``goal``.
    """
    if max_states < 1:
        raise GraphError(f"state bound must be at least 1, got {max_states}")
    if goal is not None and goal.n != start.n:
        raise GraphError(f"goal has order {goal.n}, start has order {start.n}")
    goal_key = None if goal is None else goal.edges
    parents = {start.edges: None}
    queue = deque([start])
    found = goal_key == start.edges
    explored = 0
    while queue and explored < max_states and not found:
        cur = queue.popleft()
        explored += 1
        for m, t in _switches(cur):
            if t.edges in parents or not keep(t):
                continue
            parents[t.edges] = (cur.edges, m)
            found = t.edges == goal_key
            if found:
                break
            queue.append(t)
    return Exploration(
        parents=parents,
        found=found,
        complete=not queue and not found,
        explored=explored,
        frontier=len(queue),
    )


# -- bundled counterexample analysis ---------------------------------------------


@dataclass(frozen=True)
class ClosureReport:
    explored: int
    frontier: int
    reached_target: bool
    complete: bool


@dataclass(frozen=True)
class BipartiteCheckReport:
    same_degree_vector: bool
    both_bipartite: bool
    both_connected: bool
    non_isomorphic: bool
    parts_differ: bool
    one_step_invariant: bool
    switches_checked: int
    passed: bool
    closure: ClosureReport

    def as_dict(self) -> dict:
        return asdict(self)


# expansions of the closure search; the component holds 232 graphs
CLOSURE_STATES = 2000


def bipartite_counterexample_check() -> BipartiteCheckReport:
    """Analyse the bundled eleven-vertex pair.

    The pair shares a degree vector, both members are connected and
    bipartite, they are not isomorphic, and their two degree-4 vertices
    sit in different parts in one graph but the same part in the other.
    Every switch from the first graph that keeps bipartiteness also keeps
    those two vertices separated, so no switch walk through bipartite
    graphs reaches the second graph.  The closure search, an ``explore``
    through bipartite graphs of at most ``CLOSURE_STATES`` expansions,
    confirms it: ``passed`` needs it to expand the first graph's whole
    component (232 graphs, about 1 s) without meeting the second.
    """
    g0, g1 = fig2()
    same_vector = degree_sequence(g0) == degree_sequence(g1)
    bip0, bip1 = bipartition(g0), bipartition(g1)
    both_bipartite = bip0 is not None and bip1 is not None
    both_connected = kappa(g0) == 1 and kappa(g1) == 1
    non_isomorphic = not are_isomorphic(g0, g1)
    parts_differ = False
    # the two parts hold every vertex, so vertices 3 and 4 share a part
    # exactly when both or neither lie in the first
    if both_bipartite:
        first0, first1 = bip0[0], bip1[0]
        parts_differ = (3 in first0) != (4 in first0) and (3 in first1) == (4 in first1)

    one_step = True
    checked = 0
    for m, t in _switches(g0):
        checked += 1
        stripped = g0.with_edges(removed=m.deleted_edges())
        if kappa(stripped) != 1:
            one_step = False
            break
        bt = bipartition(t)
        if bt is not None and (3 in bt[0]) == (4 in bt[0]):
            one_step = False
            break

    reach = explore(g0, is_bipartite, goal=g1, max_states=CLOSURE_STATES)
    closure = ClosureReport(reach.explored, reach.frontier, reach.found, reach.complete)

    passed = all(
        (
            same_vector,
            both_bipartite,
            both_connected,
            non_isomorphic,
            parts_differ,
            one_step,
            closure.complete,
        )
    )
    return BipartiteCheckReport(
        same_degree_vector=same_vector,
        both_bipartite=both_bipartite,
        both_connected=both_connected,
        non_isomorphic=non_isomorphic,
        parts_differ=parts_differ,
        one_step_invariant=one_step,
        switches_checked=checked,
        closure=closure,
        passed=passed,
    )


# -- constrained search ------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    found: bool
    trace: SwitchTrace | None
    complete: bool
    explored: int

    def as_dict(self) -> dict:
        return {
            "found": self.found,
            "length": len(self.trace.steps) if self.trace else None,
            "complete": self.complete,
            "explored": self.explored,
        }


def constrained_transition_search(
    g: Graph, h: Graph, family: str = "all", budget: int = 200_000
) -> SearchResult:
    """Breadth-first search for a switch trace staying inside the family.

    ``complete`` is True when the reachable family component was fully
    explored, so a not-found verdict is then a proof of absence; when the
    budget of expanded states ran out first it is only a shrug.  A found
    (shortest) route reports ``complete=False`` unless ``g == h``.
    """
    budget = _integer(budget, "search budget")
    if budget < 1:
        raise GraphError(f"search budget must be at least 1, got {budget}")
    _check_family(family)
    keep = FAMILY_PREDICATES[family]
    if g.n != h.n or degree_sequence(g) != degree_sequence(h) or not (keep(g) and keep(h)):
        return SearchResult(found=False, trace=None, complete=True, explored=0)
    if g == h:
        return SearchResult(
            found=True, trace=SwitchTrace(g, (), ()), complete=True, explored=0
        )
    reach = explore(g, keep, goal=h, max_states=budget)
    trace = None
    if reach.found:
        trace = _verified_route(g, h, reach.route(h), forests=family in ("forest", "tree"))
    return SearchResult(reach.found, trace, reach.complete, reach.explored)
