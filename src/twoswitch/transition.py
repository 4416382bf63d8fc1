"""Switch traces: sequences of 2-switches connecting same-degree graphs.

The forest route grows the set of edges the working forests share, one
switch at a time, trimming every leaf the two sides agree on so that
finished parts of the problem drop out; recorded switches always act on
original labels even though the working copies shrink.  A leaf-fixing
step picks its switch by set operations on the neighbourhoods of the
working forests' leaves, kept in one sorted list that trims update, and
answers its path questions on the first working forest's parent links
(``_links``), which every switch updates in place: a cut, a link and a
path question each cost O(h), h the height of the tree under its
current root.  So a step costs O(n) for its scan of the leaves and O(h)
for the rest, and a route O(n^2) outside the plateau fallback, which is
still an unbounded ``explorer.explore`` through forests.
The general route rewires both graphs to a shared canonical form and
glues the two halves, inverting one of them.  ``validate_trace`` is the
one replay of a trace, on a plain edge set: while the graph is a
forest it keeps the same parent links, so a step is judged acyclic by
two root comparisons, and after a step closes a cycle a union-find
over every edge judges each later one.  It judges a user's trace and every
route the package returns, both routes here and the family searches of
``explorer``, and each route's ``kinds`` come from that verdict by the
rule ``classify`` uses.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from .graphs import (
    Graph,
    GraphError,
    NotAForestError,
    _acyclic,
    degree_sequence,
    is_forest,
)
from .switch import (
    ActionMatrix,
    SwitchKind,
    _rewiring,
    _rewirings,
    apply_switch,
    is_interchangeable,
    rewired_kind,
)


class DegreeSequenceMismatchError(GraphError):
    """Transitions only exist between graphs with identical degree vectors."""


class TrivialStepError(GraphError):
    """A trace step did nothing when replayed."""

    def __init__(self, index: int, matrix: ActionMatrix):
        self.index = index
        self.matrix = matrix
        super().__init__(f"step {index} {matrix} is trivial at its position")


class TraceFormatError(GraphError):
    """Malformed JSON trace."""


@dataclass(frozen=True)
class SwitchTrace:
    """An initial graph plus switches in application order.

    ``kinds`` carries the per-step classifications of ``validate_trace``
    on every route the package returns, and is empty on a trace read from
    JSON or built by hand; it is advisory and not part of the wire format.
    """

    initial: Graph
    steps: tuple[ActionMatrix, ...]
    kinds: tuple[SwitchKind, ...] = field(default=(), compare=False)

    def __len__(self):
        return len(self.steps)


def replay(trace: SwitchTrace) -> list[Graph]:
    """All intermediate graphs, initial first.  Trivial steps, where
    ``apply_switch`` hands back the graph itself, are errors."""
    out = [trace.initial]
    for i, m in enumerate(trace.steps):
        g = apply_switch(m, out[-1])
        if g is out[-1]:
            raise TrivialStepError(i, m)
        out.append(g)
    return out


@dataclass(frozen=True)
class TraceValidation:
    ok: bool
    final_matches: bool
    steps_nontrivial: bool
    forests_ok: bool | None
    length: int
    kinds: tuple[SwitchKind, ...]
    first_trivial: int | None = None
    first_nonforest: int | None = None  # 0 = initial graph, k = after step k
    bound: int | None = None  # max(0, |E(target) - E(initial)| - 1)
    within_bound: bool | None = None

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "final_matches": self.final_matches,
            "steps_nontrivial": self.steps_nontrivial,
            "forests_ok": self.forests_ok,
            "length": self.length,
            "kinds": [k.value for k in self.kinds],
            "first_trivial": self.first_trivial,
            "first_nonforest": self.first_nonforest,
            "bound": self.bound,
            "within_bound": self.within_bound,
        }


def validate_trace(
    trace: SwitchTrace, target: Graph | None = None, require_forests: bool = False
) -> TraceValidation:
    """Replay and check: nontrivial steps, final graph, optional forestness.

    The package's one replay of a trace, and the judge of every route it
    returns: the steps act on a plain edge set, stopping at the first one
    that does not rewire (``switch._rewiring`` decides), and each step is
    tested for acyclicity.  While the graph is a forest the test runs on
    its parent links (``_links``), built once from the initial graph: the
    step cuts its two edges and links its two new ones, and a link whose
    ends already share a root closes a cycle.  That costs O(h) per step,
    h the height of the trees it touches under their current roots.
    From the first step that closes a cycle, or from the start when the
    initial graph has one, a union-find over every edge (``_acyclic``)
    tests each step instead, O(n).  With no target the final-graph
    check is vacuous and only structure is validated.  ``kinds`` come
    from the same replay: a step is TRIVIAL where the replay stops, a
    T_SWITCH or F_SWITCH between two forests and PLAIN otherwise.
    """
    n = trace.initial.n
    edges = set(trace.initial.edges)
    before = _acyclic(n, edges)
    up = _links(n, trace.initial.adjacency()) if before else None
    first_nonforest = None if before else 0
    first_trivial = None
    kinds = []
    for i, m in enumerate(trace.steps):
        change = _rewiring(m, edges)
        if change is None:
            first_trivial = i
            kinds.append(SwitchKind.TRIVIAL)
            break
        removed, added = change
        edges.difference_update(removed)
        edges.update(added)
        if up is None:
            after = _acyclic(n, edges)
        else:
            after = _switch_links(up, m.a, m.b, m.c, m.d)
            if not after:
                up = None
        kinds.append(rewired_kind(trace.initial, before, after))
        if not after and first_nonforest is None:
            first_nonforest = i + 1
        before = after
    steps_nontrivial = first_trivial is None
    final_matches = steps_nontrivial and (
        target is None or (target.n == n and edges == target.edges)
    )
    forests_ok = None
    if require_forests:
        forests_ok = first_nonforest is None
    else:
        first_nonforest = None
    bound = within = None
    if target is not None:
        bound = max(0, len(target.edges - trace.initial.edges) - 1)
        within = len(trace.steps) <= bound
    ok = steps_nontrivial and final_matches and (forests_ok is not False)
    return TraceValidation(
        ok=ok,
        final_matches=final_matches,
        steps_nontrivial=steps_nontrivial,
        forests_ok=forests_ok,
        length=len(trace.steps),
        kinds=tuple(kinds),
        first_trivial=first_trivial,
        first_nonforest=first_nonforest,
        bound=bound,
        within_bound=within,
    )


# -- JSON wire format --------------------------------------------------------


def trace_to_json(trace: SwitchTrace) -> str:
    payload = {
        "n": trace.initial.n,
        "initial": [[u, v] for u, v in trace.initial.sorted_edges()],
        "steps": [list(m.labels()) for m in trace.steps],
    }
    return json.dumps(payload, separators=(",", ":"))


def trace_from_json(text: str) -> SwitchTrace:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise TraceFormatError("trace must be a JSON object")
    try:
        n = payload["n"]
        initial = payload["initial"]
        steps = payload["steps"]
    except KeyError as exc:
        raise TraceFormatError(f"missing key {exc}") from exc
    # bool is a subclass of int and int() truncates floats: accept neither
    if type(n) is not int:
        raise TraceFormatError("'n' must be an integer")
    try:
        edges = [tuple(e) for e in initial]
        labels = [tuple(step) for step in steps]
        if any(type(x) is not int for t in edges + labels for x in t):
            raise TypeError("edge endpoints and step labels must be integers")
        g = Graph(n, edges)
        matrices = tuple(ActionMatrix(*step) for step in labels)
    except (GraphError, TypeError, ValueError) as exc:
        raise TraceFormatError(str(exc)) from exc
    if len(g.edges) != len(initial):
        raise TraceFormatError("duplicate edge in initial edge list")
    return SwitchTrace(g, matrices)


# -- trimmable leaves --------------------------------------------------------


def trimmable_leaves(g: Graph, h: Graph) -> frozenset[int]:
    """Vertices of degree 1 in both graphs with the same neighbour in both."""
    if g.n != h.n:
        raise GraphError("graphs must share a vertex set")
    out = set()
    for v in g.vertices():
        gn = g.neighbors(v)
        hn = h.neighbors(v)
        if len(gn) == 1 and gn == hn:
            out.add(v)
    return frozenset(out)


# -- leaf-fixing switch -------------------------------------------------------


def _only(s: set) -> int:
    (x,) = s
    return x


def _links(n: int, adj) -> list[int]:
    """Parent links of the forest ``adj`` on labels 1..n: ``up[x]`` is x's
    parent, 0 at each tree's root, which is its first vertex in ``adj``.

    Switches update the links in place, in time linear in the height h
    of the trees they touch under their current roots: a cut clears one
    link, and a link re-roots the first end's tree at that end by
    reversing the links up to its old root, then hangs it on the second
    end.  Two vertices share a tree when they share a root.
    """
    up = [0] * (n + 1)
    seen = bytearray(n + 1)
    for r in adj:
        if seen[r]:
            continue
        seen[r] = 1
        stack = [r]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = 1
                    up[y] = x
                    stack.append(y)
    return up


def _root(up: list[int], x: int) -> int:
    while up[x]:
        x = up[x]
    return x


def _evert(up: list[int], x: int):
    """Make x the root of its tree."""
    prev = 0
    while x:
        up[x], prev, x = prev, x, up[x]


def _cut(up: list[int], x: int, y: int):
    """Drop the forest edge xy."""
    if up[x] == y:
        up[x] = 0
    else:
        up[y] = 0


def _switch_links(up: list[int], a: int, b: int, c: int, d: int) -> bool:
    """Cut ab and cd, then link ac and bd.  False as soon as a link would
    join two vertices of one tree, a cycle, which leaves ``up`` half
    updated and of no further use."""
    _cut(up, a, b)
    _cut(up, c, d)
    for x, y in ((a, c), (b, d)):
        if _root(up, x) == _root(up, y):
            return False
        _evert(up, x)
        up[x] = y
    return True


def _leaf_ends(adj1, adj2, leaf: int) -> tuple[int, int, int]:
    """``(leaf, v, u)``: the leaf's one neighbour in each working forest."""
    (v,) = adj1[leaf]
    (u,) = adj2[leaf]
    return leaf, v, u


def _best_leaf_fix(
    adj1: dict[int, set[int]],
    adj2: dict[int, set[int]],
    ends: list[tuple[int, int, int]],
    up: list[int],
) -> tuple[int, int, int, int, int]:
    """The leaf-fixing switch ((l,v),(u,w)) of highest gain, as (gain, l, v, u, w).

    Candidates hand leaf l of the first working forest its neighbour u in
    the second; v is l's neighbour in the first and w a neighbour of u in
    the first.  The gain is the change in the number of edges the two
    working forests share: 1 for lu, less 1 when uw is shared, plus 1
    when vw is wanted.  When l and u live in the same component w must
    avoid the l-u path or the result has a cycle; so when u is itself a
    leaf, whose one neighbour is then on that path, the switch only
    works across components.  ``ends`` lists the first forest's leaves
    with their neighbours (``_leaf_ends``) in ascending label order, and
    ``up`` holds its parent links (``_links``).

    The winner is the first candidate of the highest gain when candidates
    run by leaf, then partner, in ascending label order.  So the leaves
    are scanned once per gain, 2 then 1 then 0, and each leaf's partners
    of that gain come from set algebra on three neighbourhoods, with no
    path question asked: a pass runs only when no leaf has a valid
    partner of a higher gain, and its first valid partner in that order
    is the winner.  A partner is valid unless it is u's neighbour on the
    l-u path, so only a leaf with partners of the pass's gain asks for
    that neighbour: re-rooted at l, u's tree has root l exactly when l
    and u share a tree, and then u's parent is the neighbour.  That is
    O(h) in the height h of the tree under its current root.  The
    smallest other partner wins, and when the neighbour was the only one
    the scan goes on to the next leaf.  A candidate always exists but a
    strict gain does not: two working forests can reach a state where
    every leaf-fixing switch trades one shared edge for another.
    """
    for gain in (2, 1, 0):
        for leaf, v, u in ends:
            near, keep, want = adj1[u], adj2[u], adj2[v]
            if gain == 2:
                partners = (near & want) - keep
            elif gain == 1:
                partners = near - (keep ^ want)  # in both or in neither
            else:
                partners = (near & keep) - want
            if partners:
                _evert(up, leaf)
                if _root(up, u) == leaf:
                    partners.discard(up[u])
                if partners:
                    return gain, leaf, v, u, min(partners)
    raise AssertionError("some leaf always admits a fixing switch")


def leaf_fixing_switch(f: Graph, f2: Graph) -> ActionMatrix:
    """The switch from the trimmed-leaf construction, on full graphs.

    Preconditions: both forests with the same degree vector, different,
    and with no trimmable leaf between them.
    """
    _check_transition_inputs(f, f2, forests=True)
    if f == f2:
        raise GraphError("graphs are equal; no switch needed")
    if any(f.degree(v) == 0 for v in f.vertices()):
        raise GraphError("isolated vertices present; strip them first")
    if trimmable_leaves(f, f2):
        raise GraphError("trimmable leaves present; trim before switching")
    adj1 = {v: set(f.neighbors(v)) for v in f.vertices()}
    adj2 = {v: set(f2.neighbors(v)) for v in f2.vertices()}
    ends = [_leaf_ends(adj1, adj2, x) for x in adj1 if len(adj1[x]) == 1]
    _, leaf, v, u, w = _best_leaf_fix(adj1, adj2, ends, _links(f.n, adj1))
    m = ActionMatrix(leaf, v, u, w)
    assert is_interchangeable(m, f), "constructed switch must be applicable"
    return m


# -- forest transition --------------------------------------------------------


def _check_transition_inputs(g: Graph, h: Graph, forests: bool):
    if g.n != h.n:
        raise GraphError(f"orders differ: {g.n} vs {h.n}")
    if degree_sequence(g) != degree_sequence(h):
        raise DegreeSequenceMismatchError(
            f"degree vectors differ: {degree_sequence(g)} vs {degree_sequence(h)}"
        )
    if forests:
        if not is_forest(g) or not is_forest(h):
            raise NotAForestError("both inputs must be forests")


def _apply_to_working(adj: dict[int, set[int]], m: ActionMatrix):
    a, b, c, d = m.labels()
    adj[a].remove(b)
    adj[b].remove(a)
    adj[c].remove(d)
    adj[d].remove(c)
    adj[a].add(c)
    adj[c].add(a)
    adj[b].add(d)
    adj[d].add(b)


def _edge_set(adj: dict[int, set[int]]) -> set[tuple[int, int]]:
    return {(v, x) for v in adj for x in adj[v] if x > v}


def _finishing_switch(red: set[tuple[int, int]], blue: set[tuple[int, int]]) -> ActionMatrix:
    """The unique switch resolving a two-edge difference.

    With equal degree vectors every vertex touches as many red edges
    (present, unwanted) as blue ones (wanted, absent), so two of each
    always close up into an alternating four-cycle.
    """
    (a, b) = min(red)
    a_blue = [e for e in blue if a in e]
    assert len(a_blue) == 1, "difference edges must balance at every vertex"
    c = a_blue[0][0] if a_blue[0][1] == a else a_blue[0][1]
    other_red = next(e for e in red if e != (a, b))
    assert c in other_red, "difference edges must form a square"
    d = other_red[0] if other_red[1] == c else other_red[1]
    return ActionMatrix(a, b, c, d)


def _scan_gaining_switch(adj2: dict[int, set[int]], n: int, edges: set) -> ActionMatrix | None:
    """Best forest-preserving switch by shared-edge gain, or None if the
    best available gain is not positive.

    Walks the switches of the working forest's edges in ``_rewirings``
    order and keeps the first forest-preserving one of the highest gain;
    only a candidate that would replace the current best is tested for
    acyclicity.  Quadratic in the edge count and only called when no
    leaf-fixing switch gains.
    """
    best_gain, best = 0, None
    for m, (removed, added) in _rewirings(edges):
        a, b, x, y = m.labels()
        gain = (x in adj2[a]) + (y in adj2[b]) - (b in adj2[a]) - (y in adj2[x])
        if gain > best_gain and _acyclic(n, edges.difference(removed).union(added)):
            best_gain, best = gain, m
            if gain == 2:
                break
    return best


def _search_completion(start: Graph, goal: Graph) -> tuple[ActionMatrix, ...]:
    """Shortest forest-preserving route between two working forests.

    An unbounded ``explore`` through forests; only reached from plateau
    states where no single switch grows the shared edge set.
    """
    from .explorer import explore  # explorer imports this module

    reach = explore(start, is_forest, goal=goal, max_states=sys.maxsize)
    if not reach.found:
        raise AssertionError("equal-degree working forests must be connected")
    return reach.route(goal)


def transition_forest(f: Graph, f2: Graph) -> SwitchTrace:
    """A trace of f-switches from ``f`` to ``f2``.

    Loop: trim every leaf whose edge the two working forests agree on;
    with exactly two edges of difference left, one switch finishes the
    job; otherwise perform a switch that grows the shared edge set, or,
    when no single switch does, splice in the shortest route found by
    search.  Recorded switches reference original labels throughout, so
    the trace replays on the untrimmed input.

    Cost: a leaf-fixing step scans the leaves at most three times, once
    per gain, each leaf by set operations on three neighbourhoods, and
    asks the path question, O(h) on the working forest's parent links
    with h the height of the tree under its current root, of a leaf only
    when that leaf has candidates of the pass's gain; the pass ends at
    the first such leaf unless its only candidate was the path
    neighbour.  The switch itself is two cuts and two links, O(h) each,
    and the leaf list changes only where a trim or a switch touched it.
    So a step costs O(n) for the leaf scan plus O(h) per path question,
    and a route whose gains come from leaf fixes O(n^2) with bounded
    degrees; on path-like forests h is near n, and a step stays O(n).
    A step where no leaf fix gains walks every switch of the working
    forest's edges instead (``_rewirings``), and the plateau search is
    an unbounded ``explore`` through forests.  The finished route is
    judged by ``validate_trace``: every step rewires, every intermediate
    is acyclic (two root comparisons on parent links per step) and the
    last equals ``f2``, and ``kinds`` comes from that verdict (T_SWITCH
    on a tree, F_SWITCH otherwise).

    Two forests with the same degree vector never differ in exactly one
    edge, so the final switch always closes a gap of two while the rest
    typically narrow it by at least one: the trace stays within
    max(0, |E(f2) - E(f)| - 1) switches whenever the greedy gains hold
    up, which is the case for every pair through n = 7 (all 1,427,121
    ordered pairs, reproduced by ``scripts/route_audit.py``).  Beyond
    that no length bound is guaranteed: on an 8-vertex pair of paths
    even the shortest all-forest route takes |E(f2) - E(f)| switches,
    and on a 14-vertex pair with 7 differing edges the construction
    takes 7 switches where an all-forest route of 5 exists.  Both pairs
    are pinned in the tests.
    """
    _check_transition_inputs(f, f2, forests=True)
    return _verified_route(f, f2, _forest_steps(f, f2), forests=True)


def _forest_steps(f: Graph, f2: Graph) -> list[ActionMatrix]:
    """The switches of the forest route, unverified.

    ``gap`` counts the target edges the first working forest lacks; both
    working forests always have as many edges, so they agree exactly when
    it is 0.  Only a vertex a trim or a switch has just touched can turn
    into a trimmable leaf, so only those are tested.  A vertex that loses
    its last edge leaves both working copies.  ``ends`` holds each leaf
    of the first working forest with its neighbours (``_leaf_ends``) in
    label order: a trim removes and adds entries, and a switch, which
    changes no degree, only rewrites those of its four labels that are
    leaves.  ``up`` holds the first working forest's parent links.
    """
    adj1 = {v: set(ns) for v, ns in f.adjacency().items() if ns}
    adj2 = {v: set(ns) for v, ns in f2.adjacency().items() if ns}
    up = _links(f.n, adj1)
    gap = len(f2.edges - f.edges)
    touched = set(adj1)
    ends = [_leaf_ends(adj1, adj2, x) for x in adj1 if len(adj1[x]) == 1]
    steps: list[ActionMatrix] = []
    while gap:
        lam = {v for v in touched if len(adj1[v]) == 1 and adj1[v] == adj2[v]}
        if lam:
            touched = set()
            for v in sorted(lam):
                if v not in adj1:
                    continue  # partner leaf of a shared K2 was trimmed first
                nb = _only(adj1.pop(v))
                del adj2[v]
                adj1[nb].discard(v)
                adj2[nb].discard(v)
                _cut(up, v, nb)
                del ends[bisect_left(ends, (v,))]
                if adj1[nb]:
                    touched.add(nb)
                    if len(adj1[nb]) == 1:
                        insort(ends, _leaf_ends(adj1, adj2, nb))
                else:  # nb lost its last edge, so it leaves play too
                    del adj1[nb], adj2[nb]
                    del ends[bisect_left(ends, (nb,))]
                    touched.discard(nb)
            continue

        assert gap != 1, "equal degree vectors forbid a one-edge difference"
        if gap == 2:  # the last switch, so the working state is not updated
            e1 = _edge_set(adj1)
            e2 = _edge_set(adj2)
            steps.append(_finishing_switch(e1 - e2, e2 - e1))
            break
        gain, leaf, v, u, w = _best_leaf_fix(adj1, adj2, ends, up)
        if gain >= 1:
            m = ActionMatrix(leaf, v, u, w)
        else:
            working = _edge_set(adj1)
            m = _scan_gaining_switch(adj2, f.n, working)
            if m is None:
                # plateau: every single switch trades away as much as
                # it gains, so fall back to an exact shortest completion
                steps.extend(
                    _search_completion(Graph(f.n, working), Graph(f.n, _edge_set(adj2)))
                )
                break
        a, b, c, d = m.labels()
        gap += (b in adj2[a]) + (d in adj2[c]) - (c in adj2[a]) - (d in adj2[b])
        _apply_to_working(adj1, m)
        _switch_links(up, a, b, c, d)
        for x in m.labels():  # a leaf's neighbour may move, never its degree
            if len(adj1[x]) == 1:
                ends[bisect_left(ends, (x,))] = _leaf_ends(adj1, adj2, x)
        steps.append(m)
        touched = {a, b, c, d}
    return steps


def _verified_route(f: Graph, f2: Graph, steps, forests: bool) -> SwitchTrace:
    """The route ``steps`` from ``f`` to ``f2`` as ``validate_trace`` judged
    it, with its ``kinds``; every intermediate must be a forest when
    ``forests`` is set.

    A step that does not rewire raises ``TrivialStepError``, like
    ``replay``; a route that misses ``f2`` or closes a cycle raises
    ``AssertionError``, explicitly so that ``-O`` keeps it, in that order.
    """
    trace = SwitchTrace(f, tuple(steps))
    verdict = validate_trace(trace, f2, require_forests=forests)
    if not verdict.steps_nontrivial:
        i = verdict.first_trivial
        raise TrivialStepError(i, trace.steps[i])
    if not verdict.final_matches:
        raise AssertionError("trace must land on the target graph")
    if verdict.forests_ok is False:
        i = verdict.first_nonforest - 1
        raise AssertionError(f"step {i} {trace.steps[i]} closes a cycle")
    return SwitchTrace(f, trace.steps, verdict.kinds)


# -- general transition via a canonical form ----------------------------------


def _normalize_to_canonical(g: Graph) -> list[ActionMatrix]:
    """Rewire ``g`` into the canonical realization of its degree vector.

    Vertices are settled one at a time in (residual degree desc, label)
    order; the settled vertex ends up adjacent to the highest-priority
    remaining vertices.  Each correction is a single valid 2-switch, and
    the fixed point depends only on the degree vector, so two graphs with
    the same vector always meet.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    remaining = set(g.vertices())
    steps: list[ActionMatrix] = []
    while len(remaining) > 1:
        order = sorted(remaining, key=lambda z: (-len(adj[z] & remaining), z))
        v = order[0]
        live = adj[v] & remaining
        d = len(live)
        if d == 0:
            remaining.discard(v)
            continue
        targets = order[1 : 1 + d]
        target_set = set(targets)
        while True:
            live = adj[v] & remaining
            if live == target_set:
                break
            w = next(t for t in targets if t not in live)
            x = min(live - target_set)
            # w outranks x, so w has a neighbour y that x lacks
            ys = sorted(
                y
                for y in (adj[w] & remaining)
                if y not in adj[x] and y != x and y != v
            )
            assert ys, "priority order guarantees an exchange partner"
            y = ys[0]
            assert x in adj[v] and y in adj[w] and w not in adj[v] and y not in adj[x]
            m = ActionMatrix(v, x, w, y)
            _apply_to_working(adj, m)
            steps.append(m)
        remaining.discard(v)
    return steps


def transition_graph(g: Graph, h: Graph) -> SwitchTrace:
    """A trace of plain 2-switches from ``g`` to ``h``.

    Both graphs are rewired to the shared canonical form; the second half
    is reversed step by step using the transpose (the inverse switch).
    No effort is made to keep intermediates inside any family, and the
    trace is generally not shortest.  ``validate_trace`` judges the glued
    route, which must land on ``h``.
    """
    _check_transition_inputs(g, h, forests=False)
    if g == h:
        return SwitchTrace(g, (), ())
    steps_g = _normalize_to_canonical(g)
    steps_h = _normalize_to_canonical(h)
    steps = steps_g + [m.transpose() for m in reversed(steps_h)]
    return _verified_route(g, h, steps, forests=False)
