"""Brute-force reference implementations used only by the tests.

Each oracle takes the dumbest correct route available: subset scans,
set-partition enumeration, permutation checks.  They share no code with
the package so a bug would have to happen twice, in different shapes, to
slip through.

The census reads five tables off the largest pattern subgraph inside
each mask and derives its two cover tables from Gallai's identities;
the direct table-level dynamic programs at the end of this file are
their independent route.  ``census_doubling_tables`` (matching,
independence and chromatic by doubling over the top edge slot) and
``census_domination_table`` (vertex subsets by size) are the census's
earlier builders.  They follow the census's mask layout (bit k of a mask
is the k-th vertex pair in lexicographic order) and nothing else.
``oracle_path_cover_partition`` is the partition into traceable vertex
sets for one graph, fast enough to check the general path cover
recurrence beyond the reach of ``oracle_path_cover``, and
``oracle_matching_memo`` the memoized subset search that checks the
general blossom matching up to 20 vertices; ``oracle_domination_memo``
is likewise the memoized subset search that checks the general
domination branch and bound there.
``equivalent_forms`` lists the four matrices that name one switch, and
``oracle_distances`` is a plain breadth-first search over any move
function, the reference for switch-space distances and connectivity.
``oracle_leaf_fixing_switch`` picks the forest route's leaf-fixing
switch with one path search per leaf and one gain per candidate, where
the package takes each gain's candidates by set algebra and searches a
path only for a leaf that has some.  ``oracle_classify`` is the paper's
path-shape characterisation of t- and f-switches, where the package
decides by acyclicity before and after the switch.
``oracle_bfs_parts`` lists components and 2-colours them by
breadth-first search from each component's lowest vertex, where the
package reads roots and colours off one union-find pass.

``oracle_stability_sweep`` and ``oracle_edge_diff_audit`` are the
order-wide sweeps that compare every ordered switch shape and every
ordered edge move, where the package compares each shape or move with
its inverse once.  They share the census, the shape list and the report
type with the package, and check only that halving the work leaves every
report unchanged.  ``oracle_interval_witnesses`` picks the interval
witnesses by sorting (value, sorted edge list) pairs, where the package
takes the first member with each value in enumeration order.
``oracle_interval_census`` is the interval audit read off the census
tables, the family's masks selected by degree id and family flags and
each value's witness its lowest mask, where the package enumerates the
family at every order.

The four rooted forest dynamic programs (matching, independence,
domination, path cover) are the only reference above the reach of the
general algorithms; the package answers forests with leaves-up greedy
passes instead.  ``FOREST_ORACLES`` adds the two covers from them by
Gallai's identities, where the package uses König's theorem.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from twoswitch.census import UNDEFINED, census, slot_mask, slot_view
from twoswitch.explorer import (
    AuditReport,
    _family_selector,
    _switch_patterns,
    enumerate_family,
)
from twoswitch.graphs import Graph, NotAForestError
from twoswitch.parameters import compute
from twoswitch.switch import ActionMatrix, SwitchKind


def _edge_list(g: Graph) -> list[tuple[int, int]]:
    return sorted(g.edges)


def _is_matching(combo) -> bool:
    seen: set[int] = set()
    for u, v in combo:
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def oracle_matching(g: Graph) -> int:
    edges = _edge_list(g)
    for k in range(min(g.n // 2, len(edges)), 0, -1):
        if any(_is_matching(c) for c in itertools.combinations(edges, k)):
            return k
    return 0


def oracle_matching_memo(g: Graph) -> int:
    """Maximum matching by a memoized search over vertex subsets, the
    package's matching algorithm before Edmonds' blossoms replaced it.

    A vertex v with a neighbour is matched in some maximum matching: if
    not, v's neighbour u is matched to some w, and swapping uw for uv
    keeps the size.  So each step matches the lowest vertex with a
    neighbour left to one of those neighbours.  Exponential; used at
    n <= 20, where ``oracle_matching`` cannot reach.
    """
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    memo: dict[int, int] = {}

    def best(avail: int) -> int:
        if avail in memo:
            return memo[avail]
        v = next((v for v in range(g.n) if avail >> v & 1 and adj[v] & avail), -1)
        if v < 0:
            value = 0
        else:
            rest = avail & ~(1 << v)
            partners = adj[v] & rest
            value = 1 + max(
                best(rest & ~(1 << u)) for u in range(g.n) if partners >> u & 1
            )
        memo[avail] = value
        return value

    return best((1 << g.n) - 1)


def oracle_independence(g: Graph) -> int:
    verts = list(g.vertices())
    for k in range(g.n, 0, -1):
        for combo in itertools.combinations(verts, k):
            s = set(combo)
            if all(not (u in s and v in s) for u, v in g.edges):
                return k
    return 0


def oracle_vertex_cover(g: Graph) -> int:
    verts = list(g.vertices())
    for k in range(0, g.n + 1):
        for combo in itertools.combinations(verts, k):
            s = set(combo)
            if all(u in s or v in s for u, v in g.edges):
                return k
    raise AssertionError("V itself always covers")


def oracle_domination(g: Graph) -> int:
    if g.n == 0:
        return 0
    verts = list(g.vertices())
    for k in range(1, g.n + 1):
        for combo in itertools.combinations(verts, k):
            dominated = set(combo)
            for v in combo:
                dominated.update(g.neighbors(v))
            if len(dominated) == g.n:
                return k
    raise AssertionError("V itself always dominates")


def oracle_domination_memo(g: Graph) -> int:
    """Domination by a memoized search over undominated vertex sets, the
    package's algorithm before branch and bound replaced it.

    Some member of the closed neighbourhood of the lowest undominated
    vertex is in every dominating set, so each step tries them all.
    Exponential, at most 2^n memo entries; used at n <= 20, where
    ``oracle_domination`` cannot reach.
    """
    closed = [1 << v for v in range(g.n)]
    for u, v in g.edges:
        closed[u - 1] |= 1 << (v - 1)
        closed[v - 1] |= 1 << (u - 1)
    memo: dict[int, int] = {0: 0}

    def best(undominated: int) -> int:
        if undominated not in memo:
            v = (undominated & -undominated).bit_length() - 1
            memo[undominated] = 1 + min(
                best(undominated & ~closed[w])
                for w in range(g.n)
                if closed[v] >> w & 1
            )
        return memo[undominated]

    return best((1 << g.n) - 1)


def oracle_clique(g: Graph) -> int:
    verts = list(g.vertices())
    for k in range(g.n, 0, -1):
        for combo in itertools.combinations(verts, k):
            if all(
                (min(u, v), max(u, v)) in g.edges
                for u, v in itertools.combinations(combo, 2)
            ):
                return k
    return 0


def oracle_edge_cover(g: Graph) -> int:
    if any(g.degree(v) == 0 for v in g.vertices()):
        raise ValueError("undefined with isolated vertices")
    if g.n == 0:
        return 0
    edges = _edge_list(g)
    for k in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, k):
            covered = {x for e in combo for x in e}
            if len(covered) == g.n:
                return k
    raise AssertionError("E itself covers when no vertex is isolated")


def _partitions(items: list[int]):
    """All set partitions, each block sorted, blocks in order of their minima."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + [[first] + block] + part[i + 1 :]
        yield [[first]] + part


def oracle_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    best = g.n
    for part in _partitions(list(g.vertices())):
        if len(part) >= best:
            continue
        if all(
            (min(u, v), max(u, v)) not in g.edges
            for block in part
            for u, v in itertools.combinations(block, 2)
        ):
            best = len(part)
    return best


def _has_hamiltonian_path(g: Graph, block: list[int]) -> bool:
    if len(block) == 1:
        return True
    for perm in itertools.permutations(block):
        if perm[0] > perm[-1]:
            continue  # each path read in one direction only
        if all(
            (min(a, b), max(a, b)) in g.edges for a, b in zip(perm, perm[1:])
        ):
            return True
    return False


def oracle_path_cover(g: Graph) -> int:
    if g.n == 0:
        return 0
    best = g.n
    for part in _partitions(list(g.vertices())):
        if len(part) >= best:
            continue
        if all(_has_hamiltonian_path(g, block) for block in part):
            best = len(part)
    return best


def oracle_path_cover_partition(g: Graph) -> int:
    """Fewest traceable blocks partitioning V: a submask DP over vertex
    subsets, O(3^n), whose block always holds the lowest remaining vertex."""
    n = g.n
    adj = [0] * n
    for u, v in g.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    by_size = sorted(range(1, 1 << n), key=lambda m: bin(m).count("1"))
    # ends[t]: the vertices at which some spanning path of G[t] ends
    ends = [0] * (1 << n)
    for t in by_size:
        if t & (t - 1) == 0:
            ends[t] = t
            continue
        for v in range(n):
            if t >> v & 1 and ends[t ^ (1 << v)] & adj[v]:
                ends[t] |= 1 << v
    cover = [0] * (1 << n)
    for s in by_size:
        low = s & -s
        best = n + 1
        t = s
        while t:
            if t & low and ends[t]:
                best = min(best, cover[s ^ t] + 1)
            t = (t - 1) & s
        cover[s] = best
    return cover[-1]


def oracle_components(g: Graph) -> int:
    parent = {v: v for v in g.vertices()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in g.vertices()})


def oracle_bfs_parts(g: Graph):
    """``(components, parts)`` by breadth-first search from each
    component's lowest vertex, which takes colour 0: the vertex lists
    ``components`` returns, and the 2-colouring ``bipartition`` returns,
    or None when an edge joins two vertices of one colour."""
    adj = {v: [] for v in g.vertices()}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = {}
    comps = []
    for root in g.vertices():
        if root in colour:
            continue
        colour[root] = 0
        queue = deque([root])
        comp = []
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y in adj[x]:
                if y not in colour:
                    colour[y] = 1 - colour[x]
                    queue.append(y)
        comps.append(sorted(comp))
    if any(colour[u] == colour[v] for u, v in g.edges):
        return comps, None
    parts = tuple(frozenset(v for v, c in colour.items() if c == side) for side in (0, 1))
    return comps, parts


def oracle_rank(g: Graph) -> int:
    if g.n == 0:
        return 0
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u - 1][v - 1] = a[v - 1][u - 1] = 1.0
    return int(np.linalg.matrix_rank(a))


# -- leaf-fixing switch reference ---------------------------------------------


def _forest_path(adj: dict[int, set[int]], a: int, b: int) -> list[int] | None:
    """The a-b path of a forest by breadth-first search, or None."""
    parent = {a: None}
    queue = [a]
    for x in queue:
        if x == b:
            path = [b]
            while path[-1] != a:
                path.append(parent[path[-1]])
            return path[::-1]
        for y in sorted(adj[x]):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return None


def oracle_leaf_fixing_switch(f: Graph, f2: Graph) -> tuple[int, int, int, int]:
    """The switch ``transition.leaf_fixing_switch`` should pick, by one
    path search per leaf.

    For each leaf l of ``f`` in ascending order, with neighbour v in ``f``
    and u in ``f2``, the candidates ((l,v),(u,w)) run over the neighbours
    w of u in ``f`` in ascending order.  When u has two or more
    neighbours in ``f2``, w must avoid the l-u path; when u is a leaf of
    ``f2``, l and u must lie in different components.  The gain is the
    change in the number of edges ``f`` and ``f2`` share, and the first
    candidate of the highest gain wins.
    """
    adj1 = {v: set(f.neighbors(v)) for v in f.vertices()}
    adj2 = {v: set(f2.neighbors(v)) for v in f2.vertices()}
    best = None
    for leaf in f.vertices():
        if len(adj1[leaf]) != 1:
            continue
        (u,) = adj2[leaf]
        (v,) = adj1[leaf]
        path = _forest_path(adj1, leaf, u)
        if len(adj2[u]) >= 2:
            partners = sorted(adj1[u] - set(path or ()))
        elif path is None:
            partners = sorted(adj1[u])
        else:
            partners = []
        for w in partners:
            gain = 1 - (w in adj2[u]) + (w in adj2[v])
            if best is None or gain > best[0]:
                best = (gain, (leaf, v, u, w))
    assert best is not None
    return best[1]


# -- switch forms and switch-space distances ------------------------------------


def equivalent_forms(m: ActionMatrix) -> frozenset[ActionMatrix]:
    """The four matrices acting identically on every graph.

    Swapping the two rows, or swapping the two columns, renames the same
    deleted/added edge pairs.  Reversing one row alone does not qualify:
    ((a,b),(d,c)) adds ad and bc instead.
    """
    a, b, c, d = m.labels()
    return frozenset(
        {
            ActionMatrix(a, b, c, d),
            ActionMatrix(c, d, a, b),
            ActionMatrix(b, a, d, c),
            ActionMatrix(d, c, b, a),
        }
    )


def oracle_distances(start, neighbours) -> dict:
    """Breadth-first distance from ``start`` to every state reachable
    through ``neighbours(state)``, an iterable of the next states."""
    dist = {start: 0}
    queue = [start]
    for x in queue:
        for y in neighbours(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


# -- switch classification reference ------------------------------------------


def _path_has_form(
    adj: dict[int, set[int]], first: int, second: int, second_last: int, last: int
) -> bool:
    path = _forest_path(adj, first, last)
    if path is None or len(path) < 4:
        return False
    return path[1] == second and path[-2] == second_last


def _tree_condition(adj: dict[int, set[int]], a: int, b: int, c: int, d: int) -> bool:
    """Path a..d looks like (a b ... c d), or path b..c like (b a ... d c)."""
    return _path_has_form(adj, a, b, c, d) or _path_has_form(adj, b, a, d, c)


def _same_component(adj: dict[int, set[int]], u: int, v: int) -> bool:
    return _forest_path(adj, u, v) is not None


def oracle_classify(m: ActionMatrix, g: Graph) -> SwitchKind:
    """The paper's structural characterisation of t- and f-switches.

    Trivial unless ab, cd are edges and ac, bd are not, on four distinct
    labels of ``g``.  On a tree, a t-switch exactly when one deleted
    edge's endpoints flank the path to the other.  On a forest, an
    f-switch when the deleted edges lie in different components or, in
    one component, under the same path condition.  Everything else is
    plain; no switch is applied.
    """
    a, b, c, d = m.labels()
    if (
        len({a, b, c, d}) < 4
        or max(a, b, c, d) > g.n
        or (a, b) not in g
        or (c, d) not in g
        or (a, c) in g
        or (b, d) in g
    ):
        return SwitchKind.TRIVIAL
    kappa = oracle_components(g)
    if g.size != g.n - kappa:
        return SwitchKind.PLAIN
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    if kappa == 1:
        if _tree_condition(adj, a, b, c, d):
            return SwitchKind.T_SWITCH
        return SwitchKind.PLAIN
    if not _same_component(adj, a, c) or _tree_condition(adj, a, b, c, d):
        return SwitchKind.F_SWITCH
    return SwitchKind.PLAIN


# -- rooted forest dynamic programs --------------------------------------------


def _forest_roots_and_order(g: Graph):
    """Rooted post-order per component; roots are lowest labels.

    In a forest every edge is a tree edge of this search, so reaching an
    already seen vertex other than the parent means ``g`` has a cycle.
    """
    adj = g.adjacency()
    seen = set()
    order = []  # (vertex, parent) in post-order
    for root in g.vertices():
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, 0, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w != parent:
                    if w in seen:
                        raise NotAForestError("forest DP called on a graph with a cycle")
                    seen.add(w)
                    stack.append((w, v, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                order.append((v, parent))
                stack.pop()
    return order


def oracle_forest_matching(g: Graph) -> int:
    """Tree DP: free[v] / matched-to-a-child[v]."""
    free = {}
    matched = {}
    total = 0
    for v, parent in _forest_roots_and_order(g):
        children = [w for w in g.neighbors(v) if w != parent]
        base = sum(max(free[c], matched[c]) for c in children)
        free[v] = base
        best_gain = None
        for c in children:
            gain = 1 + free[c] - max(free[c], matched[c])
            if best_gain is None or gain > best_gain:
                best_gain = gain
        matched[v] = base + best_gain if best_gain is not None else -1
        if parent == 0:
            total += max(free[v], matched[v])
    return total


def oracle_forest_independence(g: Graph) -> int:
    """Tree DP: v in the set / v out of it."""
    inc = {}
    exc = {}
    total = 0
    for v, parent in _forest_roots_and_order(g):
        children = [w for w in g.neighbors(v) if w != parent]
        inc[v] = 1 + sum(exc[c] for c in children)
        exc[v] = sum(max(inc[c], exc[c]) for c in children)
        if parent == 0:
            total += max(inc[v], exc[v])
    return total


def oracle_forest_domination(g: Graph) -> int:
    """Three-state tree DP: in the set / dominated / still needs the parent."""
    inf = g.n + 1
    in_set = {}
    dominated = {}
    needs = {}
    total = 0
    for v, parent in _forest_roots_and_order(g):
        children = [w for w in g.neighbors(v) if w != parent]
        in_set[v] = 1 + sum(min(in_set[c], dominated[c], needs[c]) for c in children)
        settled = sum(min(in_set[c], dominated[c]) for c in children)
        needs[v] = settled
        if children:
            penalty = min(in_set[c] - min(in_set[c], dominated[c]) for c in children)
            dominated[v] = settled + penalty
        else:
            dominated[v] = inf
        if parent == 0:
            total += min(in_set[v], dominated[v])
    return total


def oracle_forest_path_cover(g: Graph) -> int:
    """Tree DP tracking whether the root can still serve as a path end."""
    inf = g.n + 1
    as_end = {}
    best = {}
    total = 0
    for v, parent in _forest_roots_and_order(g):
        children = [w for w in g.neighbors(v) if w != parent]
        rest = sum(best[c] for c in children)
        a = 1 + rest  # v on its own path
        for c in children:
            a = min(a, as_end[c] + rest - best[c])  # extend c's path up to v
        through = inf
        if len(children) >= 2:
            # join the two cheapest extendable children through v: their two
            # paths and v fuse into a single path, saving one
            costs = sorted(as_end[c] - best[c] for c in children)
            through = rest + costs[0] + costs[1] - 1
        as_end[v] = a
        best[v] = min(a, through)
        if parent == 0:
            total += best[v]
    return total


def _forest_edge_cover(g: Graph) -> int:
    if any(g.degree(v) == 0 for v in g.vertices()):
        raise ValueError("undefined with isolated vertices")
    return g.n - oracle_forest_matching(g)


FOREST_ORACLES = {
    "domination": oracle_forest_domination,
    "edge_cover": _forest_edge_cover,
    "independence": oracle_forest_independence,
    "matching": oracle_forest_matching,
    "path_cover": oracle_forest_path_cover,
    "vertex_cover": lambda g: g.n - oracle_forest_independence(g),
}


# -- census table references -------------------------------------------------

_CHUNK = 1 << 18  # masks per pass: each subset DP holds 2^n arrays of this many bytes


def _mask_geometry(n: int):
    """Every edge mask on n vertices, and each vertex pair's slot."""
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    masks = np.arange(1 << len(slots), dtype=np.int64)
    return masks, {uv: k for k, uv in enumerate(slots)}


def _stars_and_within(n: int, slot: dict) -> tuple[list[int], list[int]]:
    """The slots at each vertex, and the slots inside each vertex subset."""
    star = [0] * n
    for (u, v), k in slot.items():
        star[u] |= 1 << k
        star[v] |= 1 << k
    within = [0] * (1 << n)
    for t in range(1 << n):
        for (u, v), k in slot.items():
            if t >> u & 1 and t >> v & 1:
                within[t] |= 1 << k
    return star, within


def census_vertex_cover_table(n: int) -> np.ndarray:
    """Vertex cover of every mask: the size of the first vertex subset, in
    order of size, whose complement spans no edge."""
    masks, slot = _mask_geometry(n)
    nu = np.full(len(masks), 255, dtype=np.uint8)
    vfull = (1 << n) - 1
    for t in sorted(range(1 << n), key=lambda t: (bin(t).count("1"), t)):
        outside = vfull ^ t
        spanned = 0
        for (u, v), k in slot.items():
            if outside >> u & 1 and outside >> v & 1:
                spanned |= 1 << k
        ok = (masks & spanned) == 0
        ok &= nu == 255
        nu[ok] = bin(t).count("1")
        if not (nu == 255).any():
            break
    return nu


def census_edge_cover_table(n: int) -> np.ndarray:
    """Edge cover of every mask, 99 where a vertex is isolated.

    Subset DP over uncovered vertex sets: the lowest uncovered vertex is
    covered by each of its edges in turn.  Runs over chunks of masks to
    bound memory at order 7.
    """
    inf = 99
    masks, slot = _mask_geometry(n)
    eps = np.zeros(len(masks), dtype=np.uint8)
    if n == 0:
        return eps
    for lo in range(0, len(masks), _CHUNK):
        mc = masks[lo : lo + _CHUNK]
        present = {uv: ((mc >> k) & 1).astype(bool) for uv, k in slot.items()}
        c = [np.zeros(len(mc), dtype=np.uint8)]
        for s in range(1, 1 << n):  # each child is a proper subset, so smaller
            u = (s & -s).bit_length() - 1
            best = np.full(len(mc), inf, dtype=np.uint8)
            for v in range(n):
                if v == u:
                    continue
                cand = c[s & ~((1 << u) | (1 << v))] + 1
                cand[~present[(min(u, v), max(u, v))]] = inf
                np.minimum(best, cand, out=best)
            c.append(best)
        eps[lo : lo + _CHUNK] = c[-1]
    return eps


def census_path_cover_table(n: int) -> np.ndarray:
    """Path cover of every mask: the fewest traceable blocks partitioning
    the vertex set.

    First the possible ends of a spanning path of G[t] for each vertex
    subset t, then a submask DP over partitions whose block always holds
    the lowest remaining vertex.  Runs over chunks of masks to bound
    memory at order 7.
    """
    inf = 99
    masks, slot = _mask_geometry(n)
    pi = np.zeros(len(masks), dtype=np.uint8)
    if n == 0:
        return pi
    by_size = sorted(range(1, 1 << n), key=lambda t: (bin(t).count("1"), t))
    for lo in range(0, len(masks), _CHUNK):
        mc = masks[lo : lo + _CHUNK]
        adj = [np.zeros(len(mc), dtype=np.uint8) for _ in range(n)]
        for (u, v), k in slot.items():
            present = ((mc >> k) & 1).astype(np.uint8)
            adj[u] |= present << v
            adj[v] |= present << u
        ends = [None] * (1 << n)
        for t in by_size:
            if t & (t - 1) == 0:
                ends[t] = np.full(len(mc), t, dtype=np.uint8)
                continue
            acc = np.zeros(len(mc), dtype=np.uint8)
            for v in range(n):
                if t >> v & 1:
                    reach = (ends[t ^ (1 << v)] & adj[v]) != 0
                    acc |= reach.astype(np.uint8) << v
            ends[t] = acc
        # one more path for a traceable block, effectively barred otherwise
        step = [None] + [np.where(e == 0, inf, 1).astype(np.uint8) for e in ends[1:]]
        cover = [None] * (1 << n)
        cover[0] = np.zeros(len(mc), dtype=np.uint8)
        for s in by_size:
            low = s & -s
            best = np.full(len(mc), inf, dtype=np.uint8)
            t = s
            while t:
                if t & low:
                    np.minimum(best, cover[s ^ t] + step[t], out=best)
                t = (t - 1) & s
            cover[s] = best
        pi[lo : lo + _CHUNK] = cover[-1]
    return pi


def census_chromatic_table(n: int) -> np.ndarray:
    """Chromatic number of every mask: the fewest independent blocks
    partitioning the vertex set.

    A submask DP over vertex subsets whose block always holds the lowest
    remaining vertex, (3^n - 1) / 2 steps per chunk of masks.  Runs over
    chunks of masks to bound memory at order 7.
    """
    inf = 99
    masks, slot = _mask_geometry(n)
    chi = np.zeros(len(masks), dtype=np.uint8)
    if n == 0:
        return chi
    _, within = _stars_and_within(n, slot)
    for lo in range(0, len(masks), _CHUNK):
        mc = masks[lo : lo + _CHUNK]
        independent = [(mc & w) == 0 for w in within]
        f = [np.zeros(len(mc), dtype=np.uint8)]
        for s in range(1, 1 << n):  # each remainder s ^ t is smaller than s
            low = s & -s
            best = np.full(len(mc), inf, dtype=np.uint8)
            t = s
            while t:
                if t & low:
                    cand = f[s ^ t] + 1
                    cand[~independent[t]] = inf
                    np.minimum(best, cand, out=best)
                t = (t - 1) & s
            f.append(best)
        chi[lo : lo + _CHUNK] = f[-1]
    return chi



def census_doubling_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matching, independence and chromatic of every mask by doubling over
    the top edge slot k = uv, filling masks [2^k, 2^(k+1)) from [0, 2^k).

    A matching skips uv or takes it with the lower edges apart from u and
    v.  A maximum independent set omits u or omits v; deleting a vertex's
    edges isolates it, hence the -1.  In an optimal colouring u's class is
    an independent set I holding u and not v; deleting I's edges clears
    slot k and leaves the other classes colouring the rest, so chi is 1 +
    the least chi over those I.
    """
    masks, slot = _mask_geometry(n)
    star, within = _stars_and_within(n, slot)
    mu = np.zeros(len(masks), dtype=np.uint8)
    alpha = np.zeros(len(masks), dtype=np.uint8)
    chi = np.zeros(len(masks), dtype=np.uint8)
    alpha[0] = n
    chi[0] = n > 0
    for (u, v), k in sorted(slot.items(), key=lambda item: item[1]):
        lo = masks[: 1 << k]
        top = slice(1 << k, 2 << k)
        apart = ~(star[u] | star[v])
        np.maximum(mu[: 1 << k], mu[lo & apart] + 1, out=mu[top])
        np.maximum(alpha[lo & ~star[u]], alpha[lo & ~star[v]], out=alpha[top])
        alpha[top] -= 1
        best = chi[top]
        best[:] = UNDEFINED
        for rest in range(1 << n):
            if rest & (1 << u | 1 << v):
                continue
            cls = rest | 1 << u
            cleared = 0  # the edges at I, slot k among them
            for w in range(n):
                if cls >> w & 1:
                    cleared |= star[w]
            np.minimum(
                best, chi[lo & ~cleared], out=best, where=(lo & within[cls]) == 0
            )
        best += 1
    return mu, alpha, chi


def census_domination_table(n: int) -> np.ndarray:
    """Domination of every mask: vertex subsets by size, each size testing
    only the masks that no smaller subset dominates, by an OR of the
    subset's closed neighbourhoods."""
    masks, slot = _mask_geometry(n)
    closed = [np.full(len(masks), 1 << v, dtype=np.uint8) for v in range(n)]
    for (u, v), k in slot.items():
        present = ((masks >> k) & 1).astype(np.uint8)
        closed[u] |= present << v
        closed[v] |= present << u
    vfull = (1 << n) - 1
    gamma = np.full(len(masks), 255, dtype=np.uint8)
    for size in range(n + 1):
        open_ = np.flatnonzero(gamma == 255)
        if not open_.size:
            break
        reach_of = [c[open_] for c in closed]
        hit = np.zeros(open_.size, dtype=bool)
        for t in range(1 << n):
            if t.bit_count() != size:
                continue
            reach = np.zeros(open_.size, dtype=np.uint8)
            for w in range(n):
                if t >> w & 1:
                    reach |= reach_of[w]
            hit |= reach == vfull
        gamma[open_[hit]] = size
    return gamma


ORACLES = {
    "chromatic": oracle_chromatic,
    "clique": oracle_clique,
    "components": oracle_components,
    "domination": oracle_domination,
    "edge_cover": oracle_edge_cover,
    "independence": oracle_independence,
    "matching": oracle_matching,
    "path_cover": oracle_path_cover,
    "vertex_cover": oracle_vertex_cover,
}


# -- order-wide sweeps, every direction --------------------------------------


def oracle_stability_sweep(cen, kinds) -> dict[str, AuditReport]:
    """``stability_sweep`` on ``cen``, comparing each of the 6 C(n,4)
    ordered switch shapes on its own and keeping the first-listed shape
    at the lowest bad mask."""
    checked = dict.fromkeys(kinds, 0)
    worst: dict[str, tuple[int, ActionMatrix]] = {}
    for k1, k2, a1, a2, m in _switch_patterns(cen):
        bits = (1 << k1) | (1 << k2) | (1 << a1) | (1 << a2)
        req = (1 << k1) | (1 << k2)
        for kind in kinds:
            table = cen.tables[kind]
            cur = slot_view(table, bits, req)
            bad = np.abs(slot_view(table, bits, bits ^ req).astype(np.int16) - cur) > 1
            if kind == "edge_cover":
                defined = cur < UNDEFINED
                checked[kind] += int(np.count_nonzero(defined))
                bad &= defined
            else:
                checked[kind] += cur.size
            first = int(np.argmax(bad))
            if bad.flat[first]:
                mask = slot_mask(first, bits, req)
                if kind not in worst or mask < worst[kind][0]:
                    worst[kind] = (mask, m)
    out = {}
    for kind in kinds:
        if kind in worst:
            mask, m = worst[kind]
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


def oracle_edge_diff_audit(cen) -> AuditReport:
    """``edge_diff_audit`` on ``cen``, comparing all C(n,2)(C(n,2)-1)
    ordered edge moves in turn."""
    checked = 0
    for kdel in range(cen.n_slots):
        for kadd in range(cen.n_slots):
            if kadd == kdel:
                continue
            bits = (1 << kdel) | (1 << kadd)
            cur = slot_view(cen.degree_id, bits, 1 << kdel)
            same = cur == slot_view(cen.degree_id, bits, 1 << kadd)
            checked += cur.size
            first = int(np.argmax(same))
            if same.flat[first]:
                mask = slot_mask(first, bits, 1 << kdel)
                return AuditReport(
                    audit="edge_diff",
                    passed=False,
                    counterexample=(cen.graph(mask), cen.graph(mask ^ bits)),
                    checked=checked,
                )
    return AuditReport(audit="edge_diff", passed=True, checked=checked)


# -- interval witnesses, by sorting ------------------------------------------


def oracle_interval_witnesses(seq, kind: str, family: str) -> dict[int, Graph]:
    """Each value of ``kind`` over the family, mapped to the member with
    the least sorted edge list among those attaining it."""
    pairs = sorted(
        (compute(kind, g), g.sorted_edges()) for g in enumerate_family(seq, family)
    )
    witnesses: dict[int, Graph] = {}
    for value, edges in pairs:
        if value not in witnesses:
            witnesses[value] = Graph(len(seq), edges)
    return witnesses


def oracle_interval_census(seq, kind: str, family: str) -> AuditReport:
    """``interval_audit`` on a graphical vector of order at most 7 (and no
    isolated vertex under edge cover), from the census: the family's
    masks in ascending order, each value's witness the lowest mask with
    that value."""
    seq = tuple(seq)
    cen = census(len(seq))
    packed = sum(d << (3 * v) for v, d in enumerate(seq))
    select = (cen.degree_vectors[cen.degree_id] == packed) & _family_selector(cen, family)
    masks = np.flatnonzero(select)
    witnesses: dict[int, Graph] = {}
    for mask in masks:
        value = int(cen.tables[kind][mask])
        if value not in witnesses:
            witnesses[value] = cen.graph(int(mask))
    values = tuple(sorted(witnesses))
    if not values:
        return AuditReport(
            audit="interval",
            passed=True,
            kind=kind,
            family=family,
            sequence=seq,
            interval_ok=None,
            checked=0,
            notes="family is empty",
        )
    ok = values == tuple(range(values[0], values[-1] + 1))
    return AuditReport(
        audit="interval",
        passed=ok,
        kind=kind,
        family=family,
        sequence=seq,
        values=values,
        interval_ok=ok,
        witnesses=witnesses,
        checked=int(masks.size),
    )
