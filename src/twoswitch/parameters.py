"""Exact graph parameters.

Nine integer invariants that a single 2-switch can move by at most one:
matching, independence, domination, path cover, edge cover, vertex cover,
chromatic, clique and component count.  All algorithms here are exact and
deterministic (ties always break toward the lowest label), sized for the
package's working range of up to roughly twenty vertices.  The two cover
numbers come from Gallai's identities: vertex cover is n - independence,
and edge cover is n - matching on graphs with no isolated vertex.  Path
cover is a numpy recurrence over the 2^n vertex subsets, O(2^n * n) time
and about 5 * 2^n bytes whatever the edges; it refuses graphs above
``PATH_COVER_MAX`` vertices with ``CapExceededError``.

Forests additionally get linear-time rooted DPs for matching,
independence, domination and path cover.  Both routes are kept on purpose:
the tests drive them against each other.
"""

from __future__ import annotations

import numpy as np

from . import graphs
from .graphs import CapExceededError, Graph, GraphError, NotAForestError


class IsolatedVertexError(GraphError):
    """Edge cover is undefined when some vertex has no incident edge."""


STABLE_KINDS = (
    "chromatic",
    "clique",
    "components",
    "domination",
    "edge_cover",
    "independence",
    "matching",
    "path_cover",
    "vertex_cover",
)


def _adj_masks(g: Graph) -> list[int]:
    """Neighbour bitmasks, 0-based: bit j of masks[i] means edge (i+1, j+1)."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return masks


def _lowest_bit_index(x: int) -> int:
    return (x & -x).bit_length() - 1


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# -- matching --------------------------------------------------------------


def matching_number(g: Graph) -> int:
    """Maximum number of pairwise disjoint edges."""
    adj = _adj_masks(g)
    memo: dict[int, int] = {}

    def rec(avail: int) -> int:
        live = avail
        v = -1
        while live:
            i = _lowest_bit_index(live)
            if adj[i] & avail:
                v = i
                break
            live ^= 1 << i
        if v < 0:
            return 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        best = rec(avail & ~(1 << v))
        for u in _bits(adj[v] & avail):
            best = max(best, 1 + rec(avail & ~((1 << v) | (1 << u))))
        memo[avail] = best
        return best

    try:
        return rec((1 << g.n) - 1)
    finally:
        del rec  # rec refers to itself; unbinding it frees the memo now


# -- independence / vertex cover -------------------------------------------


def independence_number(g: Graph) -> int:
    """Largest set of pairwise non-adjacent vertices."""
    adj = _adj_masks(g)
    memo: dict[int, int] = {}

    def rec(avail: int) -> int:
        live = avail
        v = -1
        while live:
            i = _lowest_bit_index(live)
            if adj[i] & avail:
                v = i
                break
            live ^= 1 << i
        if v < 0:
            return bin(avail).count("1")
        cached = memo.get(avail)
        if cached is not None:
            return cached
        without = rec(avail & ~(1 << v))
        with_v = 1 + rec(avail & ~((1 << v) | adj[v]))
        best = max(without, with_v)
        memo[avail] = best
        return best

    try:
        return rec((1 << g.n) - 1)
    finally:
        del rec  # rec refers to itself; unbinding it frees the memo now


def vertex_cover_number(g: Graph) -> int:
    """Smallest set of vertices meeting every edge: the complement of a
    largest independent set (Gallai)."""
    return g.n - independence_number(g)


# -- domination ------------------------------------------------------------


def domination_number(g: Graph) -> int:
    """Smallest set whose closed neighbourhoods cover every vertex."""
    adj = _adj_masks(g)
    closed = [adj[i] | (1 << i) for i in range(g.n)]
    memo: dict[int, int] = {}

    def rec(undominated: int) -> int:
        if not undominated:
            return 0
        cached = memo.get(undominated)
        if cached is not None:
            return cached
        v = _lowest_bit_index(undominated)
        # some member of N[v] must go into the dominating set
        best = g.n + 1
        for w in _bits(closed[v]):
            best = min(best, 1 + rec(undominated & ~closed[w]))
        memo[undominated] = best
        return best

    try:
        return rec((1 << g.n) - 1)
    finally:
        del rec  # rec refers to itself; unbinding it frees the memo now


# -- path cover ------------------------------------------------------------


PATH_COVER_MAX = 20  # the documented range: 2^20 subsets, about 5 MB of tables
_PATH_COVER_ROWS = 1 << 14  # subsets per step: bounds each temporary to n * 2^14 entries


def path_cover_number(g: Graph) -> int:
    """Minimum number of vertex-disjoint paths covering all vertices.

    Isolated vertices count as trivial one-vertex paths.  For each vertex
    subset S, ``best[S]`` is the fewest paths covering G[S] and
    ``last[S]`` the bitmask of vertices that end a path in some cover of
    that size.  Taking u out of S leaves P, and u either extends a path
    ending next to it (when adj[u] meets last[P]) or opens a new one; the
    cheapest u give best[S], and exactly those u form last[S].  Subsets
    are processed one popcount layer at a time, vectorized over the layer
    and over u: O(2^n * n) time and about 5 * 2^n bytes of tables
    whatever the edges.  Above ``PATH_COVER_MAX`` vertices it raises
    ``CapExceededError``.
    """
    n = g.n
    if n > PATH_COVER_MAX:
        raise CapExceededError(
            f"path cover of a {n}-vertex graph: general DP capped at "
            f"{PATH_COVER_MAX} vertices"
        )
    adj = np.array(_adj_masks(g), dtype=np.uint32)[:, None]
    bit = (np.int64(1) << np.arange(n, dtype=np.int64))[:, None]
    size = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    best = np.zeros(1 << n, dtype=np.uint8)
    last = np.zeros(1 << n, dtype=np.uint32)
    for k in range(1, n + 1):
        layer = np.flatnonzero(size == k)
        for lo in range(0, len(layer), _PATH_COVER_ROWS):
            s = layer[lo : lo + _PATH_COVER_ROWS]
            p = s ^ bit  # row u: S without u, or S with u where u is not in S
            cost = best[p] + ((last[p] & adj) == 0)
            cost[p > s] = 255  # u not in S
            low = cost.min(axis=0)
            best[s] = low
            last[s] = ((cost == low) * bit).sum(axis=0, dtype=np.uint32)
    return int(best[-1])


# -- edge cover ------------------------------------------------------------


def edge_cover_number(g: Graph) -> int:
    """Minimum number of edges touching every vertex.

    Gallai's identity gives it as n - matching: extend a maximum matching
    by one edge per unmatched vertex.  Undefined when a vertex has no
    edge, which raises ``IsolatedVertexError``.
    """
    if g.n == 0:
        return 0
    adj = _adj_masks(g)
    if any(m == 0 for m in adj):
        isolated = min(i + 1 for i, m in enumerate(adj) if m == 0)
        raise IsolatedVertexError(
            f"vertex {isolated} has degree 0; edge cover undefined"
        )
    return g.n - matching_number(g)


# -- colouring / cliques ----------------------------------------------------


def chromatic_number(g: Graph) -> int:
    """Fewest colours in a proper colouring; 0 for the empty-order graph."""
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    adj = _adj_masks(g)
    # highest degree first makes the backtracking cut early; label breaks ties
    order = sorted(range(g.n), key=lambda i: (-bin(adj[i]).count("1"), i))

    def colourable(k: int) -> bool:
        colours = [0] * g.n

        def place(idx: int, used: int) -> bool:
            if idx == len(order):
                return True
            v = order[idx]
            seen = 0
            for j in order[:idx]:
                if adj[v] >> j & 1:
                    seen |= 1 << colours[j]
            limit = min(k, used + 1)
            for c in range(limit):
                if seen >> c & 1:
                    continue
                colours[v] = c
                if place(idx + 1, max(used, c + 1)):
                    return True
            return False

        return place(0, 0)

    k = 2
    while not colourable(k):
        k += 1
    return k


def clique_number(g: Graph) -> int:
    """Largest complete subgraph, by branching over candidate sets."""
    if g.n == 0:
        return 0
    adj = _adj_masks(g)
    best = 0

    def rec(candidates: int, size: int):
        nonlocal best
        if size > best:
            best = size
        while candidates:
            if size + bin(candidates).count("1") <= best:
                return
            v = _lowest_bit_index(candidates)
            candidates ^= 1 << v
            rec(candidates & adj[v], size + 1)

    rec((1 << g.n) - 1, 0)
    return best


def components_count(g: Graph) -> int:
    return graphs.kappa(g)


# -- forest specializations -------------------------------------------------


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
                        raise NotAForestError(
                            "forest DP called on a graph with a cycle"
                        )
                    seen.add(w)
                    stack.append((w, v, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                order.append((v, parent))
                stack.pop()
    return order


def forest_matching_number(g: Graph) -> int:
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


def forest_independence_number(g: Graph) -> int:
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


def forest_domination_number(g: Graph) -> int:
    """Three-state tree DP: in the set / dominated / still needs the parent."""
    inf = g.n + 1
    in_set = {}
    dominated = {}
    needs = {}
    total = 0
    for v, parent in _forest_roots_and_order(g):
        children = [w for w in g.neighbors(v) if w != parent]
        in_set[v] = 1 + sum(
            min(in_set[c], dominated[c], needs[c]) for c in children
        )
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


def forest_path_cover_number(g: Graph) -> int:
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


def forest_rank_nullity(g: Graph) -> tuple[int, int]:
    """(rank, nullity) of the adjacency matrix of a forest.

    For forests the rank is exactly twice the matching number, so this
    stays integer arithmetic end to end; ``adjacency_rank`` offers the
    direct elimination for cross-checking.
    """
    if not graphs.is_forest(g):
        raise NotAForestError("rank/nullity shortcut only holds for forests")
    rank = 2 * forest_matching_number(g)
    return rank, g.n - rank


def adjacency_rank(g: Graph) -> int:
    """Rank of the adjacency matrix over the rationals.

    Integer-preserving Gaussian elimination: rows are combined as
    p*row_r - q*row_pivot, which never divides and therefore never
    rounds.  Entry growth is irrelevant at this package's sizes.
    """
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        rows[u - 1][v - 1] = 1
        rows[v - 1][u - 1] = 1
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, n):
            q = rows[r][col]
            if q:
                rows[r] = [p * a - q * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# -- dispatch ----------------------------------------------------------------

_GENERAL = {
    "matching": matching_number,
    "independence": independence_number,
    "domination": domination_number,
    "path_cover": path_cover_number,
    "edge_cover": edge_cover_number,
    "vertex_cover": vertex_cover_number,
    "chromatic": chromatic_number,
    "clique": clique_number,
    "components": components_count,
}

_FOREST_FAST = {
    "matching": forest_matching_number,
    "independence": forest_independence_number,
    "domination": forest_domination_number,
    "path_cover": forest_path_cover_number,
}


def compute(kind: str, g: Graph) -> int:
    """Evaluate one of the nine stable parameters on ``g``.

    Routes forests through the rooted DPs where one exists; all other
    cases take the general exact algorithm.
    """
    if kind not in _GENERAL:
        raise GraphError(f"unknown parameter kind {kind!r}")
    if kind in _FOREST_FAST and graphs.is_forest(g):
        return _FOREST_FAST[kind](g)
    return _GENERAL[kind](g)
