"""Exact graph parameters.

Nine integer invariants that a single 2-switch can move by at most one:
matching, independence, domination, path cover, edge cover, vertex cover,
chromatic, clique and component count.  ``compute`` is the one entry
point for all nine.  All algorithms here are exact and deterministic
(ties always break toward the lowest label).

On every graph ``compute`` takes components from one union-find pass
and the two covers from Gallai's identities: vertex cover is
n - independence, and edge cover n - matching on graphs with no
isolated vertex.  The six other kinds each have a general route and a
forest route.

On a general graph matching is Edmonds' blossom algorithm (1965):
O(n^3) time, O(n + m) memory and no cap on the order.  The other five
kinds are exponential, and each refuses graphs above ``SUBSET_MAX`` = 20
vertices with ``CapExceededError``.  Independence is a memoized
recursion that keeps or drops the lowest vertex with a neighbour left,
so its memo holds at most 2^20 vertex subsets; clique is independence
on the complement.  Domination is a branch and bound over
undominated sets, started from the greedy bound, whose table holds at
most 2^20 sets.  Both are freed on return.  Path cover certifies each
component with a bounded Pósa rotation–extension search for a spanning
path, O(k^3) on k vertices, and runs a numpy recurrence over the 2^k
vertex subsets, O(2^k * k) time and about 5 * 2^k bytes, only on the
components it leaves.  Chromatic is a backtracking search for the fewest
colours.  At n = 20, on G(n, m) graphs of every density, K20 and K10,10
(2-core VM, Python 3.11), one call took at most about 0.04 ms for
matching and edge cover, 7 ms for chromatic, 1 ms for independence,
vertex cover and clique, and 0.5 ms for domination.  Path cover took
at most 0.3 ms where every component was certified, as on each of 40
seeded G(20, m) at every density from 0.25 up, and 0.15-0.25 s where a
20-vertex component was not; a matching of G(1000, 2500) took about
30 ms.

On a forest the six kinds come from two leaves-up passes, O(n) each and
without a cap.  Both take their order from ``_leaves_up``, which peels
leaves with a degree count and the XOR of each vertex's neighbours, so
no forest kind builds adjacency lists and nothing recurses.  The first
links a vertex to its parent whenever both have room: with one link per
vertex that is a maximum matching nu, and with two it is a largest set
of disjoint paths, so path cover is n minus its edges.
Forests are bipartite, so König's theorem gives independence n - nu, and
with it vertex cover nu and edge cover n - nu.  The second is the
domination greedy of Cockayne, Goodman and Hedetniemi (1975), which
takes the parent of every vertex still undominated.  Chromatic and clique
are 2 with an edge, and the adjacency rank is 2 * nu.  The tests check
both passes against rooted dynamic programs.
"""

from __future__ import annotations

from math import gcd

from . import graphs
from .graphs import CapExceededError, Graph, GraphError


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
_KINDS = frozenset(STABLE_KINDS)


SUBSET_MAX = 20  # every exponential kind: at most 2^20 vertex subsets


def _adj_masks(g: Graph) -> list[int]:
    """Neighbour bitmasks, 0-based: bit j of masks[i] means edge (i+1, j+1).

    Every exponential kind starts here, so this is where the order of
    ``g`` is held to ``SUBSET_MAX``.
    """
    if g.n > SUBSET_MAX:
        raise CapExceededError(
            f"exact parameter of a {g.n}-vertex graph: subset search capped "
            f"at {SUBSET_MAX} vertices"
        )
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return masks


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# -- matching --------------------------------------------------------------


def _matching(g: Graph) -> int:
    """Maximum number of pairwise disjoint edges, by Edmonds' blossom
    algorithm (Edmonds 1965, "Paths, trees, and flowers").

    A greedy pass matches each vertex, in label order, to its lowest free
    neighbour.  Then every vertex still free roots one breadth-first
    search for an augmenting path (Berge: a matching is maximum exactly
    when it has none).  An odd cycle closed between two outer vertices
    is a blossom; it is contracted to its base, the cycle's vertex
    nearest the root, after which every vertex of it is outer and can
    carry the path on.  A search that fails leaves its root free for
    good: augmenting elsewhere never opens a path to it.  The searches
    share one set of work arrays and each clears only the vertices its
    tree reached, so a search without blossoms costs the edges at its
    tree: O(n^2) at
    worst, O(n^3) time and O(n + m) memory in all, with no cap on the
    order.  Measured on a 2-core VM under Python 3.11: at most
    0.04 ms per call at n = 20 over G(n, m) graphs of every density, K20
    and K10,10, about 10 us at n = 8, and about 30 ms on G(1000, 2500).
    """
    adj = g.adjacency()
    mate = [0] * (g.n + 1)  # 0 for a free vertex; label 0 is no vertex
    for v in g.vertices():
        if not mate[v]:
            for u in adj[v]:
                if not mate[u]:
                    mate[v], mate[u] = u, v
                    break
    parent = [0] * (g.n + 1)
    base = list(range(g.n + 1))
    outer = [False] * (g.n + 1)
    for root in g.vertices():
        if not mate[root] and adj[root]:
            # clear only what the search touched, so a search costs the
            # size of its tree, not n
            for w in _augment(adj, mate, parent, base, outer, root):
                parent[w], base[w], outer[w] = 0, w, False
    return sum(1 for v in g.vertices() if mate[v]) // 2


def _augment(
    adj: dict[int, tuple[int, ...]],
    mate: list[int],
    parent: list[int],
    base: list[int],
    outer: list[bool],
    root: int,
) -> list[int]:
    """Grow an alternating tree from the free vertex ``root`` breadth
    first and flip the first augmenting path it finds into ``mate``.
    Return the tree's vertices, the only entries of ``parent``, ``base``
    and ``outer`` it changed; the caller resets them.

    Outer vertices are the root and the mates of inner ones.  ``parent``
    links an inner vertex to the outer vertex that reached it, and
    ``base`` maps each vertex to the base of the outermost blossom
    holding it.  Through a contracted blossom ``parent`` records the way
    round the cycle that ends on a matched edge at the base, so the
    flip walks ``parent`` and ``mate`` alternately all the way back.
    """
    outer[root] = True
    queue = [root]
    tree = [root]
    for v in queue:  # the queue grows while it is read
        for u in adj[v]:
            if base[v] == base[u] or mate[v] == u:
                continue
            if outer[u]:  # an odd cycle: contract it to its base b
                b = _blossom_base(mate, parent, base, v, u)
                in_blossom = [False] * len(mate)  # a C fill, not a scan
                for x, child in ((v, u), (u, v)):
                    while base[x] != b:
                        in_blossom[base[x]] = in_blossom[base[mate[x]]] = True
                        parent[x] = child
                        child = mate[x]
                        x = parent[child]
                for w in tree:  # every vertex of a blossom is in the tree
                    if in_blossom[base[w]]:
                        base[w] = b
                        if not outer[w]:
                            outer[w] = True
                            queue.append(w)
            elif not parent[u]:
                parent[u] = v
                tree.append(u)
                if not mate[u]:
                    while u:
                        w = parent[u]
                        after = mate[w]
                        mate[u], mate[w] = w, u
                        u = after
                    return tree
                outer[mate[u]] = True
                queue.append(mate[u])
                tree.append(mate[u])
    return tree


def _blossom_base(
    mate: list[int], parent: list[int], base: list[int], v: int, u: int
) -> int:
    """The base of the blossom closed by the edge between the outer
    vertices ``v`` and ``u``: the first base that both walks towards the
    root meet."""
    on_path = set()
    while True:
        v = base[v]
        on_path.add(v)
        if not mate[v]:  # the root, the only free outer vertex
            break
        v = parent[mate[v]]
    while base[u] not in on_path:
        u = parent[mate[base[u]]]
    return base[u]


# -- independence / clique ------------------------------------------------


def _largest_independent(adj: list[int], avail: int, memo: dict) -> int:
    """Size of a largest independent subset of ``avail``.

    Branches on the lowest vertex of ``avail`` with a neighbour in it,
    left out or taken with its neighbours dropped; a subset without one
    is independent whole.  ``memo`` keeps each subset's answer: at most
    2^n entries, and the recursion is at most n deep.  A module-level
    function, as ``_dominate`` is, so no reference cycle keeps the memo
    alive.
    """
    if avail in memo:
        return memo[avail]
    live = avail
    while live:
        v = (live & -live).bit_length() - 1
        if adj[v] & avail:
            break
        live &= live - 1
    if not live:  # no vertex of avail has a neighbour in it
        value = avail.bit_count()
    else:
        rest = avail & ~(1 << v)
        value = max(
            _largest_independent(adj, rest, memo),
            1 + _largest_independent(adj, rest & ~adj[v], memo),
        )
    memo[avail] = value
    return value


def _independence(g: Graph) -> int:
    """Largest set of pairwise non-adjacent vertices."""
    return _largest_independent(_adj_masks(g), (1 << g.n) - 1, {})


def _clique(g: Graph) -> int:
    """Largest complete subgraph: a largest independent set of the
    complement."""
    adj = _adj_masks(g)
    full = (1 << g.n) - 1
    complement = [full & ~(a | 1 << v) for v, a in enumerate(adj)]
    return _largest_independent(complement, full, {})


# -- domination ------------------------------------------------------------


def _domination(g: Graph) -> int:
    """Smallest set whose closed neighbourhoods cover every vertex, by a
    depth-first branch and bound over the set of undominated vertices.

    The greedy set of ``_greedy_dominating`` is the first incumbent, and
    ``_dominate`` then looks only for strictly smaller sets.  Its table
    keeps, for each undominated set it expanded, the fewest chosen
    vertices it was expanded with: at most 2^n entries, freed on return,
    and at most (n + 1) * 2^n expansions of O(n) each.
    """
    closed = [a | 1 << v for v, a in enumerate(_adj_masks(g))]
    best = [_greedy_dominating(closed)]
    _dominate(closed, (1 << g.n) - 1, 0, best, {})
    return best[0]


def _greedy_dominating(closed: list[int]) -> int:
    """Size of the set that repeatedly takes the vertex dominating the
    most undominated vertices, the lowest label on a tie: an upper bound
    on domination.  O(n^2) time, O(n) memory."""
    undominated = (1 << len(closed)) - 1
    size = 0
    while undominated:
        gain = [(c & undominated).bit_count() for c in closed]
        undominated &= ~closed[gain.index(max(gain))]
        size += 1
    return size


def _dominate(
    closed: list[int], undominated: int, size: int, best: list[int], expanded: dict
) -> None:
    """Lower ``best[0]`` to the smallest dominating set that adds to
    ``size`` chosen vertices a set dominating ``undominated``, if that is
    below ``best[0]``.

    A branch stops when ``expanded`` shows the same undominated set
    already expanded with at most ``size`` chosen, or when ``size`` plus
    the lower bound ceil(|undominated| / largest coverage) reaches
    ``best[0]``.  Otherwise it branches on the undominated vertex with
    the fewest dominators (lowest label on a tie), taking each member of
    its closed neighbourhood, most coverage first.  Each set is expanded
    at most once per value of ``size``, so at most (n + 1) * 2^n times,
    each in O(n) time; ``expanded`` holds at most 2^n entries and the
    recursion is at most n deep.  A module-level function, as
    ``_colour_from`` is, so no reference cycle keeps the table alive.
    """
    if not undominated:
        best[0] = min(best[0], size)
        return
    if expanded.get(undominated, size + 1) <= size:
        return
    gain = [(c & undominated).bit_count() for c in closed]
    if size + -(-undominated.bit_count() // max(gain)) >= best[0]:
        return
    expanded[undominated] = size
    v = min(_bits(undominated), key=lambda u: (closed[u].bit_count(), u))
    for w in sorted(_bits(closed[v]), key=lambda w: (-gain[w], w)):
        _dominate(closed, undominated & ~closed[w], size + 1, best, expanded)


# -- path cover ------------------------------------------------------------


def _path_cover(g: Graph) -> int:
    """Minimum number of vertex-disjoint paths covering all vertices.

    Isolated vertices count as trivial one-vertex paths.  Each component
    needs at least one path, so a component in which
    ``_hamiltonian_path`` finds a spanning path contributes exactly one.
    Every other component, relabelled 0..k-1, goes to the subset
    recurrence ``_path_cover_by_subsets``, whose tables then have 2^k
    entries, not 2^n.  Time O(n^3) for the searches plus O(2^k * k) per
    component they leave, and memory about 5 * 2^k bytes for the largest
    such component.
    """
    adj = _adj_masks(g)
    total = 0
    for comp in graphs.components(g):
        vertices = [v - 1 for v in comp]
        if _hamiltonian_path(adj, vertices) is not None:
            total += 1
        else:
            index = {v: i for i, v in enumerate(vertices)}
            total += _path_cover_by_subsets(
                [sum(1 << index[w] for w in _bits(adj[v])) for v in vertices]
            )
    return total


def _hamiltonian_path(adj: list[int], component: list[int]) -> list[int] | None:
    """A path through every vertex of ``component``, a connected vertex
    list of the graph with neighbour masks ``adj``, or None when the
    bounded search below finds none; None proves nothing.

    A component with more than two vertices of degree one has no such
    path.  Otherwise Pósa's rotation–extension (1976, "Hamiltonian
    circuits in random graphs") grows a path from each vertex in turn,
    least degree first and the lowest label on a tie.  The path extends
    at its end to the free neighbour with the fewest free neighbours
    (Warnsdorff's rule), the lowest label on a tie.  When neither end has
    a free neighbour, ``_rotations`` looks for a rotation of the path
    that frees one.  On a component of k vertices all the starts share
    one budget of k^2 rotations, so the search takes O(k^3) time and
    O(k^3) memory.
    """
    k = len(component)
    if k > 2 and sum(1 for v in component if adj[v] & (adj[v] - 1) == 0) > 2:
        return None
    budget = [k * k]
    for start in sorted(component, key=lambda v: (adj[v].bit_count(), v)):
        path = _grow_path(adj, start, k, budget)
        if path is not None or not budget[0]:
            return path
    return None


def _grow_path(adj: list[int], start: int, k: int, budget: list[int]):
    """Rotation–extension from ``start`` until the path has ``k``
    vertices, or None when ``_rotations`` finds no way on.  Each of the
    k - 1 extensions takes O(k) time and the path O(k) memory, besides
    the rotations."""
    path = [start]
    on = 1 << start
    while len(path) < k:
        free = adj[path[-1]] & ~on
        if not free and adj[path[0]] & ~on:
            path.reverse()
        elif not free:
            path = _rotations(adj, path, on, budget)
            if path is None:
                return None
        free = adj[path[-1]] & ~on
        step = min(_bits(free), key=lambda w: ((adj[w] & ~on).bit_count(), w))
        path.append(step)
        on |= 1 << step
    return path


def _rotations(adj: list[int], path: list[int], on: int, budget: list[int]):
    """A reordering of ``path`` whose end has a neighbour off the path,
    whose vertex set is the bitmask ``on``; None once ``budget[0]``
    rotations are spent.

    Breadth first from the path and its reverse, a rotation about a
    neighbour ``p[i]`` of the end makes ``p[:i + 1] + p[:i:-1]``, which
    ends at ``p[i + 1]``; each (first, last) pair of ends is kept once.
    A path whose ends are adjacent closes a cycle, and the graph is
    connected, so opening the cycle just after its lowest vertex with a
    neighbour off it gives the answer.  Each rotation adds one path of
    k vertices to the queue, so a call that spends b rotations takes
    O((b + 1) * k) time and memory.
    """
    queue = [path, path[::-1]]
    seen = {(path[0], path[-1]), (path[-1], path[0])}
    for p in queue:  # the queue grows while it is read
        end = p[-1]
        if adj[end] & ~on:
            return p
        if adj[end] >> p[0] & 1:
            j = min(
                (i for i, v in enumerate(p) if adj[v] & ~on), key=p.__getitem__
            )
            return p[j + 1 :] + p[: j + 1]
        for i in range(len(p) - 2):
            if adj[end] >> p[i] & 1 and (p[0], p[i + 1]) not in seen:
                if budget[0] == 0:
                    return None
                budget[0] -= 1
                seen.add((p[0], p[i + 1]))
                queue.append(p[: i + 1] + p[: i : -1])
    return None


_PATH_COVER_ROWS = 1 << 14  # subsets per step: bounds each temporary to n * 2^14 entries


def _path_cover_by_subsets(adj: list[int]) -> int:
    """Minimum path cover of the graph with neighbour masks ``adj``, by a
    recurrence over all 2^k vertex subsets.

    For each vertex subset S, ``best[S]`` is the fewest paths covering
    G[S] and ``last[S]`` the bitmask of vertices that end a path in some
    cover of that size.  Taking u out of S leaves P, and u either extends
    a path ending next to it (when adj[u] meets last[P]) or opens a new
    one; the cheapest u give best[S], and exactly those u form last[S].
    Subsets are processed one popcount layer at a time, vectorized over
    the layer and over u: O(2^k * k) time and about 5 * 2^k bytes of
    tables whatever the edges.  numpy is imported at the call, so no
    other parameter loads it.
    """
    import numpy as np

    n = len(adj)
    adj = np.array(adj, dtype=np.uint32)[:, None]
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


# -- colouring / cliques ----------------------------------------------------


def _chromatic(g: Graph) -> int:
    """Fewest colours in a proper colouring; 0 for the empty-order graph."""
    adj = _adj_masks(g)
    if not g.edges:
        return min(g.n, 1)
    # highest degree first makes the backtracking cut early; label breaks ties
    order = sorted(range(g.n), key=lambda i: (-bin(adj[i]).count("1"), i))
    k = 2
    while not _colour_from(adj, order, [0] * g.n, k, 0, 0):
        k += 1
    return k


def _colour_from(
    adj: list[int], order: list[int], colours: list[int], k: int, idx: int, used: int
) -> bool:
    """Extend the proper colouring of ``order[:idx]``, which uses colours
    0..used-1, to every vertex with at most ``k`` colours.

    A module-level function, so the recursion reaches itself through the
    module rather than a closure cell, which would leave a reference
    cycle behind every call.
    """
    if idx == len(order):
        return True
    v = order[idx]
    seen = 0
    for j in order[:idx]:
        if adj[v] >> j & 1:
            seen |= 1 << colours[j]
    for c in range(min(k, used + 1)):
        if seen >> c & 1:
            continue
        colours[v] = c
        if _colour_from(adj, order, colours, k, idx + 1, max(used, c + 1)):
            return True
    return False


# -- forests -----------------------------------------------------------------


def _leaves_up(g: Graph) -> tuple[list[int], list[int]]:
    """Parents (0 at a root, indexed by label) and an order of the
    vertices of the forest ``g`` that lists every vertex after its
    children.

    Leaves are peeled one at a time: a vertex of degree one left is
    listed with its one neighbour left as its parent, found as the XOR
    of its neighbours not yet peeled, and the vertex whose last
    neighbour goes is the root of its tree.  No adjacency lists are
    built and nothing recurses.  O(n + m) time and memory.
    """
    n = g.n
    degree = [0] * (n + 1)
    rest = [0] * (n + 1)  # XOR of the neighbours not yet peeled
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
        rest[u] ^= v
        rest[v] ^= u
    parent = [0] * (n + 1)
    order = [v for v in range(1, n + 1) if degree[v] < 2]
    for v in order:  # the order grows while it is read
        if degree[v]:  # 0 at a root
            p = parent[v] = rest[v]
            rest[p] ^= v
            degree[p] -= 1
            if degree[p] == 1:
                order.append(p)
    return parent, order


def _capped_links(g: Graph, cap: int) -> int:
    """Edges of a largest subgraph of the forest ``g`` with maximum degree
    ``cap``.

    Leaves up, a vertex links to its parent whenever both still have
    fewer than ``cap`` links.  By then the vertex's subtree is settled
    and the parent edge is its only one left, so some largest subgraph
    agreeing with the links so far takes it: dropping one of the
    parent's other links makes room.  At ``cap`` 1 this is a maximum
    matching.
    """
    parent, order = _leaves_up(g)
    links = [0] * (g.n + 1)
    links[0] = cap  # a root has no parent edge to take
    count = 0
    for v in order:
        p = parent[v]
        if links[v] < cap and links[p] < cap:
            links[v] += 1
            links[p] += 1
            count += 1
    return count


def _forest_matching(g: Graph) -> int:
    return _capped_links(g, 1)


def _dominating(g: Graph) -> int:
    """The leaves-up greedy of Cockayne, Goodman and Hedetniemi (1975) on
    the forest ``g``.

    A vertex still undominated once its subtree is settled takes its
    parent into the set, or itself at a root: the parent dominates
    everything any other choice would that is not already dominated.
    """
    parent, order = _leaves_up(g)
    chosen = [False] * (g.n + 1)
    covered = [False] * (g.n + 1)  # in the set or next to a chosen child
    size = 0
    for v in order:
        p = parent[v]
        if covered[v] or chosen[p]:
            continue
        p = p or v
        chosen[p] = covered[p] = covered[parent[p]] = True
        size += 1
    return size


def adjacency_rank(g: Graph) -> int:
    """Rank of the adjacency matrix over the rationals.

    Integer-preserving Gaussian elimination: rows are combined as
    p*row_r - q*row_pivot, and after a pivot p other than +-1 each new row
    is divided by the gcd of its entries, so nothing rounds and entries
    stay small.  On seeded G(n, 1/2) (2-core VM) a call takes about 0.4 ms
    at n = 20, 4 ms at n = 40 and 0.1 s at n = 100; without the division
    G(30, 1/2) took 4.6 s and G(40, 1/2) did not finish in minutes.
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
                row = [p * a - q * b for a, b in zip(rows[r], rows[rank])]
                common = 1 if p in (1, -1) else gcd(*row)  # 0 if all zero
                rows[r] = [a // common for a in row] if common > 1 else row
        rank += 1
    return rank


# -- dispatch ----------------------------------------------------------------

# the general exact algorithms: matching at any order, the rest up to
# ``SUBSET_MAX`` vertices
_GENERAL = {
    "matching": _matching,
    "independence": _independence,
    "domination": _domination,
    "path_cover": _path_cover,
    "chromatic": _chromatic,
    "clique": _clique,
}


def _two_with_an_edge(g: Graph) -> int:
    return 2 if g.edges else min(g.n, 1)


# the same six kinds on a forest, linear and uncapped: forests are bipartite,
# so König gives independence n - matching, and chromatic and clique are 2
# with an edge; only ``compute`` calls these, after it has ruled out a cycle
_FOREST = {
    "matching": _forest_matching,
    "independence": lambda g: g.n - _forest_matching(g),
    "domination": _dominating,
    "path_cover": lambda g: g.n - _capped_links(g, 2),
    "chromatic": _two_with_an_edge,
    "clique": _two_with_an_edge,
}

# Gallai (1959): a vertex set meets every edge exactly when the other
# vertices are independent, and a maximum matching grows into a minimum
# edge cover by one edge per unmatched vertex
_GALLAI = {"vertex_cover": "independence", "edge_cover": "matching"}


def _check_kind(kind) -> None:
    """Refuse anything but one of ``STABLE_KINDS``, naming it as given."""
    if not (isinstance(kind, str) and kind in _KINDS):
        raise GraphError(f"unknown parameter kind {kind!r}")


def _check_kinds(kinds) -> tuple[str, ...]:
    """``kinds`` as a tuple once ``_check_kind`` passes each member, each
    kind once in first-seen order; a string is refused whole rather than
    read as its letters."""
    if isinstance(kinds, str):
        raise GraphError(f"parameter kinds must be a collection of kinds, got {kinds!r}")
    kinds = tuple(kinds)
    for kind in kinds:
        _check_kind(kind)
    return tuple(dict.fromkeys(kinds))


def compute(kind: str, g: Graph) -> int:
    """Evaluate one of the nine stable parameters on ``g``.

    The package's one entry point for them.  Components is one
    union-find pass.  The two covers are Gallai's identities, vertex cover
    n - independence and edge cover n - matching, and edge cover raises
    ``IsolatedVertexError`` when some vertex has no edge.  The six other
    kinds, the covers' two among them, take the linear leaves-up passes
    on a forest, so no forest meets the cap, and the general exact
    algorithm otherwise, which raises ``CapExceededError`` above
    ``SUBSET_MAX`` vertices for every kind but matching.  A ``kind``
    outside ``STABLE_KINDS`` raises ``GraphError``.
    """
    _check_kind(kind)
    if kind == "components":
        return graphs.kappa(g)
    if kind == "edge_cover":
        ends = {v for edge in g.edges for v in edge}
        isolated = next((v for v in g.vertices() if v not in ends), None)
        if isolated is not None:
            raise IsolatedVertexError(
                f"vertex {isolated} has degree 0; edge cover undefined"
            )
    table = _FOREST if graphs.is_forest(g) else _GENERAL
    if kind in _GALLAI:
        return g.n - table[_GALLAI[kind]](g)
    return table[kind](g)
