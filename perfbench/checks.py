"""Independent checks of the program's outputs.

Nothing here imports the program.  Graphs are (n, edge list) pairs with
vertices 1..n; every parameter is recomputed by brute force over vertex
subsets, which is fine up to about ten vertices, or tested against a
classical identity.  A failed check raises CheckError.
"""

from __future__ import annotations

import math


class CheckError(Exception):
    """A program output contradicts an independent computation."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


def _norm(u, v):
    return (u, v) if u < v else (v, u)


# -- structure ------------------------------------------------------------------


def components(n, edges):
    """Number of connected components, by union-find."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def is_forest(n, edges):
    return len(edges) == n - components(n, edges)


def is_tree(n, edges):
    return n >= 1 and len(edges) == n - 1 and components(n, edges) == 1


def is_unicyclic(n, edges):
    return len(edges) == n - components(n, edges) + 1


def is_bipartite(n, edges):
    adj = _adjacency(n, edges)
    colour = {}
    for s in range(1, n + 1):
        if s in colour:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


FAMILIES = {
    "all": lambda n, edges: True,
    "forest": is_forest,
    "tree": is_tree,
    "unicyclic": is_unicyclic,
    "bipartite": is_bipartite,
}


def degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u - 1] += 1
        deg[v - 1] += 1
    return tuple(deg)


def _adjacency(n, edges):
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# -- routes ---------------------------------------------------------------------


def check_route(n, source, target, steps, family="forest"):
    """Replay ``steps`` (each (a, b, c, d): delete ab, cd; add ac, bd) from
    ``source``.  Every step must delete two present edges and add two
    absent ones, every intermediate must stay in ``family`` and the last
    graph must equal ``target``."""
    keep = FAMILIES[family]
    edges = {_norm(u, v) for u, v in source}
    require(keep(n, edges), f"route starts outside the {family} family")
    for i, (a, b, c, d) in enumerate(steps):
        require(len({a, b, c, d}) == 4, f"step {i} repeats a vertex")
        gone = {_norm(a, b), _norm(c, d)}
        new = {_norm(a, c), _norm(b, d)}
        require(gone <= edges, f"step {i} deletes an absent edge")
        require(not new & edges, f"step {i} adds a present edge")
        edges = (edges - gone) | new
        require(keep(n, edges), f"step {i} leaves the {family} family")
    require(edges == {_norm(u, v) for u, v in target}, "route ends off its target")


# -- parameters by brute force --------------------------------------------------


def _masks(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def _independent(adj, s):
    return all(not (adj[i] & s) for i in range(len(adj)) if s >> i & 1)


def independence(n, edges):
    adj = _masks(n, edges)
    return max(
        bin(s).count("1") for s in range(1 << n) if _independent(adj, s)
    )


def vertex_cover(n, edges):
    best = n
    for s in range(1 << n):
        if all(s >> (u - 1) & 1 or s >> (v - 1) & 1 for u, v in edges):
            best = min(best, bin(s).count("1"))
    return best


def clique(n, edges):
    present = {_norm(u, v) for u, v in edges}
    others = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in present
    ]
    return independence(n, others) if n else 0


def domination(n, edges):
    adj = _masks(n, edges)
    full = (1 << n) - 1
    best = n
    for s in range(1 << n):
        covered = s
        for i in range(n):
            if s >> i & 1:
                covered |= adj[i]
        if covered == full:
            best = min(best, bin(s).count("1"))
    return best


def matching(n, edges):
    edges = sorted({_norm(u, v) for u, v in edges})

    def rec(i, used):
        if i == len(edges):
            return 0
        u, v = edges[i]
        best = rec(i + 1, used)
        bit = (1 << u) | (1 << v)
        if not used & bit:
            best = max(best, 1 + rec(i + 1, used | bit))
        return best

    return rec(0, 0)


def edge_cover(n, edges):
    """Fewest edges touching every vertex; None when a vertex is isolated."""
    if any(d == 0 for d in degrees(n, edges)):
        return None
    adj = _masks(n, edges)
    best = {0: 0}

    def rec(uncovered):
        if uncovered not in best:
            i = (uncovered & -uncovered).bit_length() - 1
            best[uncovered] = 1 + min(
                rec(uncovered & ~(1 << i) & ~(1 << j))
                for j in range(n)
                if adj[i] >> j & 1
            )
        return best[uncovered]

    return rec((1 << n) - 1)


def chromatic(n, edges):
    if n == 0:
        return 0
    adj = _adjacency(n, edges)

    def colourable(k):
        colour = {}

        def place(v):
            if v > n:
                return True
            for c in range(k):
                if all(colour.get(w) != c for w in adj[v]):
                    colour[v] = c
                    if place(v + 1):
                        return True
                    del colour[v]
            return False

        return place(1)

    k = 1
    while not colourable(k):
        k += 1
    return k


def path_cover(n, edges):
    """Fewest vertex-disjoint paths covering every vertex."""
    adj = _masks(n, edges)
    size = 1 << n
    # ends[s]: vertices where some Hamiltonian path of G[s] ends
    ends = [0] * size
    for i in range(n):
        ends[1 << i] = 1 << i
    for s in range(1, size):
        if s & (s - 1) == 0:
            continue
        for i in range(n):
            if s >> i & 1 and ends[s & ~(1 << i)] & adj[i]:
                ends[s] |= 1 << i
    cover = [0] + [n + 1] * (size - 1)
    for s in range(1, size):
        low = s & -s
        t = s
        while t:
            if t & low and ends[t]:
                cover[s] = min(cover[s], 1 + cover[s & ~t])
            t = (t - 1) & s
    return cover[size - 1]


BRUTE_FORCE = {
    "chromatic": chromatic,
    "clique": clique,
    "components": components,
    "domination": domination,
    "edge_cover": edge_cover,
    "independence": independence,
    "matching": matching,
    "path_cover": path_cover,
    "vertex_cover": vertex_cover,
}


def check_parameter(kind, n, edges, value):
    """The program's ``value`` of ``kind`` on the graph equals brute force."""
    expected = BRUTE_FORCE[kind](n, edges)
    require(
        value == expected,
        f"{kind} is {value} on {n}-vertex graph {sorted(edges)}, expected {expected}",
    )


def check_large_params(n, edges, values, complement_independence):
    """Identities that tie the nine kinds together on one graph.

    ``values`` maps kind names (plus "rank") to the program's results;
    path_cover may be missing.  ``complement_independence`` is the
    independence number of the complement graph.
    """
    a, t = values["independence"], values["vertex_cover"]
    mu, rho = values["matching"], values["edge_cover"]
    require(a + t == n, f"independence {a} + vertex cover {t} != {n}")
    require(mu + rho == n, f"matching {mu} + edge cover {rho} != {n}")
    w, chi = values["clique"], values["chromatic"]
    require(
        w == complement_independence,
        f"clique {w} != independence of the complement {complement_independence}",
    )
    top = max(degrees(n, edges)) + 1
    require(w <= chi <= top, f"clique {w} <= chromatic {chi} <= {top} fails")
    require(
        values["components"] == components(n, edges),
        f"component count {values['components']} != {components(n, edges)}",
    )
    dom = values["domination"]
    require(1 <= dom <= a, f"domination {dom} not within 1..independence {a}")
    if "path_cover" in values:
        p = values["path_cover"]
        require(1 <= p <= a, f"path cover {p} not within 1..independence {a}")
    if "rank" in values:
        r = values["rank"]
        require(
            (2 if edges else 0) <= r <= n, f"adjacency rank {r} outside its range"
        )


# -- counts ---------------------------------------------------------------------


def tree_count(seq):
    """Labelled trees with degree vector ``seq``: (n-2)! / prod (d_i - 1)!."""
    n = len(seq)
    if n == 1:
        return 1 if seq[0] == 0 else 0
    if any(d < 1 for d in seq) or sum(seq) != 2 * (n - 1):
        return 0
    out = math.factorial(n - 2)
    for d in seq:
        out //= math.factorial(d - 1)
    return out


def labelled_forests(n):
    """Forests on n labelled vertices: pick the component of vertex 1."""
    f = [1]
    for m in range(1, n + 1):
        f.append(
            sum(
                math.comb(m - 1, k - 1) * k ** (k - 2 if k >= 2 else 0) * f[m - k]
                for k in range(1, m + 1)
            )
        )
    return f[n]


def switch_incidences(n):
    """(graph, non-trivial switch) pairs at order n: 6 C(n,4) 2^(C(n,2)-4).

    Four vertices carry three perfect matchings; a switch deletes one
    (2 present edges) and adds another (2 absent), 3 * 2 ordered choices,
    and every other slot is free.
    """
    if n < 4:
        return 0
    return 6 * math.comb(n, 4) * 2 ** (math.comb(n, 2) - 4)


def edge_moves(n):
    """(graph, present slot, absent slot) triples at order n: S(S-1) 2^(S-2)."""
    s = math.comb(n, 2)
    return s * (s - 1) * 2 ** (s - 2) if s >= 2 else 0


def check_family(seq, family, graphs, expected_count=None):
    """Enumerated ``graphs`` (edge lists) all have degree vector ``seq``, lie
    in ``family``, are distinct and, when given, number ``expected_count``."""
    n = len(seq)
    keep = FAMILIES[family]
    seen = set()
    for edges in graphs:
        key = tuple(sorted(_norm(u, v) for u, v in edges))
        require(degrees(n, key) == tuple(seq), f"{key} has the wrong degrees for {seq}")
        require(keep(n, key), f"{key} is not in the {family} family")
        require(key not in seen, f"{key} enumerated twice")
        seen.add(key)
    if expected_count is not None:
        require(
            len(seen) == expected_count,
            f"{family} family of {seq} has {len(seen)} members, expected {expected_count}",
        )


def check_interval(values):
    require(bool(values), "interval audit reported no values")
    require(
        list(values) == list(range(values[0], values[-1] + 1)),
        f"values {values} are not a contiguous interval",
    )
