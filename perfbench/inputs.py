"""Seeded input generators.

Everything here is plain Python on edge lists; the program only ever
sees the finished inputs.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import heapq

from checks import degrees


def prufer_decode(labels, code):
    """Edges of the tree on ``labels`` whose Pruefer code is ``code``.

    ``code`` has len(labels) - 2 entries, all drawn from ``labels``;
    vertex v ends up with degree 1 + (number of times v occurs in code).
    """
    labels = list(labels)
    if len(labels) == 1:
        return []
    degree = dict.fromkeys(labels, 1)
    for x in code:
        degree[x] += 1
    leaves = [v for v in labels if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def _norm(edges):
    return sorted((u, v) if u < v else (v, u) for u, v in edges)


def _sizes(rng, n, k):
    """A composition of n into k parts, each at least 2."""
    # cut n - k into k positive parts, then add one to each
    total = n - k
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [b - a + 1 for a, b in zip([0] + cuts, cuts + [total])]


def forest_pair(rng, n, k=1):
    """Two forests on 1..n with k tree components each and one degree vector.

    The first forest is a Pruefer tree on each block of a random vertex
    partition.  The second permutes vertices within degree classes, which
    keeps every block's degree sum, and grows a tree on each image block
    from a shuffled code with the same multiplicities.  With k = 1 this
    is a Pruefer code and a shuffle of it.  Most edges differ.
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    blocks, start = [], 0
    for size in _sizes(rng, n, k):
        blocks.append(order[start : start + size])
        start += size
    first = []
    for block in blocks:
        code = [rng.choice(block) for _ in range(len(block) - 2)]
        first.extend(prufer_decode(block, code))
    deg = degrees(n, first)
    by_degree = {}
    for v in range(1, n + 1):
        by_degree.setdefault(deg[v - 1], []).append(v)
    image = {}
    for members in by_degree.values():
        moved = members[:]
        rng.shuffle(moved)
        image.update(zip(members, moved))
    second = []
    for block in blocks:
        target = [image[v] for v in block]
        code = [v for v in target for _ in range(deg[v - 1] - 1)]
        rng.shuffle(code)
        second.extend(prufer_decode(target, code))
    return _norm(first), _norm(second)


def gnm_no_isolated(rng, n, m):
    """Uniform G(n, m) conditioned on no isolated vertex, by rejection."""
    slots = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    while True:
        edges = sorted(rng.sample(slots, m))
        if all(degrees(n, edges)):
            return edges


def relabel(edges, perm):
    """Edges with every vertex v replaced by perm[v]."""
    return _norm((perm[u], perm[v]) for u, v in edges)


def permutation(rng, n):
    """A random bijection of 1..n, as a dict."""
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return dict(zip(range(1, n + 1), image))
