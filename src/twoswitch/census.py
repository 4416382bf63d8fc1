"""Parameter tables over every graph of one small order, vectorized.

The exhaustive audits need all nine parameters on all M = 2^C(n,2)
labelled graphs for n up to 7 (M = 2,097,152 at n = 7), which is far
outside per-graph Python speed.  Here a graph is a bitmask over the
C(n,2) edge slots in lexicographic order.  Every recurrence reads only
numerically smaller masks or vertex subsets, so each table is filled in
plain ascending order.  Cost per table:

- matching and independence: doubling over the top edge slot k, which
  fills masks [2^k, 2^(k+1)) from [0, 2^k); M gathered elements each;
- clique: one gather at the complement mask;
- vertex cover and edge cover, by Gallai's identities: n - independence,
  and n - matching on graphs with no isolated vertex;
- components: 2^(n-1) cut tests over the M masks;
- domination: vertex subsets by size, each an OR of at most n closed
  neighbourhoods over only the masks that no smaller subset dominates;
- chromatic: the same doubling, with 2^(n-2) candidate colour classes
  per edge slot k, one gather over [0, 2^k) each;
- path cover: n * 2^(n-1) steps per chunk, tracking the fewest covering
  paths and their possible ends.

Beside the tables, ``degree_id`` ranks each mask's degree vector densely
(0 .. 111,849 at n = 7), and ``degree_vectors[id]`` packs it into 3 bits
per vertex; a presence array over all 2^(3n) packed vectors and its
running count give the ranks with no sort: about 0.03 s at n = 7.

At n = 7 the build takes 2.2-2.6 s on a 2-core VM, 1.2-1.5 s of it in
the path cover chunks; ``Census.build_s`` has the seconds of each phase.

Tables are cross-checked against the per-graph algorithms in the test
suite; this module is the engine of the order-wide sweeps (an audit of
one degree vector enumerates its family), not an independent authority.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

from .graphs import Graph, GraphError

CENSUS_MAX = 7
_CHUNK = 1 << 18
# table value of an undefined parameter (edge cover with an isolated
# vertex) and the DPs' unreachable marker; real values never exceed n
UNDEFINED = 99


# -- mask layout --------------------------------------------------------------
#
# Graph ``mask`` sits at index ``mask`` of every table, and bit k of the
# mask is edge slot k.  A C-order reshape of a table to one length-2 axis
# per slot therefore runs from slot C(n,2)-1 down to slot 0, so fixing a
# few slots by indexing their axes leaves the other slots in ascending
# mask order, without copying.


def slot_view(table: np.ndarray, bits: int, req: int) -> np.ndarray:
    """The entries of ``table`` whose slots in ``bits`` are set as in
    ``req``, as a strided view in ascending mask order.

    The fixed slots get their own length-2 axes and the free runs between
    them are merged, so the view has at most one axis per free run.
    """
    top = table.size.bit_length() - 1
    shape, index = [], []
    for k in reversed(range(top)):
        if bits >> k & 1:
            shape += [1 << (top - k - 1), 2]
            index += [slice(None), req >> k & 1]
            top = k
    shape.append(1 << top)
    index.append(slice(None))
    return table.reshape(shape)[tuple(index)]


def slot_mask(element: int, bits: int, req: int) -> int:
    """The mask of flat ``element`` of ``slot_view(table, bits, req)``: the
    element's bits fill the free slots from the lowest up."""
    mask, k = req, 0
    while element:
        if not bits >> k & 1:
            mask |= (element & 1) << k
            element >>= 1
        k += 1
    return mask


class Census:
    """Everything the audits need about all graphs on {1..n}."""

    def __init__(self, n: int):
        if not 0 <= n <= CENSUS_MAX:
            raise GraphError(f"census supports orders 0..{CENSUS_MAX}, got {n}")
        self.n = n
        self.slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        self.slot_index = {uv: k for k, uv in enumerate(self.slots)}
        s = len(self.slots)
        self.n_slots = s
        self.n_masks = 1 << s
        self.full_mask = (1 << s) - 1
        self.star = [0] * n
        for k, (u, v) in enumerate(self.slots):
            self.star[u] |= 1 << k
            self.star[v] |= 1 << k
        self.edges_within = [0] * (1 << n)
        for t in range(1 << n):
            acc = 0
            for k, (u, v) in enumerate(self.slots):
                if t >> u & 1 and t >> v & 1:
                    acc |= 1 << k
            self.edges_within[t] = acc

        self.masks = np.arange(self.n_masks, dtype=np.int64)
        self.popcount = np.bitwise_count(self.masks).astype(np.uint8)
        self._adjv = self._adjacency_arrays()

        # advisory seconds per build phase; not part of the tables
        self.build_s: dict[str, float] = {}
        mu, alpha, chi = self._timed("doubling", self._slot_doubling)
        omega = alpha[self.full_mask ^ self.masks]
        nu = np.uint8(n) - alpha
        gamma = self._timed("domination", self._domination_table)
        comp = self._timed("components", self._components_table)
        pi = self._timed("path_cover", self._path_cover_table)
        no_isolated = np.ones(self.n_masks, dtype=bool)
        for v in range(n):
            no_isolated &= self._adjv[v] != 0
        eps = np.where(no_isolated, np.uint8(n) - mu, np.uint8(UNDEFINED))

        self.tables = {
            "matching": mu,
            "independence": alpha,
            "clique": omega,
            "vertex_cover": nu,
            "domination": gamma,
            "components": comp,
            "chromatic": chi,
            "path_cover": pi,
            "edge_cover": eps,  # UNDEFINED where an isolated vertex exists
        }
        key = self._timed("degree_keys", self._degree_keys)
        self.degree_id, self.degree_vectors = self._timed(
            "degree_ids", lambda: self._degree_ids(key)
        )
        self.forest = (
            self.popcount.astype(np.int16) + comp.astype(np.int16) == n
        )

    def _timed(self, phase: str, build):
        start = time.perf_counter()
        result = build()
        self.build_s[phase] = time.perf_counter() - start
        return result

    # -- geometry -----------------------------------------------------------

    def _adjacency_arrays(self) -> list[np.ndarray]:
        adjv = [np.zeros(self.n_masks, dtype=np.uint8) for _ in range(self.n)]
        for k, (u, v) in enumerate(self.slots):
            bit = ((self.masks >> k) & 1).astype(np.uint8)
            adjv[u] |= bit << v
            adjv[v] |= bit << u
        return adjv

    def _degree_keys(self) -> np.ndarray:
        key = np.zeros(self.n_masks, dtype=np.int64)
        for v in range(self.n):
            dv = np.bitwise_count(self.masks & self.star[v]).astype(np.int64)
            key |= dv << (3 * v)
        return key

    def _degree_ids(self, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense ids for the degree vectors: ``degree_vectors`` holds the
        order's distinct keys in ascending order, and ``degree_id`` the rank
        of each mask's key among them, so ``degree_vectors[degree_id]`` is
        ``key``.  A presence array over all 2^(3n) keys and its running
        count give the ranks without a sort."""
        present = np.zeros(1 << (3 * self.n), dtype=bool)
        present[key] = True
        rank = np.cumsum(present, dtype=np.int32) - 1
        return rank[key], np.flatnonzero(present)

    def graph(self, mask: int) -> Graph:
        edges = [
            (u + 1, v + 1)
            for k, (u, v) in enumerate(self.slots)
            if mask >> k & 1
        ]
        return Graph(self.n, edges)

    def mask_of(self, g: Graph) -> int:
        if g.n != self.n:
            raise GraphError(f"graph order {g.n} does not match census order {self.n}")
        mask = 0
        for u, v in g.edges:
            mask |= 1 << self.slot_index[(u - 1, v - 1)]
        return mask

    # -- edge-slot doubling ---------------------------------------------------

    def _slot_doubling(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """mu, alpha and chi on [2^k, 2^(k+1)) from [0, 2^k), where the top
        edge is slot k = uv.  A matching skips uv or takes it with the lower
        edges apart from u and v.  A maximum independent set omits u or
        omits v; deleting a vertex's edges isolates it, hence the -1.  In an
        optimal colouring u's class is an independent set I holding u and
        not v; deleting I's edges clears slot k and leaves the other classes
        colouring the rest, so chi is 1 + the least chi over those I."""
        n = self.n
        mu = np.zeros(self.n_masks, dtype=np.uint8)
        alpha = np.zeros(self.n_masks, dtype=np.uint8)
        chi = np.zeros(self.n_masks, dtype=np.uint8)
        alpha[0] = n
        chi[0] = n > 0
        for k, (u, v) in enumerate(self.slots):
            lo = self.masks[: 1 << k]
            top = slice(1 << k, 2 << k)
            apart = ~(self.star[u] | self.star[v])
            np.maximum(mu[: 1 << k], mu[lo & apart] + 1, out=mu[top])
            np.maximum(
                alpha[lo & ~self.star[u]], alpha[lo & ~self.star[v]], out=alpha[top]
            )
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
                        cleared |= self.star[w]
                np.minimum(
                    best,
                    chi[lo & ~cleared],
                    out=best,
                    where=(lo & self.edges_within[cls]) == 0,
                )
            best += 1
        return mu, alpha, chi

    # -- vertex-subset sweeps --------------------------------------------------

    def _domination_table(self) -> np.ndarray:
        """gamma is the size of the smallest vertex subset whose closed
        neighbourhoods cover every vertex.  Subsets go by size, each size
        testing only the masks no smaller subset dominates: the census's one
        size-ordered sweep."""
        n = self.n
        vfull = (1 << n) - 1
        gamma = np.full(self.n_masks, 255, dtype=np.uint8)
        by_size = [[] for _ in range(n + 1)]
        for t in range(1 << n):
            by_size[t.bit_count()].append(t)
        for size, subsets in enumerate(by_size):
            open_ = np.flatnonzero(gamma == 255)
            if not open_.size:
                break
            closed = [a[open_] | np.uint8(1 << w) for w, a in enumerate(self._adjv)]
            hit = np.zeros(open_.size, dtype=bool)
            for t in subsets:
                reach = np.zeros(open_.size, dtype=np.uint8)
                for w in range(n):
                    if t >> w & 1:
                        reach |= closed[w]
                hit |= reach == vfull
            gamma[open_[hit]] = size
        return gamma

    def _components_table(self) -> np.ndarray:
        """A vertex set holding vertex 1 that no edge leaves is a union of
        components, and there are 2^(kappa-1) of them: count the cut tests
        over the 2^(n-1) such sets."""
        comp = np.zeros(self.n_masks, dtype=np.uint8)
        if self.n == 0:
            return comp
        for t in range(1, 1 << self.n, 2):
            cut = 0  # XOR of the stars: edges inside t cancel, cut edges stay
            for v in range(self.n):
                if t >> v & 1:
                    cut ^= self.star[v]
            comp += (self.masks & cut) == 0
        return np.bitwise_count(comp - np.uint8(1)) + np.uint8(1)

    # -- chunked vertex-subset DP ------------------------------------------------

    def _path_cover_table(self) -> np.ndarray:
        """fewest[s] paths cover G[s], and last[s] holds the vertices that end
        a path in some such cover; u in s either extends a path ending at a
        neighbour in last[s - u] or opens one.  Each step reads only smaller
        vertex subsets, so s runs over 1 .. 2^n - 1 in numeric order."""
        n = self.n
        vfull = (1 << n) - 1
        pi = np.zeros(self.n_masks, dtype=np.uint8)
        for lo in range(0, self.n_masks, _CHUNK):
            hi = min(lo + _CHUNK, self.n_masks)
            adjc = [self._adjv[v][lo:hi] for v in range(n)]
            fewest = [None] * (1 << n)
            last = [None] * (1 << n)
            fewest[0] = np.zeros(hi - lo, dtype=np.uint8)
            last[0] = np.zeros(hi - lo, dtype=np.uint8)
            for s in range(1, 1 << n):
                members = [u for u in range(n) if s >> u & 1]
                costs = [
                    fewest[s ^ 1 << u] + ((adjc[u] & last[s ^ 1 << u]) == 0)
                    for u in members
                ]
                low = np.minimum.reduce(costs)
                tails = np.zeros(hi - lo, dtype=np.uint8)
                for u, c in zip(members, costs):
                    tails |= (c == low).view(np.uint8) << u
                fewest[s] = low
                last[s] = tails
            pi[lo:hi] = fewest[vfull]
            del fewest, last
        return pi


@lru_cache(maxsize=None)
def census(n: int) -> Census:
    return Census(n)
