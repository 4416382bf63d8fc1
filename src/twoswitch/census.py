"""Parameter tables over every graph of one small order, vectorized.

The exhaustive audits need all nine parameters on all 2^C(n,2) labelled
graphs for n up to 7 (about two million at n = 7), which is far outside
per-graph Python speed.  Here a graph is a bitmask over the C(n,2) edge
slots in lexicographic order, and each parameter becomes either a
popcount-level dynamic program with numpy gathers (matching,
independence), a sweep over the 2^n vertex subsets (domination), label
propagation (components), a chunked subset-partition DP (chromatic), or
a chunked recurrence over the vertex subsets in popcount order that
tracks the fewest covering paths and their possible ends (path cover,
n * 2^(n-1) vectorized steps per chunk).  The two cover numbers come
from Gallai's identities: vertex cover is n - independence, and edge
cover is n - matching on graphs with no isolated vertex.

Tables are cross-checked against the per-graph algorithms in the test
suite; this module is the audit engine, not an independent authority.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .graphs import Graph, GraphError

CENSUS_MAX = 7
_CHUNK = 1 << 18
# table value of an undefined parameter (edge cover with an isolated
# vertex) and the DPs' unreachable marker; real values never exceed n
UNDEFINED = 99


def _subset_plan(n: int):
    """Nonempty vertex subsets by size, each with its submasks keeping the
    lowest vertex (the canonical block of any partition)."""
    order = sorted(range(1, 1 << n), key=lambda s: (bin(s).count("1"), s))
    plan = []
    for s in order:
        low = s & -s
        subs = []
        t = s
        while t:
            if t & low:
                subs.append(t)
            t = (t - 1) & s
        plan.append((s, subs))
    return plan


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
        self._levels = [
            np.nonzero(self.popcount == lv)[0] for lv in range(s + 1)
        ]
        self._adjv = self._adjacency_arrays()

        mu = self._matching_table()
        alpha = self._independence_table()
        omega = alpha[self.full_mask ^ self.masks]
        nu = np.uint8(n) - alpha
        gamma = self._domination_table()
        comp = self._components_table()
        chi, pi = self._chunked_tables()
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
        self.degree_key = self._degree_keys()
        self.forest = (
            self.popcount.astype(np.int16) + comp.astype(np.int16) == n
        )

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

    def key_of_sequence(self, seq) -> int:
        key = 0
        for v, d in enumerate(seq):
            key |= int(d) << (3 * v)
        return key

    # -- level DPs ------------------------------------------------------------

    def _slot_lut(self):
        lut = np.zeros(self.n_masks if self.n_slots else 1, dtype=np.uint8)
        for k in range(self.n_slots):
            lut[1 << k] = k
        return lut

    def _matching_table(self) -> np.ndarray:
        """mu via: lowest edge e is either skipped or taken (then only edges
        vertex-disjoint from e remain)."""
        mu = np.zeros(self.n_masks, dtype=np.uint8)
        if self.n_slots == 0:
            return mu
        lut = self._slot_lut()
        compat = np.array(
            [
                self.full_mask & ~(self.star[u] | self.star[v])
                for (u, v) in self.slots
            ],
            dtype=np.int64,
        )
        for lv in range(1, self.n_slots + 1):
            m = self._levels[lv]
            k = lut[m & -m]
            skip = mu[m & (m - 1)]
            take = mu[m & compat[k]] + 1
            mu[m] = np.maximum(skip, take)
        return mu

    def _independence_table(self) -> np.ndarray:
        """alpha via: for the lowest edge uv, every maximum independent set
        omits u or omits v; deleting a vertex isolates it, hence the -1."""
        alpha = np.zeros(self.n_masks, dtype=np.uint8)
        alpha[0] = self.n
        if self.n_slots == 0:
            return alpha
        lut = self._slot_lut()
        star_u = np.array([self.star[u] for (u, v) in self.slots], dtype=np.int64)
        star_v = np.array([self.star[v] for (u, v) in self.slots], dtype=np.int64)
        for lv in range(1, self.n_slots + 1):
            m = self._levels[lv]
            k = lut[m & -m]
            drop_u = alpha[m & ~star_u[k]]
            drop_v = alpha[m & ~star_v[k]]
            alpha[m] = np.maximum(drop_u, drop_v) - 1
        return alpha

    # -- vertex-subset sweeps --------------------------------------------------

    def _vertex_subsets_by_size(self):
        return sorted(range(1 << self.n), key=lambda t: (bin(t).count("1"), t))

    def _domination_table(self) -> np.ndarray:
        gamma = np.full(self.n_masks, 255, dtype=np.uint8)
        for t in self._vertex_subsets_by_size():
            ok = gamma == 255
            if not ok.any():
                break
            for v in range(self.n):
                if t >> v & 1:
                    continue
                ok &= (self._adjv[v] & t) != 0
            gamma[ok] = bin(t).count("1")
        return gamma

    def _components_table(self) -> np.ndarray:
        """Minimum-label propagation along present edges; n-1 sweeps settle
        every path."""
        labels = [np.full(self.n_masks, v, dtype=np.uint8) for v in range(self.n)]
        present = [
            ((self.masks >> k) & 1).astype(bool) for k in range(self.n_slots)
        ]
        for _ in range(max(0, self.n - 1)):
            for k, (u, v) in enumerate(self.slots):
                mn = np.minimum(labels[u], labels[v])
                labels[u] = np.where(present[k], mn, labels[u])
                labels[v] = np.where(present[k], mn, labels[v])
        comp = np.zeros(self.n_masks, dtype=np.uint8)
        for v in range(self.n):
            comp += (labels[v] == v).astype(np.uint8)
        return comp

    # -- chunked vertex-subset DPs -----------------------------------------------

    def _chunked_tables(self):
        n = self.n
        vfull = (1 << n) - 1
        plan = _subset_plan(n)
        chi = np.zeros(self.n_masks, dtype=np.uint8)
        pi = np.zeros(self.n_masks, dtype=np.uint8)
        for lo in range(0, self.n_masks, _CHUNK):
            hi = min(lo + _CHUNK, self.n_masks)
            mc = self.masks[lo:hi]
            adjc = [self._adjv[v][lo:hi] for v in range(n)]

            # chromatic: partition into independent sets
            indep = [None] * (1 << n)
            for t in range(1, 1 << n):
                indep[t] = (mc & self.edges_within[t]) == 0
            f = [None] * (1 << n)
            f[0] = np.zeros(hi - lo, dtype=np.uint8)
            for s, subs in plan:
                best = np.full(hi - lo, UNDEFINED, dtype=np.uint8)
                for t in subs:
                    cand = f[s ^ t] + 1
                    cand[~indep[t]] = UNDEFINED
                    np.minimum(best, cand, out=best)
                f[s] = best
            chi[lo:hi] = f[vfull] if n else 0
            del indep, f

            # path cover: fewest[s] paths cover G[s], and last[s] holds the
            # vertices that end a path in some such cover; u in s either
            # extends a path ending at a neighbour in last[s - u] or opens one
            fewest = [None] * (1 << n)
            last = [None] * (1 << n)
            fewest[0] = np.zeros(hi - lo, dtype=np.uint8)
            last[0] = np.zeros(hi - lo, dtype=np.uint8)
            for s, _subs in plan:
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
        return chi, pi


@lru_cache(maxsize=None)
def census(n: int) -> Census:
    return Census(n)
