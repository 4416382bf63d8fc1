"""Parameter tables over every graph of one small order, vectorized.

The exhaustive audits need all nine parameters on all M = 2^C(n,2)
labelled graphs for n up to 7 (M = 2,097,152 at n = 7), which is far
outside per-graph Python speed.  Here a graph is a bitmask over the
C(n,2) edge slots in lexicographic order.

Five tables are the largest pattern subgraph inside each mask.  A table
of marks holds each pattern mask's size and 0 elsewhere; one maximum
over submasks (the max form of Yates's subset zeta transform, C(n,2)
passes of M/2 maxima) then gives every mask the largest pattern inside
it.  The five tables of marks are the columns of one (M, 5) array, so
those passes run once for all five.  The patterns, each marked with its
number of edges unless said otherwise:

- matching: the masks of maximum degree at most 1;
- clique: the edges within each vertex subset t, marked |t|;
  independence is the clique table at the complement mask, and vertex
  cover is n - independence (Gallai);
- domination: star forests, where every edge has an end of degree 1; a
  dominating set of size gamma joins every other vertex to it by one
  edge, and the centres of a star forest with e edges dominate, so
  gamma = n - the largest;
- path cover: linear forests, forests of maximum degree at most 2, so
  pi = n - the largest;
- chromatic: the cluster graph of each of the Bell(n) set partitions
  (877 at n = 7), marked n - #blocks; colour classes are the blocks of a
  cluster graph inside the complement, so chi = n - the largest there.

The complement of mask m is M - 1 - m, so a table read at the complement
masks is the table reversed.  Edge cover is n - matching on graphs with
no isolated vertex (Gallai), ``UNDEFINED`` elsewhere.  Components take
2^(n-1) cut tests, each adding 1 to the strided view of the masks with
no edge across its cut, and run first: the linear-forest marks read the
forest flags.  The degrees are one int32 key per mask, 3 bits per
vertex, built the same way: slot uv adds 8^u + 8^v to the masks that
hold it.  The maximum-degree, star-forest and isolated-vertex tests
read the key's fields a fixed run of ``RUN`` masks at a time, so their
temporaries are a few MB at any order.

Beside the tables, ``degree_id`` ranks each mask's degree vector densely
(0 .. 111,849 at n = 7), and ``degree_vectors[id]`` packs it into 3 bits
per vertex; a presence array over all 2^(3n) packed vectors and its
running count give the ranks with no sort, written over the keys a run
at a time, each run's keys cast to intp once for both the scatter and
the gather: 0.019 s at n = 7 on a 2-core VM (medians of 15 calls in 3
processes), where indexing with the int32 keys took 0.025 s.

numpy is imported by the table builders, not by the module, so the
first census of a process pays for that import: at n = 7 that first
build takes about 0.18 s on a quiet 2-core VM (0.177-0.181 s in 5 fresh
processes), about 0.07 s of it the import, and no phase over 0.05 s;
``Census.build_s`` has the seconds of each table and phase, the import
excluded, and ``submask_max`` the one maximum over submasks.  A census
keeps only what the sweeps read (the tables, popcount, forest flags and
degree ids).  Memory limit, in MB of 2^20 bytes as tracemalloc counts
numpy's arrays: an order-7 build keeps at most 32 MB (30.9 measured)
and allocates at most 20 MB beyond what it keeps (10.0 measured: the
marks array, then the presence and rank arrays of the degree ids); a
test holds both bounds.  Building census(1..7) in one process peaks at
about 71 MB RSS, numpy included.  Only ``Census`` checks the order.

Tables are cross-checked against the per-graph algorithms and the
recurrences in the test suite; this module is the engine of the
order-wide sweeps (an audit of one degree vector enumerates its family),
not an independent authority.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import TYPE_CHECKING

from .graphs import CapExceededError, Graph, GraphError, _integer

if TYPE_CHECKING:
    import numpy as np

CENSUS_MAX = 7
# table value of an undefined parameter (edge cover with an isolated
# vertex); real values never exceed n
UNDEFINED = 99
# masks per run of the passes that decode the degree keys: their
# temporaries stay a few MB whatever the order
RUN = 1 << 16


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
    them are merged, so the view has at most one axis per free run.  The
    mask is the first axis of ``table``; any further axes stay last.
    """
    top = len(table).bit_length() - 1
    shape, index = [], []
    for k in reversed(range(top)):
        if bits >> k & 1:
            shape += [1 << (top - k - 1), 2]
            index += [slice(None), req >> k & 1]
            top = k
    shape.append(1 << top)
    index.append(slice(None))
    return table.reshape(*shape, *table.shape[1:])[tuple(index)]


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


def runs_of(size: int) -> list[slice]:
    """``range(size)`` in runs of at most ``RUN``, so that a temporary per
    mask costs a run, not the order."""
    return [slice(lo, min(lo + RUN, size)) for lo in range(0, size, RUN)]


def _partitions(vertices: int):
    """Every set partition of the vertex bitmask ``vertices``, as a list of
    block bitmasks; the first block holds the lowest vertex."""
    if not vertices:
        yield []
        return
    low = vertices & -vertices
    others = vertices ^ low
    sub = others
    while True:
        for rest in _partitions(others ^ sub):
            yield [low | sub, *rest]
        if not sub:
            return
        sub = (sub - 1) & others


class Census:
    """Everything the audits need about all graphs on {1..n}."""

    def __init__(self, n: int):
        n = _integer(n, "order")
        if not 0 <= n <= CENSUS_MAX:
            error = GraphError if n < 0 else CapExceededError
            raise error(f"census supports orders 0..{CENSUS_MAX}, got {n}")
        # the first census of a process loads numpy; ``import twoswitch`` does not
        import numpy as np

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

        self.popcount = np.bitwise_count(np.arange(self.n_masks, dtype=np.uint32))

        # advisory seconds per build phase; not part of the tables
        self.build_s: dict[str, float] = {}
        key = self._timed("degrees", self._degree_keys)
        comp = self._timed("components", self._components_table)
        self.forest = self.popcount + comp == n  # uint8 sums, at most 21 + 7
        low = sum(1 << 3 * v for v in range(n))  # bit 0 of each degree field
        within = np.array(self.edges_within, dtype=np.int32)

        def matching(d, run):  # no field has bit 1 or 2: every degree <= 1
            return d & 6 * low == 0

        def star_forest(d, run):
            # no edge joins two vertices of degree 2 or more: move their
            # fields' bits 3v to bits v and look up the edges among them
            big = (d >> 1 | d >> 2) & low
            inside = sum(big >> 2 * v & 1 << v for v in range(n))
            return np.arange(run.start, run.stop, dtype=np.int32) & within[inside] == 0

        def linear_forest(d, run):
            # a forest where no field has bit 2, or bits 0 and 1: degrees <= 2
            return self.forest[run] & ((d >> 2 | d & d >> 1) & low == 0)

        # the five patterns' marks as the columns of one array, for one
        # maximum over submasks
        marks = np.zeros((self.n_masks, 5), dtype=np.uint8)
        self._timed("matching", lambda: self._mark(marks[:, 0], key, matching))
        self._timed("clique", lambda: self._clique_marks(marks[:, 1]))
        self._timed("domination", lambda: self._mark(marks[:, 2], key, star_forest))
        self._timed("path_cover", lambda: self._mark(marks[:, 3], key, linear_forest))
        self._timed("chromatic", lambda: self._cluster_marks(marks[:, 4]))
        self._timed("submask_max", lambda: self._largest_inside(marks))
        mu, omega = marks[:, 0].copy(), marks[:, 1].copy()
        gamma, pi, chi = n - marks[:, 2], n - marks[:, 3], n - marks[::-1, 4]
        del marks
        alpha = omega[::-1].copy()
        nu = np.uint8(n) - alpha
        eps = np.empty(self.n_masks, dtype=np.uint8)
        for run in runs_of(self.n_masks):  # n - mu where every degree field is nonzero
            d = key[run]
            no_isolated = (d | d >> 1 | d >> 2) & low == low
            eps[run] = np.where(no_isolated, n - mu[run], UNDEFINED)

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
        self.degree_id, self.degree_vectors = self._timed(
            "degree_ids", lambda: self._degree_ids(key)
        )

    def _timed(self, phase: str, build):
        start = time.perf_counter()
        result = build()
        self.build_s[phase] = time.perf_counter() - start
        return result

    # -- geometry -----------------------------------------------------------

    def _degree_keys(self) -> np.ndarray:
        """Every mask's degree vector at 3 bits per vertex: slot k = uv adds
        8^u + 8^v to the masks that hold it, one strided view each."""
        import numpy as np

        key = np.zeros(self.n_masks, dtype=np.int32)  # 3n <= 21 bits
        for k, (u, v) in enumerate(self.slots):
            view = slot_view(key, 1 << k, 1 << k)
            view += (1 << 3 * u) + (1 << 3 * v)
        return key

    def _degree_ids(self, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense ids for the degree vectors: ``degree_vectors`` holds the
        order's distinct keys in ascending order, and ``degree_id`` the rank
        of each mask's key among them, so ``degree_vectors[degree_id]`` is
        ``key``.  A presence array over all 2^(3n) keys and its running
        count give the ranks without a sort; both passes go a run at a
        time, indexing with the run's keys as intp, and the ranks are
        written over ``key``."""
        import numpy as np

        present = np.zeros(1 << (3 * self.n), dtype=bool)
        for run in runs_of(self.n_masks):
            present[key[run].astype(np.intp)] = True
        rank = present.astype(np.int32)
        np.cumsum(rank, out=rank)  # in place: a cast inside cumsum costs a copy
        rank -= 1
        for run in runs_of(self.n_masks):
            key[run] = rank[key[run].astype(np.intp)]
        return key, np.flatnonzero(present)

    def graph(self, mask: int) -> Graph:
        mask = _integer(mask, "mask")
        if not 0 <= mask < self.n_masks:
            raise GraphError(f"mask must be in 0..{self.n_masks - 1}, got {mask}")
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

    def _components_table(self) -> np.ndarray:
        """A vertex set holding vertex 1 that no edge leaves is a union of
        components, and there are 2^(kappa-1) of them.  Each of the 2^(n-1)
        such sets adds 1 to the masks with no edge across it, a strided view
        with its cut's slots clear."""
        import numpy as np

        comp = np.zeros(self.n_masks, dtype=np.uint8)
        if self.n == 0:
            return comp
        for t in range(1, 1 << self.n, 2):
            cut = 0  # XOR of the stars: edges inside t cancel, cut edges stay
            for v in range(self.n):
                if t >> v & 1:
                    cut ^= self.star[v]
            view = slot_view(comp, cut, 0)
            view += 1
        return np.bitwise_count(comp - np.uint8(1)) + np.uint8(1)

    # -- the largest pattern inside each mask -----------------------------------

    def _largest_inside(self, marks: np.ndarray) -> np.ndarray:
        """``marks[m]`` becomes the largest ``marks[s]`` over the submasks s
        of m, in place, for each column of ``marks`` at once.  Along slot k
        the masks pair up as (m, m | 2^k), the second of each pair in the
        upper half of a length-2 axis, and it takes the larger of the two;
        after every slot each mask has seen all of its submasks."""
        import numpy as np

        for k in range(self.n_slots):
            pairs = marks.reshape(-1, 2, 1 << k, *marks.shape[1:])
            np.maximum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
        return marks

    def _mark(self, column: np.ndarray, key: np.ndarray, pattern) -> None:
        """Mark each mask that ``pattern(key[run], run)`` accepts with its
        number of edges, a run of masks at a time."""
        for run in runs_of(self.n_masks):
            column[run] = self.popcount[run] * pattern(key[run], run)

    def _clique_marks(self, column: np.ndarray) -> None:
        import numpy as np

        # the complete graph on each vertex subset t, marked |t|
        np.maximum.at(
            column, self.edges_within, [t.bit_count() for t in range(1 << self.n)]
        )

    def _cluster_marks(self, column: np.ndarray) -> None:
        # each partition's cluster graph, marked n - #blocks; the table is
        # read back at the complement masks: mask m's complement is mask
        # M - 1 - m, so the column reversed
        for blocks in _partitions((1 << self.n) - 1):
            cluster = 0
            for block in blocks:
                cluster |= self.edges_within[block]
            column[cluster] = self.n - len(blocks)


def census(n: int) -> Census:
    """The shared ``Census`` of order ``n``, one per order whatever the
    integer type of ``n``."""
    return _shared(_integer(n, "order"))


_shared = lru_cache(maxsize=None)(Census)
