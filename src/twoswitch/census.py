"""Parameter tables over every graph of one small order, vectorized.

The exhaustive audits need all nine parameters on all M = 2^C(n,2)
labelled graphs for n up to 7 (M = 2,097,152 at n = 7), which is far
outside per-graph Python speed.  Here a graph is a bitmask over the
C(n,2) edge slots in lexicographic order.

Five tables are the largest pattern subgraph inside each mask.  A table
of marks holds each pattern mask's size and 0 elsewhere; one maximum
over submasks (the max form of Yates's subset zeta transform, C(n,2)
passes of M/2 maxima) then gives every mask the largest pattern inside
it.  The patterns, each marked with its number of edges unless said
otherwise:

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
forest flags.  The degrees, built the same way one slot at a time, give
the degree-1 and maximum-degree tests and the degree ids.

Beside the tables, ``degree_id`` ranks each mask's degree vector densely
(0 .. 111,849 at n = 7), and ``degree_vectors[id]`` packs it into 3 bits
per vertex; a presence array over all 2^(3n) packed vectors and its
running count give the ranks with no sort: about 0.03 s at n = 7.

numpy is imported by the table builders, not by the module, so the
first census of a process pays for that import: at n = 7 that first
build takes 0.33-0.35 s on a 2-core VM, about 0.07 s of it the import,
and no phase over 0.1 s; ``Census.build_s`` has the seconds of each
table and phase, the import excluded.  A census keeps only what the
sweeps read, 32 MB at n = 7 (the tables, popcount, forest flags and
degree ids); building census(1..7) in one process peaks at about 100 MB
RSS, numpy included.  Only ``Census`` checks the order.

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
        degrees = self._timed("degrees", self._degrees)
        top = np.zeros(self.n_masks, dtype=np.uint8)  # the maximum degree
        no_isolated = np.ones(self.n_masks, dtype=bool)
        for d in degrees:
            np.maximum(top, d, out=top)
            no_isolated &= d != 0
        comp = self._timed("components", self._components_table)
        self.forest = self.popcount.astype(np.int16) + comp.astype(np.int16) == n
        largest = self._largest_inside
        mu = self._timed("matching", lambda: largest(self.popcount * (top <= 1)))
        omega = self._timed("clique", self._clique_table)
        alpha = omega[::-1].copy()
        nu = np.uint8(n) - alpha
        gamma = self._timed("domination", lambda: self._domination_by_stars(degrees))
        linear_forest = self.forest & (top <= 2)
        pi = self._timed(
            "path_cover", lambda: n - largest(self.popcount * linear_forest)
        )
        chi = self._timed("chromatic", self._chromatic_table)
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
        key = self._timed("degree_keys", lambda: self._degree_keys(degrees))
        self.degree_id, self.degree_vectors = self._timed(
            "degree_ids", lambda: self._degree_ids(key)
        )

    def _timed(self, phase: str, build):
        start = time.perf_counter()
        result = build()
        self.build_s[phase] = time.perf_counter() - start
        return result

    # -- geometry -----------------------------------------------------------

    def _degrees(self) -> list[np.ndarray]:
        """Each vertex's degree in every mask: slot k = uv adds 1 at u and
        at v in the masks that hold it, one strided view each."""
        import numpy as np

        degrees = [np.zeros(self.n_masks, dtype=np.uint8) for _ in range(self.n)]
        for k, uv in enumerate(self.slots):
            for w in uv:
                view = slot_view(degrees[w], 1 << k, 1 << k)
                view += 1
        return degrees

    def _degree_keys(self, degrees: list[np.ndarray]) -> np.ndarray:
        import numpy as np

        key = np.zeros(self.n_masks, dtype=np.int32)  # 3n <= 21 bits
        for v, d in enumerate(degrees):
            key |= d.astype(np.int32) << (3 * v)
        return key

    def _degree_ids(self, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense ids for the degree vectors: ``degree_vectors`` holds the
        order's distinct keys in ascending order, and ``degree_id`` the rank
        of each mask's key among them, so ``degree_vectors[degree_id]`` is
        ``key``.  A presence array over all 2^(3n) keys and its running
        count give the ranks without a sort."""
        import numpy as np

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
        of m, in place.  Along slot k the masks pair up as (m, m | 2^k), the
        second of each pair in the upper half of a length-2 axis, and it
        takes the larger of the two; after every slot each mask has seen all
        of its submasks."""
        import numpy as np

        for k in range(self.n_slots):
            pairs = marks.reshape(-1, 2, 1 << k)
            np.maximum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
        return marks

    def _clique_table(self) -> np.ndarray:
        import numpy as np

        # the complete graph on each vertex subset t, marked |t|
        marks = np.zeros(self.n_masks, dtype=np.uint8)
        np.maximum.at(
            marks, self.edges_within, [t.bit_count() for t in range(1 << self.n)]
        )
        return self._largest_inside(marks)

    def _domination_by_stars(self, degrees: list[np.ndarray]) -> np.ndarray:
        import numpy as np

        # a star forest: every edge has an end of degree 1
        star_forest = np.ones(self.n_masks, dtype=bool)
        for k, (u, v) in enumerate(self.slots):
            ok, du, dv = (
                slot_view(a, 1 << k, 1 << k)
                for a in (star_forest, degrees[u], degrees[v])
            )
            ok &= (du == 1) | (dv == 1)
        return self.n - self._largest_inside(self.popcount * star_forest)

    def _chromatic_table(self) -> np.ndarray:
        import numpy as np

        # each partition's cluster graph, read back at the complement masks:
        # mask m's complement is mask M - 1 - m, so the table reversed
        n = self.n
        marks = np.zeros(self.n_masks, dtype=np.uint8)
        for blocks in _partitions((1 << n) - 1):
            cluster = 0
            for block in blocks:
                cluster |= self.edges_within[block]
            marks[cluster] = n - len(blocks)
        return n - self._largest_inside(marks)[::-1]


def census(n: int) -> Census:
    """The shared ``Census`` of order ``n``, one per order whatever the
    integer type of ``n``."""
    return _shared(_integer(n, "order"))


_shared = lru_cache(maxsize=None)(Census)
