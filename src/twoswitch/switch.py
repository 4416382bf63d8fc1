"""The 2-switch: a degree-preserving edge rewrite driven by a 2x2 matrix.

A switch is described by an ``ActionMatrix`` ((a, b), (c, d)).  Rows name
the edges to delete (ab and cd), columns the edges to add (ac and bd).
When the matrix is not *interchangeable* in a graph the switch acts as the
identity, so applying one is total: it never fails, it just may do nothing.
``_rewiring`` states that rule once, on a plain edge set, for every
verdict, switched graph and trace replay, and ``_rewirings`` walks the
switches of a plain edge set for every loop over them.  ``rewired_kind``
names a rewiring switch's kind from acyclicity before and after it, for
``classify`` and for trace replay alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graphs import Graph, GraphError, _acyclic


class SwitchKind(enum.Enum):
    """How a matrix acts on a particular graph."""

    TRIVIAL = "trivial"
    PLAIN = "plain"
    T_SWITCH = "t_switch"
    F_SWITCH = "f_switch"


@dataclass(frozen=True, order=True)
class ActionMatrix:
    """Labels ((a, b), (c, d)); delete ab and cd, add ac and bd."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for x in (self.a, self.b, self.c, self.d):
            if type(x) is not int or x < 1:
                raise GraphError(f"matrix labels must be positive integers, got {x}")

    def labels(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def deleted_edges(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def added_edges(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.c), (self.b, self.d))

    def transpose(self) -> ActionMatrix:
        """The inverse switch: rows become columns."""
        return ActionMatrix(self.a, self.c, self.b, self.d)

    def __str__(self):
        return f"(({self.a},{self.b}),({self.c},{self.d}))"


def _rewiring(m: ActionMatrix, edges):
    """The normalised edges ``((ab, cd), (ac, bd))`` that ``m`` removes and
    adds on the edge set ``edges``, or None when it does not rewire.

    It rewires when the four labels are distinct, ab and cd present and
    ac and bd absent.  A label past the order is in no edge, so it fails
    the test, which is what makes every matrix total on every graph.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    if len({a, b, c, d}) != 4:
        return None
    ab = (a, b) if a < b else (b, a)
    cd = (c, d) if c < d else (d, c)
    ac = (a, c) if a < c else (c, a)
    bd = (b, d) if b < d else (d, b)
    if ab in edges and cd in edges and ac not in edges and bd not in edges:
        return (ab, cd), (ac, bd)
    return None


def is_interchangeable(m: ActionMatrix, g: Graph) -> bool:
    """True when the switch really rewires ``g``."""
    return _rewiring(m, g.edges) is not None


def apply_switch(m: ActionMatrix, g: Graph) -> Graph:
    """tau(G): rewire when interchangeable, otherwise return ``g`` itself."""
    change = _rewiring(m, g.edges)
    if change is None:
        return g
    removed, added = change
    return g.with_edges(added=added, removed=removed)


def rewired_kind(g: Graph, before: bool, after: bool) -> SwitchKind:
    """The kind of a switch that rewires ``g``, given whether ``g`` and the
    result are acyclic: between two forests a T_SWITCH on a tree (n - 1
    edges, which a switch keeps) and an F_SWITCH otherwise; else PLAIN."""
    if not (before and after):
        return SwitchKind.PLAIN
    return SwitchKind.T_SWITCH if g.size == g.n - 1 else SwitchKind.F_SWITCH


def classify(m: ActionMatrix, g: Graph) -> SwitchKind:
    """How ``m`` acts on ``g``: TRIVIAL when not interchangeable, else
    ``rewired_kind`` from union-finds on the edge sets before and after.

    The paper characterises the same verdicts by path shapes; the tests
    keep that form as the reference.
    """
    change = _rewiring(m, g.edges)
    if change is None:
        return SwitchKind.TRIVIAL
    removed, added = change
    before = _acyclic(g.n, g.edges)
    after = before and _acyclic(g.n, g.edges.difference(removed).union(added))
    return rewired_kind(g, before, after)


def candidate_matrices(sorted_edges):
    """Yield one matrix per distinct switch deleting two of ``sorted_edges``.

    Every matrix deleting two of the edges is row/column-swap equivalent
    to exactly one yielded matrix: deleted edges are taken as an ordered
    pair of disjoint edges with the lexicographically smaller one first,
    and both column orientations are emitted.  On the edges of K_n these
    are all the switch shapes of order n.
    """
    for i, (a, b) in enumerate(sorted_edges):
        for c, d in sorted_edges[i + 1:]:
            if a in (c, d) or b in (c, d):
                continue
            yield ActionMatrix(a, b, c, d)
            yield ActionMatrix(a, b, d, c)


def _rewirings(edges):
    """Each non-trivial switch on the plain edge set ``edges``, in
    ``candidate_matrices`` order over the sorted edges, with the edges it
    removes and adds."""
    for m in candidate_matrices(sorted(edges)):
        change = _rewiring(m, edges)
        if change is not None:
            yield m, change


def nontrivial_matrices(g: Graph):
    """Yield one representative per distinct non-trivial switch on ``g``:
    the ``candidate_matrices`` of its edges that are interchangeable."""
    for m, _ in _rewirings(g.edges):
        yield m


def _switches(g: Graph):
    """Each ``nontrivial_matrices`` switch with the graph it makes of ``g``."""
    for m, (removed, added) in _rewirings(g.edges):
        yield m, g.with_edges(added=added, removed=removed)
