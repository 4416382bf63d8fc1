"""Simple labelled graphs on vertex set {1, ..., n}.

Everything downstream (switches, transitions, audits) works with small
graphs whose vertices are consecutive integers starting at 1.  Graphs are
immutable so they can be hashed, deduplicated and used as dict keys.
The constructor checks plain ``int`` endpoints inline, keeps an edge
tuple that is already normal, and sends every other label through
``_integer``.

Connectivity questions take one union-find pass over the edges and build
no adjacency lists: ``_parity_classes`` counts and 2-colours the
components, for ``kappa`` and ``is_bipartite``, and its parent and
colour links give ``components`` and ``bipartition`` their vertex sets.
``_acyclic`` is the acyclicity rule behind the forest predicates, switch
verdicts and trace replay.  Three loops keep their own: the forest
passes of ``parameters`` peel leaves, the forest route and trace replay
keep parent links that switches update in place (``transition._links``),
and ``explorer.enumerate_forests`` keeps a union-find it can undo.
"""

from __future__ import annotations

from operator import index


class GraphError(Exception):
    """Base class for domain errors raised by this package."""


class GraphFormatError(GraphError):
    """Malformed edge-list text."""


class NotAForestError(GraphError):
    """An operation that needs an acyclic graph got a cyclic one."""


class CapExceededError(GraphError):
    """The requested order is above a documented cap of the operation."""


def _integer(x, what: str) -> int:
    """``x`` as an int: Python and numpy integers pass; booleans, floats
    and strings do not."""
    if x is not True and x is not False:
        try:
            return index(x)
        except TypeError:
            pass
    raise GraphFormatError(f"{what} must be an integer, got {x!r}")


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise GraphFormatError(f"loop edge {u}-{v} not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph with vertices 1..n and an explicit edge set."""

    __slots__ = ("n", "edges", "_adj", "_hash")

    def __init__(self, n: int, edges=()):
        if type(n) is not int:
            n = _integer(n, "order")
        if n < 0:
            raise GraphFormatError(f"order must be non-negative, got {n}")
        norm = set()
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise GraphFormatError(
                    f"edge must be a pair of endpoints, got {edge!r}"
                ) from None
            # plain ints skip ``_integer``, which every other label takes,
            # and a tuple of them already in order is kept as it is, so a
            # graph made from another's edges shares their tuples
            if type(u) is not int or type(v) is not int:
                u, v = _integer(u, "edge endpoint"), _integer(v, "edge endpoint")
                edge = None
            elif type(edge) is not tuple:
                edge = None
            if u > v:
                u, v = v, u
                edge = None
            elif u == v:
                raise GraphFormatError(f"loop edge {u}-{v} not allowed")
            if u < 1 or v > n:
                raise GraphFormatError(f"edge {u}-{v} out of range for order {n}")
            norm.add(edge or (u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, self.edges)))
        return self._hash

    def __repr__(self):
        return f"Graph({self.n}, {self.sorted_edges()})"

    def __contains__(self, edge) -> bool:
        u, v = edge
        # a loop is never an edge, so it is absent rather than malformed
        return u != v and _normalize_edge(u, v) in self.edges

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Neighbour lists, each sorted ascending.

        The edges go in sorted order, so every vertex receives its
        smaller neighbours (as the second end) before its larger ones
        (as the first end), each group ascending.
        """
        if self._adj is None:
            adj: dict[int, list[int]] = {v: [] for v in self.vertices()}
            for u, v in sorted(self.edges):
                adj[u].append(v)
                adj[v].append(u)
            object.__setattr__(self, "_adj", {v: tuple(ns) for v, ns in adj.items()})
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency()[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    # -- edge rewrites (return new graphs) ---------------------------------

    def with_edges(self, added=(), removed=()) -> Graph:
        edges = set(self.edges)
        for e in removed:
            edges.discard(_normalize_edge(*e))
        for e in added:
            edges.add(_normalize_edge(*e))
        return Graph(self.n, edges)


# -- degree sequences ------------------------------------------------------


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Per-vertex degrees in label order (index 0 is vertex 1)."""
    adj = g.adjacency()
    return tuple(len(adj[v]) for v in g.vertices())


def is_graphical(seq) -> bool:
    """Erdos-Gallai test: is ``seq`` the degree sequence of a simple graph?"""
    seq = list(seq)
    n = len(seq)
    if any(d < 0 or d > n - 1 for d in seq):
        return False
    if sum(seq) % 2 != 0:
        return False
    d = sorted(seq, reverse=True)
    prefix = 0
    for k in range(1, n + 1):
        prefix += d[k - 1]
        tail = sum(min(di, k) for di in d[k:])
        if prefix > k * (k - 1) + tail:
            return False
    return True


# -- connectivity ----------------------------------------------------------


def _acyclic(n: int, edges) -> bool:
    """Union-find over the labels 1..n; n or more edges always close a cycle."""
    if len(edges) >= max(n, 1):
        return False
    parent = list(range(n + 1))
    for u, v in edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return False
        parent[u] = v
    return True


def _parity_classes(n: int, edges, odd_stops: bool):
    """``(count, parent, side)`` for the graph on 1..n with ``edges``, from
    one union-find pass that also 2-colours each class: the component
    count, or None as soon as an edge closes an odd cycle when
    ``odd_stops`` is set, and the links ``_rooted`` reads.

    ``side[x]`` is 1 when x and its union-find parent take different
    colours; path halving carries it along, so a root's is always 0.  An
    edge inside one class whose ends take the same colour closes an odd
    cycle.  Without ``odd_stops`` the pass stops at the merge that leaves
    one class: every vertex is linked into it by then, and later edges
    merge nothing.  O(m log n) time and O(n) memory.
    """
    parent = list(range(n + 1))
    side = [0] * (n + 1)
    count = n
    for u, v in edges:
        su = sv = 0
        while parent[u] != u:
            p = parent[u]
            side[u] ^= side[p]
            parent[u] = parent[p]
            su ^= side[u]
            u = parent[u]
        while parent[v] != v:
            p = parent[v]
            side[v] ^= side[p]
            parent[v] = parent[p]
            sv ^= side[v]
            v = parent[v]
        if u != v:
            parent[u] = v
            side[u] = su ^ sv ^ 1
            count -= 1
            if count == 1 and not odd_stops:
                break
        elif su == sv and odd_stops:
            return None, parent, side
    return count, parent, side


def _rooted(n: int, parent: list[int], side: list[int]):
    """Yield ``(v, root, colour)`` for v = 1..n from ``_parity_classes``
    links: v's class root and v's colour relative to it, halving paths
    as the pass does."""
    for v in range(1, n + 1):
        x = v
        s = 0
        while parent[x] != x:
            p = parent[x]
            side[x] ^= side[p]
            parent[x] = parent[p]
            s ^= side[x]
            x = parent[x]
        yield v, x, s


def components(g: Graph) -> list[list[int]]:
    """Vertex sets of connected components, each sorted, listed by minimum."""
    _, parent, side = _parity_classes(g.n, g.edges, False)
    out: dict[int, list[int]] = {}
    for v, root, _ in _rooted(g.n, parent, side):
        out.setdefault(root, []).append(v)
    return list(out.values())


def kappa(g: Graph) -> int:
    """Number of connected components."""
    return _parity_classes(g.n, g.edges, False)[0]


def is_forest(g: Graph) -> bool:
    return _acyclic(g.n, g.edges)


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.size == g.n - 1 and _acyclic(g.n, g.edges)


def is_unicyclic(g: Graph) -> bool:
    """Exactly one cycle overall: size is n - kappa + 1."""
    return g.size == g.n - kappa(g) + 1


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """The 2-colouring as ``(part_a, part_b)``, where part_a holds the
    lowest vertex of every component, or None when an odd cycle exists."""
    count, parent, side = _parity_classes(g.n, g.edges, True)
    if count is None:
        return None
    lowest: dict[int, int] = {}  # each class's colour at its lowest vertex
    parts: tuple[set[int], set[int]] = (set(), set())
    for v, root, colour in _rooted(g.n, parent, side):
        parts[colour ^ lowest.setdefault(root, colour)].add(v)
    return frozenset(parts[0]), frozenset(parts[1])


def is_bipartite(g: Graph) -> bool:
    return _parity_classes(g.n, g.edges, True)[0] is not None


# -- text formats ----------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Read the plain edge-list format.

    First meaningful line is ``n <order>``; every further line is ``u v``
    with 1 <= u < v <= n.  Lines starting with ``#`` and blank lines are
    skipped.
    """
    n = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n" or not parts[1].isdigit():
                raise GraphFormatError(
                    f"line {lineno}: expected header 'n <order>', got {line!r}"
                )
            n = int(parts[1])
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint in {line!r}")
        if not (1 <= u < v <= n):
            raise GraphFormatError(
                f"line {lineno}: edge {u} {v} violates 1 <= u < v <= {n}"
            )
        if (u, v) in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge {u} {v}")
        edges.add((u, v))
    if n is None:
        raise GraphFormatError("missing 'n <order>' header")
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    """Serialize; edges come out sorted so equal graphs print identically."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def to_dot(g: Graph, name: str = "G") -> str:
    """DOT text for graphviz; vertices always appear even when isolated."""
    lines = [f"graph {name} {{"]
    for v in g.vertices():
        lines.append(f"  {v};")
    for u, v in g.sorted_edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
