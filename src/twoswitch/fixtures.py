"""Bundled example graphs.

fig1_g0/g1/g2 form a seven-vertex chain of single switches: a spider tree,
a disconnected graph with a triangle, and a second tree.  fig2_g0/g1 are
the eleven-vertex bipartite pair with equal degree vectors that no switch
walk through bipartite graphs can connect.
"""

from __future__ import annotations

from importlib import resources

from .graphs import Graph, GraphError, parse_edge_list

FIXTURE_NAMES = ("fig1_g0", "fig1_g1", "fig1_g2", "fig2_g0", "fig2_g1")


def load(name: str) -> Graph:
    if name not in FIXTURE_NAMES:
        raise GraphError(f"unknown fixture {name!r}; have {', '.join(FIXTURE_NAMES)}")
    text = (
        resources.files("twoswitch")
        .joinpath("data", f"{name}.edges")
        .read_text(encoding="ascii")
    )
    return parse_edge_list(text)


def fig1() -> tuple[Graph, Graph, Graph]:
    return load("fig1_g0"), load("fig1_g1"), load("fig1_g2")


def fig2() -> tuple[Graph, Graph]:
    return load("fig2_g0"), load("fig2_g1")
