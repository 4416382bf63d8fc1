"""Shared fixtures and the acceptance summary hook."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from twoswitch.census import census
from twoswitch.fixtures import fig1, fig2
from twoswitch.graphs import Graph
from twoswitch.transition import transition_forest, validate_trace

# one verdict line per acceptance test, printed after the run
ACCEPTANCE_LINES: list[tuple[str, bool, str]] = []


def package_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this package
    from the same source tree as the tests."""
    import twoswitch

    src = str(Path(twoswitch.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def record_acceptance(label: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_LINES.append((label, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for label, ok, detail in ACCEPTANCE_LINES:
        verdict = "PASS" if ok else "FAIL"
        line = f"{verdict}  {label}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fig1_graphs():
    return fig1()


@pytest.fixture(scope="session")
def fig2_graphs():
    return fig2()


@pytest.fixture(scope="session")
def forest_atlas():
    """Per order <= 6: every degree-vector family of forests, its members
    in ascending edge-mask order, and validated transition traces for all
    ordered member pairs."""
    atlas = {}
    for n in range(7):
        cen = census(n)
        groups: dict[int, list[Graph]] = {}
        for mask in np.nonzero(cen.forest)[0]:
            groups.setdefault(int(cen.degree_id[mask]), []).append(
                cen.graph(int(mask))
            )
        families = []
        for vid in sorted(groups):
            members = groups[vid]
            lengths: dict[tuple[int, int], int] = {}
            failures: list[str] = []
            for i, f in enumerate(members):
                for j, g in enumerate(members):
                    trace = transition_forest(f, g)
                    v = validate_trace(trace, g, require_forests=True)
                    lengths[(i, j)] = v.length
                    if not (v.ok and v.within_bound):
                        failures.append(f"pair ({i},{j}) of degree id {vid}: {v.as_dict()}")
            families.append(
                {"members": members, "lengths": lengths, "failures": failures}
            )
        atlas[n] = families
    return atlas


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 0, max_edges=None):
    n = draw(st.integers(min_n, max_n))
    slots = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    picked = draw(
        st.lists(st.sampled_from(slots), unique=True, max_size=max_edges)
        if slots
        else st.just([])
    )
    return Graph(n, picked)


@st.composite
def forests(draw, max_n: int = 10, min_n: int = 0):
    n = draw(st.integers(min_n, max_n))
    slots = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    order = draw(st.permutations(slots)) if slots else []
    keep_limit = draw(st.integers(0, max(0, n - 1)))
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for u, v in order:
        if len(edges) >= keep_limit:
            break
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            edges.append((u, v))
    return Graph(n, edges)
