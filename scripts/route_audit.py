#!/usr/bin/env python3
"""Route every ordered same-vector forest pair and check every route.

For each order from 0 to ``--max-order``, every ordered pair of labelled
forests with one degree vector is routed with ``transition_forest``.
Each route is then replayed on ``Graph`` objects, apart from the
route's own verification: every step must rewire, every intermediate
must be a forest, the last graph must be the target, and the length
must be at most max(0, D - 1), where D is the number of target edges
the source lacks.

One line per order gives the pair count, the total number of switches,
the largest length - max(0, D - 1) and the elapsed time; a last line
gives the totals.  The exit status is 1 if any route fails a check.
Order 7 has 1,397,131 pairs and takes several minutes.
"""

import argparse
import sys
import time

from twoswitch.explorer import enumerate_forests
from twoswitch.graphs import Graph, GraphError, degree_sequence, is_forest
from twoswitch.transition import replay, transition_forest


def route_failure(f: Graph, g: Graph, trace) -> str | None:
    """Why the route from f to g is wrong, or None."""
    try:
        seq = replay(trace)
    except GraphError as exc:
        return f"replay: {exc}"
    if not all(is_forest(x) for x in seq):
        return "an intermediate has a cycle"
    if seq[-1] != g:
        return "the route misses its target"
    if len(trace) > max(0, len(g.edges - f.edges) - 1):
        return f"{len(trace)} switches exceed D - 1"
    return None


def audit_order(n: int) -> tuple[int, int, int, int]:
    """Pairs, switches, largest excess over max(0, D - 1), failed routes."""
    by_vector: dict[tuple[int, ...], list[Graph]] = {}
    for edges in enumerate_forests(n):
        f = Graph(n, edges)
        by_vector.setdefault(degree_sequence(f), []).append(f)
    pairs = switches = failed = 0
    excess = 0  # every forest is also routed to itself, with excess 0
    for members in by_vector.values():
        for f in members:
            for g in members:
                trace = transition_forest(f, g)
                bound = max(0, len(g.edges - f.edges) - 1)
                pairs += 1
                switches += len(trace)
                excess = max(excess, len(trace) - bound)
                why = route_failure(f, g, trace)
                if why is not None:
                    failed += 1
                    if failed == 1:
                        print(f"  FAIL {f.sorted_edges()} -> {g.sorted_edges()}: {why}")
    return pairs, switches, excess, failed


def summary(label: str, pairs: int, switches: int, excess: int, failed: int, elapsed: float) -> str:
    verdict = "pass" if not failed else f"FAIL ({failed} routes)"
    return (
        f"{label}: {verdict}, {pairs} pairs, {switches} switches, "
        f"max excess {excess} ({elapsed:.1f}s)"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-order", type=int, default=7, choices=range(0, 8))
    args = ap.parse_args()

    rows = []
    t0 = time.perf_counter()
    for n in range(args.max_order + 1):
        t = time.perf_counter()
        rows.append(audit_order(n))
        print(summary(f"order {n}", *rows[-1], time.perf_counter() - t), flush=True)
    pairs, switches, _, failed = (sum(col) for col in zip(*rows))
    excess = max(row[2] for row in rows)
    print(summary("total", pairs, switches, excess, failed, time.perf_counter() - t0))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
