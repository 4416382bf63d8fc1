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

``--soak SECONDS --seed S`` routes random pairs above the exhaustive
orders instead, drawn from ``random.Random(S)`` until SECONDS have
passed: n = randint(8, 24), k = randint(1, max(1, n // 4)), then
``forest_pair(rng, n, k)`` from ``perfbench/inputs.py``, two forests of
k trees each with one degree vector.  Every route is the one its judge
passed.  The soak prints each draw whose route is longer than
max(0, D - 1), with its index, n, k, D and length, then one line with
the pairs, the pairs over D - 1, the largest excess and the seconds.
A route over D - 1 is reported, not failed: D - 1 is not always
reachable.  The exit status is 1 only if a route raises.
"""

import argparse
import random
import sys
import time
import traceback
from pathlib import Path

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


def soak(seconds: float, seed: int) -> int:
    """Route random pairs for ``seconds``; 1 if a route raised, else 0."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from inputs import forest_pair

    rng = random.Random(seed)
    draws = over = excess = raised = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        n = rng.randint(8, 24)
        k = rng.randint(1, max(1, n // 4))
        f, g = (Graph(n, edges) for edges in forest_pair(rng, n, k))
        d = len(g.edges - f.edges)
        try:
            length = len(transition_forest(f, g))
        except Exception:  # report the draw and go on; the exit status says it
            raised += 1
            print(f"  FAIL draw {draws}: n={n}, k={k}, D={d}: the route raised", flush=True)
            traceback.print_exc()
        else:
            if length > max(0, d - 1):
                over += 1
                print(f"  draw {draws}: n={n}, k={k}, D={d}, length {length}", flush=True)
            excess = max(excess, length - max(0, d - 1))
        draws += 1
    print(
        f"soak seed {seed}: {draws} pairs, {over} over D - 1, max excess {excess}"
        + (f", {raised} raised" if raised else "")
        + f" ({time.perf_counter() - t0:.1f}s)"
    )
    return 1 if raised else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-order", type=int, default=7, choices=range(0, 8))
    ap.add_argument(
        "--soak",
        type=float,
        metavar="SECONDS",
        help="route random pairs of 8 to 24 vertices for SECONDS instead",
    )
    ap.add_argument("--seed", type=int, default=1, help="the soak's seed")
    args = ap.parse_args()
    if args.soak is not None:
        return soak(args.soak, args.seed)

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
