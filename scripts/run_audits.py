#!/usr/bin/env python3
"""Run the order-wide audits in one go and summarize.

Covers parameter stability, the interval property over all graphs and
over the forest, tree, unicyclic and bipartite families, and the
no-single-edge-move check, each up to a chosen order.  The optional
order-8 rank audit walks every forest on eight vertices, confirms
rank = 2*matching by exact elimination, and checks the matching step
of every forest-preserving switch (6,478,920 of them); it takes about
six minutes on a 2-core VM, most of it building each switched forest
and taking its matching number, and is off by default.  Each line gives
its section's elapsed time; the stability lines give each order's
census build separately, with its peak of traced memory (tracemalloc,
on only around the build, in MB of 2^20 bytes) and the seconds of each
of its phases.  numpy is loaded before the first build, so that no
line counts its import.
"""

import argparse
import sys
import time
import tracemalloc

import numpy  # noqa: F401  (loaded here, not inside the first traced build)

from twoswitch import parameters
from twoswitch.census import census
from twoswitch.explorer import (
    edge_diff_audit,
    enumerate_forests,
    interval_sweep,
    stability_sweep,
)
from twoswitch.graphs import Graph, is_forest
from twoswitch.parameters import adjacency_rank, compute
from twoswitch.switch import _switches

INTERVAL_FAMILIES = ("all", "forest", "tree", "unicyclic", "bipartite")


def audit_rank_steps_order_8() -> bool:
    forests = 0
    steps = 0
    t0 = time.time()
    for edges in enumerate_forests(8):
        g = Graph(8, edges)
        mu = compute("matching", g)
        if adjacency_rank(g) != 2 * mu:
            print(f"  rank identity FAILS on {edges}")
            return False
        forests += 1
        for m, switched in _switches(g):
            if not is_forest(switched):
                continue
            steps += 1
            if abs(compute("matching", switched) - mu) > 1:
                print(f"  matching step FAILS on {edges} under {m}")
                return False
        if forests % 100000 == 0:
            print(f"  ... {forests} forests, {steps} steps, {time.time()-t0:.0f}s")
    print(f"  rank(F) = 2*matching on all {forests} forests")
    print(f"  all {steps} forest-preserving switch steps within 1 matching unit")
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-order", type=int, default=7, choices=range(1, 8))
    ap.add_argument(
        "--rank-steps-order-8",
        action="store_true",
        help="also run the long exhaustive order-8 forest rank audit",
    )
    args = ap.parse_args()

    failed = False
    t0 = time.perf_counter()
    for n in range(1, args.max_order + 1):
        tracemalloc.start()
        t = time.perf_counter()
        cen = census(n)
        built = time.perf_counter() - t
        peak = tracemalloc.get_traced_memory()[1] / (1 << 20)
        tracemalloc.stop()
        phases = ", ".join(f"{k} {v:.2f}s" for k, v in cen.build_s.items())
        t = time.perf_counter()
        reports = stability_sweep(n)
        bad = [k for k, r in reports.items() if not r.passed]
        checked = sum(r.checked for r in reports.values())
        verdict = "pass" if not bad else f"FAIL {bad}"
        print(
            f"stability  n={n}: {verdict} ({checked} incidences, "
            f"{time.perf_counter()-t:.1f}s; census built in {built:.1f}s, "
            f"peak {peak:.1f} MB: {phases})"
        )
        failed |= bool(bad)
    for n in range(1, args.max_order + 1):
        t = time.perf_counter()
        bad = []
        for kind in parameters.STABLE_KINDS:
            for family in INTERVAL_FAMILIES:
                if not interval_sweep(n, kind, family).passed:
                    bad.append((kind, family))
        verdict = "pass" if not bad else f"FAIL {bad}"
        print(f"interval   n={n}: {verdict} ({time.perf_counter()-t:.1f}s)")
        failed |= bool(bad)
    for n in range(2, args.max_order + 1):
        t = time.perf_counter()
        report = edge_diff_audit(n)
        verdict = "pass" if report.passed else "FAIL"
        print(f"edge-move  n={n}: {verdict} ({report.checked} moves, {time.perf_counter()-t:.1f}s)")
        failed |= not report.passed
    if args.rank_steps_order_8:
        print("rank audit n=8:")
        failed |= not audit_rank_steps_order_8()
    print(f"total {time.perf_counter()-t0:.1f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
