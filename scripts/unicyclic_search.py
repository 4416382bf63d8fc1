#!/usr/bin/env python3
"""Exhaustively test whether unicyclic families are switch-connected.

For every degree vector of each order, take all graphs with exactly one
cycle and ask whether any two of them are joined by a switch sequence
whose intermediates all stay unicyclic.  Equivalently: does each family
form a single component under unicyclic-preserving switches?  A single
bounded breadth-first ``explore`` per family, from its first member,
answers that for all its pairs at once.

The degree vector fixes the component count of its unicyclic members
(kappa = n + 1 - edge count), so the verdict splits cleanly by kappa.
Connected families (kappa = 1) are switch-connected at every order this
script can reach.  Families of disconnected unicyclic graphs stop being
switch-connected at order 6: a triangle plus a disjoint 2-edge path
admits no unicyclic-preserving switch at all, because any switch uses
one cycle edge and one path edge and its result is acyclic.  The exit
code reflects only the connected-graph verdict; kappa >= 2 families are
reported as data.

Order 7 visits 108,244 graphs and takes under a minute; orders up to 6
finish in about a second.
"""

import argparse
import sys
import time

import numpy as np

from twoswitch.census import census
from twoswitch.explorer import _family_selector, explore
from twoswitch.graphs import is_unicyclic, kappa


def check_order(n: int):
    cen = census(n)
    groups: dict[int, list] = {}
    for mask in np.nonzero(_family_selector(cen, "unicyclic"))[0]:
        groups.setdefault(int(cen.degree_id[mask]), []).append(cen.graph(int(mask)))
    graphs = 0
    split: dict[int, list] = {}  # kappa -> [connected families, disconnected]
    examples = []
    for members in groups.values():
        graphs += len(members)
        k = kappa(members[0])
        tally = split.setdefault(k, [0, 0])
        # the component lies inside the family, so len(members) states
        # always suffice to expand all of it
        reach = explore(members[0], is_unicyclic, max_states=len(members))
        if not reach.complete:
            raise RuntimeError(f"component of {members[0]} outgrew its family")
        missing = [g for g in members if g.edges not in reach.parents]
        if missing:
            tally[1] += 1
            if len(examples) < 3:
                examples.append((members[0], missing[0]))
        else:
            tally[0] += 1
    return graphs, len(groups), split, examples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-order", type=int, default=6, choices=range(3, 8))
    args = ap.parse_args()

    connected_ok = True
    for n in range(3, args.max_order + 1):
        t0 = time.time()
        graphs, families, split, examples = check_order(n)
        print(f"n={n}: {graphs} unicyclic graphs in {families} families ({time.time()-t0:.1f}s)")
        for k in sorted(split):
            good, bad = split[k]
            verdict = "all switch-connected" if not bad else f"{bad} NOT switch-connected"
            print(f"  kappa={k}: {good + bad} families, {verdict}")
            if k == 1 and bad:
                connected_ok = False
        for start, unreached in examples:
            print(
                f"  e.g. no unicyclic route from {sorted(start.edges)} "
                f"to {sorted(unreached.edges)}"
            )
    print(
        "connected unicyclic graphs: switch-connected at every checked order"
        if connected_ok
        else "connected unicyclic graphs: COUNTEREXAMPLE FOUND"
    )
    return 0 if connected_ok else 1


if __name__ == "__main__":
    sys.exit(main())
