#!/usr/bin/env python3
"""Benchmark for the twoswitch package: four workloads behind one command.

    python3 perfbench/run.py --workload forest_routes --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each run prepares the workload's seeded inputs (set-up), then
repeats whole rounds of the same operations until ``--seconds`` have
passed, checks every output, and prints one JSON object as its last line
of standard output:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
round untraced and one round with spans around every layer boundary and
reports the per-layer metrics, plus the difference between the two round
times as tracing overhead.  ``--workload all`` runs the four workloads in
one process, one result line each.  Results and span dumps are written to
``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

from checks import CheckError  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402

# set-up repeated this many times in one run, median reported; the
# others do seconds of program work that cannot be repeated cheaply
PREPARE_REPEATS = {"large_params": 5, "family_search": 3}
IMPORT_REPEATS = 5


def load_program():
    """Import the package from this checkout's src/ and name its entry points."""
    src = ROOT / "src"
    if not (src / "twoswitch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'twoswitch'}")
    sys.path.insert(0, str(src))
    import twoswitch
    from twoswitch import explorer

    if Path(twoswitch.__file__).resolve().parent != src / "twoswitch":
        raise SystemExit(f"perfbench: imported twoswitch from {twoswitch.__file__}")
    return SimpleNamespace(
        STABLE_KINDS=twoswitch.STABLE_KINDS,
        Graph=twoswitch.Graph,
        fig2=twoswitch.fig2,
        transition_forest=twoswitch.transition_forest,
        compute=twoswitch.compute,
        adjacency_rank=twoswitch.adjacency_rank,
        census=twoswitch.census,
        stability_sweep=explorer.stability_sweep,
        interval_sweep=explorer.interval_sweep,
        edge_diff_audit=twoswitch.edge_diff_audit,
        enumerate_family=twoswitch.enumerate_family,
        enumerate_forests=explorer.enumerate_forests,
        interval_audit=twoswitch.interval_audit,
        constrained_transition_search=twoswitch.constrained_transition_search,
        bipartite_counterexample_check=twoswitch.bipartite_counterexample_check,
    )


def import_seconds():
    """Median time to import the package, each time in a fresh interpreter.

    A single in-process import of about 0.1 s varied by a fifth between
    identical runs; the median of several is steady.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import twoswitch; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src")],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
            cwd=ROOT,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed_round(workload, run):
    start = time.perf_counter()
    out = workload.round(run)
    wall = time.perf_counter() - start
    workload.verify(out, run)
    return wall


def _prepare(name, workload, run, import_s):
    times = []
    for _ in range(PREPARE_REPEATS.get(name, 1)):
        start = time.perf_counter()
        workload.prepare(run)
        times.append(time.perf_counter() - start)
    return import_s + statistics.median(times)


def untraced(name, api, import_s, seed, seconds):
    run = Run()
    workload = WORKLOADS[name](api, seed)
    setup_s = _prepare(name, workload, run, import_s)
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(_timed_round(workload, run))
    deciles = statistics.quantiles([s * 1000 for s in run.op_s], n=10)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "op_p50_ms": _metric(deciles[4], "ms"),
        "op_p90_ms": _metric(deciles[8], "ms"),
    }
    detail = {
        "rounds": len(walls),
        "operations": len(run.op_s),
        "slowest_ok_s": run.slowest_ok_s,
        "counts": run.counts,
    }
    return run, metrics, detail


def traced(name, api, import_s, seed):
    tracer = Tracer()
    prep = Run(tracer)
    workload = WORKLOADS[name](api, seed)
    tracer.install(api)
    _prepare(name, workload, prep, import_s)
    tracer.uninstall()
    setup_stats = {k: v for k, v in tracer.stats.items() if k[0].startswith("census.")}
    tracer.reset()

    plain = _timed_round(workload, Run())
    run = Run(tracer)
    tracer.install(api)
    try:
        with_spans = _timed_round(workload, run)
    finally:
        tracer.uninstall()
    for key, (calls, total, own, items, rss) in setup_stats.items():
        st = tracer.stats.setdefault(key, [0, 0.0, 0.0, 0, 0.0])
        for i, v in enumerate((calls, total, own, items, rss)):
            st[i] += v
    counts = {**prep.counts, **run.counts}
    table = layer_metrics(tracer.stats, counts, api.STABLE_KINDS)
    table["trace.untraced_wall_s"] = (plain, "s")
    table["trace.traced_wall_s"] = (with_spans, "s")
    table["trace.overhead_s"] = (with_spans - plain, "s")
    table["trace.spans"] = (tracer.count, "count")
    metrics = {k: _metric(v, unit) for k, (v, unit) in table.items()}
    return run, metrics, tracer.dump()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    api = load_program()
    import_s = import_seconds()
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        correct, detail = True, None
        try:
            if args.trace:
                run, metrics, spans = traced(name, api, import_s, args.seed)
                (OUT / f"{name}-seed{args.seed}-spans.json").write_text(json.dumps(spans))
            else:
                run, metrics, detail = untraced(name, api, import_s, args.seed, args.seconds)
        except CheckError as exc:
            print(f"perfbench: {name}: check failed: {exc}", file=sys.stderr)
            correct, status = False, 1
            run, metrics = Run(), {}
        result = {
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }
        record = {"workload": name, "seed": args.seed, **result, "detail": detail}
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
