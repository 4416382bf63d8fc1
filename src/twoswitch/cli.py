"""Command-line front end.

One subcommand per library entry point.  Exit code 0 means success or a
passing audit, 1 means a failing audit, an audit with a kind left
unchecked at a cap, an invalid trace or an inconclusive bounded search,
2 means a usage or domain error.  Output is
deterministic for fixed inputs and flags; --json switches every report
to machine form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import explorer, fixtures, parameters
from .graphs import (
    CapExceededError,
    Graph,
    GraphError,
    format_edge_list,
    parse_edge_list,
    to_dot,
)
from .switch import SwitchKind
from .transition import (
    trace_from_json,
    trace_to_json,
    transition_forest,
    transition_graph,
    validate_trace,
)

PARAM_KINDS = parameters.STABLE_KINDS + ("rank", "nullity")


def _read_text(what: str, path: str | None) -> str:
    """The UTF-8 text of the file at ``path``, or of stdin when it is None;
    an input that cannot be read or decoded is a domain error."""
    try:
        if path is None:
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        source = "from stdin" if path is None else repr(path)
        raise GraphError(f"cannot read {what} {source}: {exc}") from exc


def _load_graph(ref: str) -> Graph:
    """A graph argument is a bundled fixture name or an edge-list path."""
    if ref in fixtures.FIXTURE_NAMES:
        return fixtures.load(ref)
    return parse_edge_list(_read_text("graph", ref))


def _parse_sequence(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise GraphError("empty degree sequence")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise GraphError(f"bad degree sequence {text!r}") from exc


def _param_value(kind: str, g: Graph) -> int:
    if kind == "rank":
        return parameters.adjacency_rank(g)
    if kind == "nullity":
        return g.n - parameters.adjacency_rank(g)
    return parameters.compute(kind, g)


def _emit(report_dict: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report_dict, indent=2, sort_keys=True))
        return
    for key, value in report_dict.items():
        if isinstance(value, dict):
            for k2, v2 in value.items():
                print(f"{key}.{k2}={_plain(v2)}")
        else:
            print(f"{key}={_plain(value)}")


def _plain(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (list, tuple)):
        return " ".join(_plain(v) for v in value)
    return str(value)


# -- subcommand bodies ----------------------------------------------------------


def _cmd_transit(args) -> int:
    g = _load_graph(args.source)
    h = _load_graph(args.target)
    trace = transition_forest(g, h) if args.family == "forest" else transition_graph(g, h)
    payload = trace_to_json(trace)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise GraphError(f"cannot write trace {args.out!r}: {exc}") from exc
    else:
        print(payload)
    return 0


def _cmd_params(args) -> int:
    g = _load_graph(args.graph)
    if args.kind != "all":
        values = {args.kind: _param_value(args.kind, g)}
    else:
        rank = parameters.adjacency_rank(g)
        values = {"rank": rank, "nullity": g.n - rank}
        for kind in parameters.STABLE_KINDS:
            try:
                values[kind] = parameters.compute(kind, g)
            except (parameters.IsolatedVertexError, CapExceededError):
                continue  # an undefined edge cover or a capped kind is omitted
    if args.json:
        print(json.dumps(values, indent=2, sort_keys=True))
    else:
        for kind in sorted(values):
            print(f"{kind}={values[kind]}")
    return 0


def _cmd_stability(args) -> int:
    kinds = parameters.STABLE_KINDS if args.kind == "all" else (args.kind,)
    if args.graph:
        reports = explorer.stability_audit(_load_graph(args.graph), kinds)
    else:
        reports = explorer.stability_sweep(args.n, kinds)
    reports = list(reports.values())
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True))
    else:
        for r in reports:
            if r.passed:
                verdict = "pass"
            else:  # a kind refused at a cap fails without a counterexample
                verdict = "fail" if r.counterexample is not None else "refused"
            print(f"{r.kind}={verdict} checked={r.checked}")
            if r.notes:
                print(f"  note={r.notes}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_interval(args) -> int:
    seq = _parse_sequence(args.sequence)
    kinds = parameters.STABLE_KINDS if args.kind == "all" else (args.kind,)
    reports = explorer._interval_audits(seq, kinds, args.family, args.workers)
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True))
    else:
        for r in reports:
            verdict = "pass" if r.passed else "fail"
            values = ",".join(str(v) for v in r.values)
            line = f"{r.kind}={verdict} values=[{values}]"
            if r.notes:
                line += f" note={r.notes}"
            print(line)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_enumerate(args) -> int:
    seq = _parse_sequence(args.sequence)
    members = list(explorer.enumerate_family(seq, family=args.family))
    if args.json:
        payload = {
            "count": len(members),
            "graphs": [[list(e) for e in g.sorted_edges()] for g in members],
        }
        print(json.dumps(payload, separators=(",", ":")))
        return 0
    for g in members:
        edges = " ".join(f"{u}-{v}" for u, v in g.sorted_edges())
        print(edges if edges else "(no edges)")
    print(f"count={len(members)}")
    return 0


def _cmd_edge_diff(args) -> int:
    report = explorer.edge_diff_audit(args.n)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        verdict = "pass" if report.passed else "fail"
        print(f"edge_diff={verdict} checked={report.checked}")
    return 0 if report.passed else 1


def _cmd_bipartite(args) -> int:
    report = explorer.bipartite_counterexample_check()
    _emit(report.as_dict(), args.json)
    return 0 if report.passed else 1


def _cmd_search(args) -> int:
    g = _load_graph(args.source)
    h = _load_graph(args.target)
    result = explorer.constrained_transition_search(
        g, h, family=args.family, budget=args.budget
    )
    d = result.as_dict()
    if result.found and result.trace is not None:
        d["trace"] = json.loads(trace_to_json(result.trace))
    _emit(d, args.json)
    if result.found or result.complete:
        return 0
    return 1  # budget exhausted before an answer


def _cmd_validate(args) -> int:
    path = None if args.trace == "-" else args.trace
    trace = trace_from_json(_read_text("trace", path))
    target = _load_graph(args.target) if args.target else None
    report = validate_trace(trace, target, require_forests=args.require_forests)
    verdict = report.as_dict()
    if not args.json:
        # a count per kind, not a word per step, so a long route's verdict stays short
        verdict["kinds"] = {kind.value: report.kinds.count(kind) for kind in SwitchKind}
    _emit(verdict, args.json)
    return 0 if report.ok else 1


def _cmd_fixtures(args) -> int:
    if not args.name:
        for name in fixtures.FIXTURE_NAMES:
            print(name)
        return 0
    g = fixtures.load(args.name)
    if args.dot:
        print(to_dot(g, name=args.name))
    else:
        sys.stdout.write(format_edge_list(g))
    return 0


# -- wiring ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoswitch",
        description="2-switch transitions, parameters and exhaustive audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transit", help="switch trace carrying one graph to another")
    p.add_argument("source", help="fixture name or edge-list file")
    p.add_argument("target", help="fixture name or edge-list file")
    p.add_argument("--family", choices=("all", "forest"), default="all")
    p.add_argument("--out", help="write the JSON trace here instead of stdout")
    p.set_defaults(func=_cmd_transit)

    p = sub.add_parser("params", help="parameter values of one graph")
    p.add_argument("graph", help="fixture name or edge-list file")
    p.add_argument("--kind", choices=("all",) + tuple(sorted(PARAM_KINDS)), default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("stability-audit", help="|change| <= 1 under every switch")
    p.add_argument("--kind", choices=("all",) + parameters.STABLE_KINDS, default="all")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", help="audit this graph's switches only")
    group.add_argument("--n", type=int, help="sweep every graph of this order")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("interval-audit", help="value sets form integer intervals")
    p.add_argument("--sequence", required=True, help="degree vector, e.g. 3,1,1,1")
    p.add_argument("--kind", choices=("all",) + parameters.STABLE_KINDS, default="all")
    p.add_argument("--family", choices=sorted(explorer.FAMILY_PREDICATES), default="all")
    p.add_argument("--workers", type=int, default=1, help="processes, at most one per usable CPU")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("enumerate", help="all graphs with one degree vector")
    p.add_argument("--sequence", required=True)
    p.add_argument("--family", choices=sorted(explorer.FAMILY_PREDICATES), default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("edge-diff-audit", help="one moved edge always changes a degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_edge_diff)

    p = sub.add_parser("bipartite-check", help="analyse the bundled 11-vertex pair")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bipartite)

    p = sub.add_parser("constrained-search", help="switch path staying in a family")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--family", choices=sorted(explorer.FAMILY_PREDICATES), default="all")
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("validate-trace", help="replay a JSON trace and check it")
    p.add_argument("trace", help="trace file, or - for stdin")
    p.add_argument("--target", help="graph the trace must land on")
    p.add_argument("--require-forests", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fixtures", help="list or emit bundled graphs")
    p.add_argument("name", nargs="?", choices=fixtures.FIXTURE_NAMES)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()  # a closed reader shows up here, not at exit
    except BrokenPipeError:
        # the reader is gone: the interpreter flushes stdout again on exit,
        # so send what is left to the null device and exit 1, as on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)


if __name__ == "__main__":
    main()
