"""Spans around the program's layer boundaries, recorded from outside.

A traced run replaces the names a *calling* module uses for another
layer's functions, e.g. ``twoswitch.transition.classify`` or
``twoswitch.explorer.apply_switch``, with wrappers that open a span.  The
defining module's own global stays untouched, so loops inside one module
run unwrapped.  Each span has a name (defining layer and function), the
calling site, start, end and parent; self time is the duration minus the
time covered by child spans.  Spans are aggregated as they close; the
first ``keep`` of them are also kept whole for the span dump.

Untraced runs install nothing.
"""

from __future__ import annotations

import inspect
import resource
import sys
import time
import types

LAYERS = ("graphs", "switch", "transition", "parameters", "census", "explorer")

# modules whose imported names are wrapped: each is a calling site
SITES = ("switch", "transition", "parameters", "census", "explorer", "fixtures")

# called once per operation from inside their own module, so wrapping the
# defining global costs nothing measurable and exposes a phase
OWN_MODULE = {"transition": ("replay",)}


def _layer(obj):
    """The program layer an object is defined in, or None."""
    if isinstance(obj, types.ModuleType):
        module = obj.__name__
    else:
        module = getattr(obj, "__module__", "") or ""
    if not module.startswith("twoswitch."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self, keep=20000):
        self.stack = []  # open spans: [name, site, start, child_s, id, parent]
        self.stats = {}  # (name, site) -> [calls, total_s, self_s, items, rss_mb]
        self.spans = []
        self.keep = keep
        self.count = 0
        self.origin = time.perf_counter()
        self._undo = []

    # -- spans --------------------------------------------------------------

    def open(self, name, site):
        self.count += 1
        parent = self.stack[-1][4] if self.stack else None
        frame = [name, site, time.perf_counter(), 0.0, self.count, parent]
        self.stack.append(frame)
        return frame

    def close(self, frame, calls=1, items=0, rss_mb=0.0):
        end = time.perf_counter()
        while self.stack and self.stack.pop() is not frame:
            pass  # a time limit unwound spans that never closed
        name, site, start, child, sid, parent = frame
        duration = end - start
        st = self.stats.get((name, site))
        if st is None:
            st = self.stats[(name, site)] = [0, 0.0, 0.0, 0, 0.0]
        st[0] += calls
        st[1] += duration
        st[2] += duration - child
        st[3] += items
        st[4] += rss_mb
        if self.stack:
            self.stack[-1][3] += duration
        if len(self.spans) < self.keep:
            self.spans.append(
                (sid, parent, name, site, start - self.origin, end - self.origin)
            )

    def iterate(self, gen, name, site):
        """Time every step of a generator as its own span."""
        while True:
            frame = self.open(name, site)
            try:
                item = next(gen)
            except StopIteration:
                self.close(frame, calls=0)
                return
            except BaseException:
                self.close(frame, calls=0)
                raise
            self.close(frame, calls=0, items=1)
            yield item

    def reset(self):
        self.stats.clear()
        self.spans.clear()

    # -- installation ---------------------------------------------------------

    def wrap(self, fn, site, name=None):
        return _Traced(fn, name or f"{_layer(fn)}.{fn.__name__}", site, self)

    def _replace(self, holder, key, value):
        if isinstance(holder, dict):
            self._undo.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._undo.append((holder, key, getattr(holder, key)))
            setattr(holder, key, value)

    def install(self, api):
        """Wrap every cross-layer name in the program and in ``api``."""
        for short in SITES:
            module = sys.modules[f"twoswitch.{short}"]
            for key, value in list(vars(module).items()):
                if isinstance(value, types.ModuleType) and _layer(value):
                    self._replace(module, key, _ModuleProxy(value, short, self))
                elif _wrappable(value) and _layer(value) not in (None, short):
                    self._replace(module, key, self.wrap(value, short))
            for key in OWN_MODULE.get(short, ()):
                self._replace(module, key, self.wrap(getattr(module, key), short))
        explorer = sys.modules["twoswitch.explorer"]
        for key, value in list(explorer.FAMILY_PREDICATES.items()):
            if _wrappable(value) and _layer(value) not in (None, "explorer"):
                self._replace(explorer.FAMILY_PREDICATES, key, self.wrap(value, "explorer"))
        graph = sys.modules["twoswitch.graphs"].Graph
        self._replace(
            graph, "with_edges", _method(self.wrap(graph.with_edges, "*", "graphs.Graph.with_edges"))
        )
        for key, value in list(vars(api).items()):
            if _wrappable(value) and _layer(value):
                self._replace(api, key, self.wrap(value, "bench"))

    def uninstall(self):
        while self._undo:
            holder, key, value = self._undo.pop()
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)

    # -- results --------------------------------------------------------------

    def dump(self):
        return {
            "stats": [
                {"name": n, "site": s, "calls": c, "total_s": t, "self_s": f, "items": i}
                for (n, s), (c, t, f, i, _r) in sorted(self.stats.items())
            ],
            "spans": [
                {"id": i, "parent": p, "name": n, "site": s, "start": a, "end": b}
                for i, p, n, s, a, b in self.spans
            ],
            "spans_total": self.count,
        }


def _wrappable(value):
    if isinstance(value, type):
        return value.__name__ == "Graph"
    return callable(value) and not isinstance(value, (_Traced, _ModuleProxy))


def _method(traced):
    def method(self, *args, **kwargs):
        return traced(self, *args, **kwargs)

    return method


class _Traced:
    """A callable standing in for a function or class under its old name."""

    def __init__(self, fn, name, site, tracer):
        self.fn = fn
        self.name = name
        self.site = site
        self.tracer = tracer
        self.generator = inspect.isgeneratorfunction(fn)
        self.rss = name == "census.census"

    def __call__(self, *args, **kwargs):
        name = self.name
        if name == "parameters.compute" and args:
            name = f"parameters.compute.{args[0]}"
        tracer = self.tracer
        before = _rss_mb() if self.rss else 0.0
        frame = tracer.open(name, self.site)
        try:
            result = self.fn(*args, **kwargs)
        finally:
            grew = _rss_mb() - before if self.rss else 0.0
            tracer.close(frame, rss_mb=grew)
        if self.generator:
            return tracer.iterate(result, name, self.site)
        return result

    def __instancecheck__(self, obj):
        # explorer tests isinstance(x, Graph) against the name it imported
        return isinstance(obj, self.fn)


class _ModuleProxy:
    """A module seen through a calling site: its functions come back traced."""

    def __init__(self, module, site, tracer):
        self._module = module
        self._site = site
        self._tracer = tracer
        self._cache = {}

    def __getattr__(self, key):
        value = getattr(self._module, key)
        if not (_wrappable(value) and _layer(value)):
            return value
        if key not in self._cache:
            self._cache[key] = self._tracer.wrap(value, self._site)
        return self._cache[key]


# -- per-layer metrics -------------------------------------------------------------

CALLS, TOTAL, SELF, ITEMS, RSS = range(5)  # fields of Tracer.stats values


def layer_metrics(stats, counts, kinds):
    """Per-layer figures from span aggregates and the workload's own counts.

    Returns {name: (value, unit)}; ``counts`` holds what the workload read
    off the program's outputs (route lengths, states explored, ...).
    """

    def total(field, names=None, site=None, layer=None):
        return sum(
            v[field]
            for (name, where), v in stats.items()
            if (names is None or name in names)
            and (site is None or where == site)
            and (layer is None or name.split(".", 1)[0] == layer)
        )

    def bench(*names):
        return {f"explorer.{x}" for x in names}

    def ratio(top, base):
        return top / base if base else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (total(CALLS, layer=layer), "count")
        out[f"{layer}.self_s"] = (total(SELF, layer=layer), "s")
    out["switch.matrices_yielded"] = (total(ITEMS, {"switch.nontrivial_matrices"}), "count")
    out["transition.replay_s"] = (total(TOTAL, {"transition.replay"}), "s")
    out["transition.classify_s"] = (total(TOTAL, {"switch.classify"}, "transition"), "s")
    out["transition.forest_checks"] = (total(CALLS, {"graphs.is_forest"}, "transition"), "count")
    switches = counts.get("transition.switches", 0)
    to_add = counts.get("transition.edges_to_add", 0)
    out["transition.switches"] = (switches, "count")
    out["transition.edges_to_add"] = (to_add, "count")
    out["transition.switches_per_diff"] = (ratio(switches, to_add), "ratio")
    out["transition.plateau_dropped"] = (counts.get("transition.plateau_dropped", 0), "count")
    for kind in kinds:
        out[f"parameters.{kind}_s"] = (total(TOTAL, {f"parameters.compute.{kind}"}), "s")
    out["parameters.rank_s"] = (total(TOTAL, {"parameters.adjacency_rank"}), "s")
    out["census.build_s"] = (total(TOTAL, {"census.census"}), "s")
    out["census.rss_mb"] = (total(RSS, {"census.census"}), "MB")
    out["explorer.stability_sweep_s"] = (total(TOTAL, bench("stability_sweep"), "bench"), "s")
    out["explorer.interval_sweep_s"] = (total(TOTAL, bench("interval_sweep"), "bench"), "s")
    out["explorer.edge_diff_s"] = (total(TOTAL, bench("edge_diff_audit"), "bench"), "s")
    out["explorer.incidences"] = (counts.get("explorer.incidences", 0), "count")
    enumeration = bench("enumerate_family", "enumerate_forests")
    out["explorer.enumerate_s"] = (total(TOTAL, enumeration, "bench"), "s")
    out["explorer.graphs_enumerated"] = (total(ITEMS, enumeration, "bench"), "count")
    out["explorer.interval_audit_s"] = (total(TOTAL, bench("interval_audit"), "bench"), "s")
    searches = bench("constrained_transition_search", "bipartite_counterexample_check")
    out["explorer.search_s"] = (total(TOTAL, searches, "bench"), "s")
    explored = counts.get("explorer.states_explored", 0)
    applied = total(CALLS, {"switch.apply_switch"}, "explorer")
    out["explorer.states_explored"] = (explored, "count")
    out["explorer.switches_applied"] = (applied, "count")
    out["explorer.new_states_per_switch"] = (ratio(explored, applied), "ratio")
    return out
