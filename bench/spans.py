"""Span tracer wrapped around gwcalc's layer entry points from outside.

``install`` replaces every public function of each layer module, at every
name the package binds it to (``surfaces.n_d``, ``gw.n_de``,
``potentials.n_de``, the package root, ...), plus the ``TruncatedSeries``
arithmetic and the CLI's cache, render and command helpers, with a wrapper
that keeps a stack of open frames.  A frame's self time is its duration
minus the time its wrapped children took; summed per layer that is the
layer's self time.  Calls that cross from one layer into another are also
kept as spans ``(name, start, end, parent span, op id)`` in memory, up to
``MAX_SPANS``, and written out when the run ends.  The library source is
not touched; a wrap target that a later refactor renames is simply not
found, which drops the metrics that depend on it.

Bound methods cached before ``install`` and names bound inside closures are
not seen; the benchmark calls the library through module attributes.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter

LAYERS = ("exact", "surfaces", "gw", "series", "potentials", "rings",
          "partitions", "cli")
PRIVATE_ENTRIES = {"cli": ("_load_cache", "_save_cache", "_emit")}
SERIES_METHODS = ("__init__", "__add__", "__radd__", "__neg__", "__sub__",
                  "__rsub__", "__mul__", "__rmul__", "truncate",
                  "partial_derivative", "substitute_zero", "render")
MAX_SPANS = 100_000


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = 0
        self.stack: list[list] = []      # [layer, child seconds, child calls, span]
        self.spans: list[list] = []
        self.self_s = Counter()          # per layer
        self.entries = Counter()         # calls entering a layer from outside
        self.calls = Counter()           # per wrapped name
        self.total_s = Counter()         # per wrapped name, children included
        self.counts = Counter()          # hook counters
        self.hooks: dict[str, object] = {}
        self.wrapped: set[str] = set()

    def wrap(self, layer: str, name: str, fn):
        tracer = self
        self.wrapped.add(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            hook = tracer.hooks.get(name)
            if hook is not None:
                tracer.active = False
                try:
                    hook(tracer, args, kwargs)
                finally:
                    tracer.active = True
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span = -1
            if parent is None or parent[0] != layer:
                tracer.entries[layer] += 1
                if len(tracer.spans) < MAX_SPANS:
                    span = len(tracer.spans)
                    tracer.spans.append([name, 0.0, 0.0,
                                         parent[3] if parent else -1,
                                         tracer.op])
            frame = [layer, 0.0, 0, span]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                tracer.self_s[layer] += took - frame[1]
                tracer.calls[name] += 1
                tracer.total_s[name] += took
                if name == "potentials.phi_ijk" and not frame[2]:
                    tracer.counts["potentials.phi_hits"] += 1
                if span >= 0:
                    record = tracer.spans[span]
                    record[1], record[2] = start, end
                if parent is not None:
                    parent[1] += took
                    parent[2] += 1

        return wrapper

    def aggregates(self) -> dict:
        return {"self_s": dict(self.self_s), "entries": dict(self.entries),
                "calls": dict(self.calls), "total_s": dict(self.total_s),
                "counts": dict(self.counts), "wrapped": sorted(self.wrapped)}


def install(tracer: Tracer, package) -> None:
    """Wrap the layer entry points of an imported gwcalc package."""
    modules = [package] + [getattr(package, layer, None) for layer in LAYERS]
    modules = [m for m in modules if isinstance(m, types.ModuleType)]
    for layer in LAYERS:
        mod = getattr(package, layer, None)
        if not isinstance(mod, types.ModuleType):
            continue
        private = PRIVATE_ENTRIES.get(layer, ())
        for attr, obj in list(vars(mod).items()):
            if not (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__):
                continue
            if attr.startswith("_") and attr not in private:
                continue
            wrapped = tracer.wrap(layer, f"{layer}.{attr}", obj)
            for other in modules:
                for name, value in list(vars(other).items()):
                    if value is obj:
                        setattr(other, name, wrapped)
    series_cls = getattr(getattr(package, "series", None), "TruncatedSeries",
                         None)
    if series_cls is not None:
        done: dict[int, object] = {}
        for method in SERIES_METHODS:
            fn = series_cls.__dict__.get(method)
            if not isinstance(fn, types.FunctionType):
                continue
            if id(fn) not in done:
                done[id(fn)] = tracer.wrap(
                    "series", f"series.TruncatedSeries.{fn.__name__}", fn)
            setattr(series_cls, method, done[id(fn)])
        tracer.hooks["series.TruncatedSeries.__mul__"] = _count_term_pairs
        tracer.hooks["series.TruncatedSeries.__init__"] = _count_terms
    commands = getattr(getattr(package, "cli", None), "_COMMANDS", None)
    if isinstance(commands, dict):
        for key, fn in list(commands.items()):
            if isinstance(fn, types.FunctionType):
                commands[key] = tracer.wrap("cli", "cli.command", fn)
    gw = getattr(package, "gw", None)
    admissible = getattr(getattr(gw, "dimension_admissible", None),
                         "__wrapped__", None)
    if admissible is not None:
        tracer.hooks["gw.gw_invariant"] = _gate_counter(admissible)


def _count_term_pairs(tracer: Tracer, args, kwargs) -> None:
    a, b = args[0], args[1] if len(args) > 1 else None
    if hasattr(b, "terms"):
        tracer.counts["series.term_pairs"] += len(a.terms) * len(b.terms)


def _count_terms(tracer: Tracer, args, kwargs) -> None:
    terms = args[3] if len(args) > 3 else kwargs.get("terms")
    if terms:
        tracer.counts["series.terms_normalised"] += len(terms)


def _gate_counter(admissible):
    def hook(tracer: Tracer, args, kwargs) -> None:
        tracer.counts["gw.key_queries"] += 1
        if args and not admissible(args[0]):
            tracer.counts["gw.gate_zeros"] += 1
    return hook


def table_state(package) -> tuple[int | None, int, int | None]:
    """(curve-count memo entries, bits of the largest memoised count,
    reconstruction memo entries) of an imported gwcalc package.  A figure
    whose source a later refactor removes reads None (the bit size 0)."""
    snapshot = getattr(getattr(package, "surfaces", None), "cache_snapshot",
                       None)
    entries, bits = None, 0
    if snapshot is not None:
        nd, nde = snapshot()
        values = list(nd.values()) + list(nde.values())
        entries = len(values)
        bits = max([0] + [v.bit_length() for v in values])
    memo = getattr(getattr(package, "gw", None), "_PR_CACHE", None)
    return entries, bits, (len(memo) if memo is not None else None)
