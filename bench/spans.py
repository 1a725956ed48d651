"""Outside-in span tracing of the localgibbs package.

`Tracer.install` replaces every public function of each layer module (and
the public methods of the classes those modules define) with a wrapper that
records one span per call: id, parent id, layer, name, start and end. Every
reference to a wrapped function in any package module is rebound, including
values of module-level dicts such as the CLI's handler table, so calls that
go through `from .x import f` bindings are traced too. The engine's thread
pool is swapped for one whose tasks open an `engine.pool_task` span under
the submitting span, so the parent link crosses into worker threads.

Spans stay in memory; `uninstall` restores every original binding. The
package source is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

PACKAGE = "localgibbs"
LAYERS = ("config", "graphs", "models", "mrf", "engine", "chains",
          "randomness", "diagnostics", "oracle", "cli")

# round functions: their self time excludes selection and tape hashing
ROUND_SPANS = frozenset({"chains.luby_glauber_round_batch",
                         "chains.local_metropolis_round_batch",
                         "chains.sequential_glauber_round_batch"})
SELECT_SPANS = frozenset({"chains.scheduled_set_batch",
                          "chains.luby_select_batch",
                          "chains.single_site_select_batch",
                          "chains.local_max_select"})
TAPE_ACCESSORS = frozenset({"node_words", "node_uniforms", "edge_uniforms",
                            "node_words_over_rounds"})


def _count_words(counts, args, out):
    counts["randomness.words"] += out.size


def _count_selected(counts, args, out):
    counts["chains.selected"] += int(out.sum())
    counts["chains.conditionals"] += out.size


def _count_changed(counts, args, out):
    x = args[1]
    counts["chains.changed"] += int((out[0] != x).sum())
    counts["chains.sites"] += x.size


def _counter_for(name: str):
    if name.startswith("randomness.RandomTape."):
        if name.rsplit(".", 1)[1] in TAPE_ACCESSORS:
            return _count_words
    elif name == "chains.scheduled_set_batch":
        return _count_selected
    elif name in ROUND_SPANS:
        return _count_changed
    return None


class Tracer:
    """Span recorder for one traced CLI call."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, layer, name, t0, t1)
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn):
        counter = _counter_for(name)
        spans, stack_of, ids, counts = (self.spans, self._stack, self._ids,
                                        self.counts)
        lock = self._count_lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, layer, name, t0, t1))
            if counter is not None:
                with lock:
                    counter(counts, args, out)
            return out
        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0
                return super().submit(tracer._pool_task, parent, fn, args,
                                      kwargs)
        return TracedPool

    def _pool_task(self, parent, fn, args, kwargs):
        self._local.stack = [parent]
        try:
            return self.wrap("engine", "engine.pool_task", fn)(*args, **kwargs)
        finally:
            self._local.stack = []

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self.wrap(
                                layer, f"{layer}.{attr}.{meth}", fn))
        root = importlib.import_module(PACKAGE)
        for mod in [root, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._set(obj, key, wrapped[value])
        self._set(modules["engine"], "ThreadPoolExecutor", self._pool_class())

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans, counts, start: float, end: float, threads: int) -> dict:
    """Per-layer figures for one traced call that ran from start to end
    (perf_counter seconds) with the given worker-thread count.

    Self time is a span's duration minus the part of it its child spans
    cover. `graphs.build_s` and `models.build_s` sum the spans of that layer
    whose parent lies in another layer; `config.load_s`, `mrf.feasible_s`
    and the worker time of `engine.busy_frac` (`engine.run_batch` spans) sum
    the spans of one function not nested in a span of the same function.
    """
    children = defaultdict(list)
    layer_of, name_of = {}, {}
    for sid, parent, layer, name, t0, t1 in spans:
        children[parent].append((t0, t1))
        layer_of[sid] = layer
        name_of[sid] = name
    self_layer: Counter = Counter()
    round_self = select_self = 0.0
    outer: Counter = Counter()
    round_ms = []
    inclusive: Counter = Counter()
    orphans = 0
    known = set(layer_of) | {0}
    for sid, parent, layer, name, t0, t1 in spans:
        own = (t1 - t0) - _covered(children[sid], t0, t1)
        self_layer[layer] += own
        if name in ROUND_SPANS:
            round_self += own
            round_ms.append((t1 - t0) * 1e3)
        elif name in SELECT_SPANS:
            select_self += own
        if layer_of.get(parent) != layer:
            outer[layer] += t1 - t0
        if name_of.get(parent) != name:
            inclusive[name] += t1 - t0
        if parent not in known:
            orphans += 1
    roots = [(t0, t1) for _, parent, _, _, t0, t1 in spans if parent == 0]
    wall_s = end - start
    out = {f"{layer}.self_s": float(self_layer[layer]) for layer in LAYERS}
    words = counts["randomness.words"]
    out.update({
        "chains.round_self_s": round_self,
        "chains.round_ms": round_ms,
        "chains.select_self_s": select_self,
        "chains.selected_frac": (counts["chains.selected"]
                                 / counts["chains.conditionals"]
                                 if counts["chains.conditionals"] else 0.0),
        "chains.changed_frac": (counts["chains.changed"]
                                / counts["chains.sites"]
                                if counts["chains.sites"] else 0.0),
        "randomness.words": words,
        "randomness.ns_per_word": (self_layer["randomness"] / words * 1e9
                                   if words else 0.0),
        "engine.busy_frac": inclusive["engine.run_batch"] / (threads * wall_s),
        "mrf.feasible_s": float(inclusive["mrf.feasible_batch"]),
        "config.load_s": float(inclusive["config.load_config"]),
        "graphs.build_s": float(outer["graphs"]),
        "models.build_s": float(outer["models"]),
        "trace.coverage_frac": _covered(roots, start, end) / wall_s,
        "trace.spans": len(spans),
        # one root (cli.main) per call; any other root or a missing parent
        # means a span lost its caller, e.g. across the thread pool
        "trace.orphan_spans": orphans + max(len(roots) - 1, 0),
    })
    return out


def round_peak_alloc(call):
    """Run call() under tracemalloc; return (its result, largest peak of
    traced bytes above the bytes held at entry, over round-function calls).

    Only the round functions are wrapped, and reset_peak is process-wide,
    so the call must run on one thread.
    """
    chains = importlib.import_module(f"{PACKAGE}.chains")
    peaks = []
    originals = {}

    def watch(fn):
        @functools.wraps(fn)
        def watched(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return out
        return watched

    for span in ROUND_SPANS:
        attr = span.split(".", 1)[1]
        originals[attr] = getattr(chains, attr)
        setattr(chains, attr, watch(originals[attr]))
    tracemalloc.start()
    try:
        result = call()
    finally:
        tracemalloc.stop()
        for attr, fn in originals.items():
            setattr(chains, attr, fn)
    return result, max(peaks, default=0)
