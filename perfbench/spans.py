"""In-memory spans around calls into scalelab's layers.

The layers are the package modules.  ``Tracer.install`` wraps every public
function of each layer (its ``__all__``) and rebinds every module-level name
that refers to one of them, including names one layer imports from another
(``scalelab.cli.simulate_curves``, ``scalelab.frontier.loss_ne_ce``), so a
nested call gets the calling span as its parent.

A span is ``[name, start, end, parent, op]``: ``start`` and ``end`` are
``time.perf_counter`` readings (CLOCK_MONOTONIC on Linux, so spans recorded
in a child process line up with the parent's), ``parent`` is the index of the
enclosing span or None, and ``op`` is the benchmark op that was running.
Counters measured at a span (bytes written, samples in, peak allocation)
go into ``Tracer.extra`` keyed by span index.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc

LAYERS = ("cli", "params", "lossmodel", "analytic", "frontier", "fitting")

# Spans whose peak traced allocation is recorded.  tracemalloc runs only
# inside these, so it slows no other layer.
ALLOC_TRACKED = frozenset({"frontier.simulate_curves", "frontier.extract_frontier"})


def _bytes_written(args, kwargs, result):
    target = kwargs.get("path_or_buf", args[1] if len(args) > 1 else None)
    if isinstance(target, (str, os.PathLike)):
        return {"bytes": os.path.getsize(target)}
    return {}


def _frontier_sizes(args, kwargs, result):
    curves = kwargs.get("curves", args[0] if args else ())
    return {"samples_in": sum(cv.loss.size for cv in curves), "points_out": len(result.points)}


COUNTERS = {
    "frontier.write_curves_csv": _bytes_written,
    "frontier.write_frontier_csv": _bytes_written,
    "frontier.extract_frontier": _frontier_sizes,
}


class Tracer:
    """Records spans in memory while ``op`` names a running op; outside one, calls pass through."""

    def __init__(self):
        self.spans: list[list] = []
        self.extra: dict[int, dict] = {}
        self.op = None
        self._stack: list[int] = []
        self._rebound: list[tuple] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def adopt(self, spans: list[list], extra: dict, parent: int) -> None:
        """Append spans recorded by another tracer (a child process) under ``parent``."""
        offset, op = len(self.spans), self.spans[parent][4]
        for name, start, end, p, _ in spans:
            self.spans.append([name, start, end, parent if p is None else p + offset, op])
        for sid, counters in extra.items():
            self.extra[int(sid) + offset] = counters

    def wrap(self, name: str, fn):
        tracked = name in ALLOC_TRACKED
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = self.begin(name)
            fresh = tracked and not tracemalloc.is_tracing()
            if fresh:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if fresh:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.extra[sid] = {"peak_alloc_b": peak}
                self.end(sid)
            if count:
                self.extra.setdefault(sid, {}).update(count(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions and rebind every name bound to one."""
        package = importlib.import_module("scalelab")
        modules = [importlib.import_module(f"scalelab.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self.wrap(f"{layer}.{attr}", fn)
        for module in (package, *modules):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover (seconds)."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans: list[list], extra: dict[int, dict]) -> dict[str, dict]:
    """Per span name: calls, self and inclusive seconds, summed counters, peak allocation."""
    out: dict[str, dict] = {}
    for sid, (span, self_s) in enumerate(zip(spans, self_times(spans))):
        row = out.setdefault(span[0], {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "peak_alloc_b": 0})
        row["calls"] += 1
        row["self_s"] += self_s
        row["incl_s"] += span[2] - span[1]
        for key, value in extra.get(sid, {}).items():
            if key == "peak_alloc_b":
                row[key] = max(row[key], value)
            else:
                row[key] = row.get(key, 0) + value
    return out
