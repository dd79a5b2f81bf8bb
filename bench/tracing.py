"""Spans for the benchmark's traced run.

The traced run wraps public functions of the package by rebinding every
module attribute that refers to them (and two store methods on their class),
for that run only; nothing under ``src/`` changes.  Each call records a span
(id, parent id, name, start, end) in memory.  Spans are written out when the
run ends, and a span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# Span name -> (module, attribute) of the wrapped public function.
FUNCTIONS = {
    "graphs.parse_graph6": ("edgemagic.graphs", "parse_graph6"),
    "graphs.emit_graph6": ("edgemagic.graphs", "emit_graph6"),
    "graphs.canonical_graph": ("edgemagic.graphs", "canonical_graph"),
    "solver.classify_detailed": ("edgemagic.solver", "classify_detailed"),
    "solver.verify_labeling": ("edgemagic.solver", "verify_labeling"),
    "generators.generate_mops": ("edgemagic.generators", "generate_mops"),
    "generators.generate_sparse_graphs": ("edgemagic.generators", "generate_sparse_graphs"),
    "census.run_census": ("edgemagic.census", "run_census"),
    "census.report_emit": ("edgemagic.census", "report_emit"),
    "cli.main": ("edgemagic.cli", "main"),
}
# Span name -> (module, class, method).
METHODS = {
    "census.store.load": ("edgemagic.census", "CensusStore", "load"),
    "census.store.append": ("edgemagic.census", "CensusStore", "append"),
}
# Generator functions whose yielded items are counted (a span around a
# generator would also cover its consumer's work).
COUNTED = {
    "generators.triangulations": ("edgemagic.generators", "triangulations"),
}


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: int  # perf_counter_ns
    end: int = 0

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (root span id, name) -> items
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, name: str, n: int = 1) -> None:
        root = self._stack[0].id if self._stack else None
        self.counts[(root, name)] += n

    def wrap(self, name: str, fn):
        # begin/end rather than span(): this runs on every traced call.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def wrap_counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.count(name)
                yield item

        return counted

    def write(self, path) -> None:
        """Write spans as gzipped JSON lines, times in ns from the first span."""
        origin = self.spans[0].start if self.spans else 0
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.start - origin, s.end - origin]))
                fh.write("\n")


@contextmanager
def instrument(tracer: Tracer):
    """Route the package's public calls through tracer; undo on exit."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "edgemagic" or name.startswith("edgemagic."))]
    undo = []
    try:
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(mod), attr)
            _rebind(modules, original, tracer.wrap(name, original), undo)
        for name, (mod, attr) in COUNTED.items():
            original = getattr(importlib.import_module(mod), attr)
            _rebind(modules, original, tracer.wrap_counted(name, original), undo)
        for name, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(mod), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(name, original))
            undo.append((cls, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _rebind(modules, original, wrapper, undo) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))


def self_times(spans: list[Span]) -> list[float]:
    """Seconds of each span not covered by its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    result = []
    for s in spans:
        covered = 0
        reach = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((s.end - s.start - covered) / 1e9)
    return result


def roots(spans: list[Span]) -> list[int]:
    """Id of each span's outermost ancestor (parents precede children)."""
    root: list[int] = []
    for s in spans:
        root.append(s.id if s.parent is None else root[s.parent])
    return root
