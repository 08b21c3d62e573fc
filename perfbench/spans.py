"""In-memory span tracer for the benchmark's traced runs.

A traced job wraps the package's public functions at every module that
binds them, so a call made through any import path records one span: its
name, start, end and parent span. Spans live in flat arrays until the job
ends; `summary` then turns them into per-name call counts, inclusive
seconds, self seconds and latency percentiles. Counters that depend on a
call's arguments or result (samples cached, masks seen) are kept by
`observe` hooks in `Tracer.counts`.
"""

from __future__ import annotations

import functools
import math
import time
import weakref
from array import array
from collections import defaultdict
from typing import Callable

Observer = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []  # span names, indexed by span_name
        self.span_name = array("i")
        self.span_parent = array("i")  # -1 marks a root span
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, fn: Callable, name: str, observe: Observer | None = None) -> Callable:
        """Return `fn` wrapped so that each call records a span called `name`."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = self.clock()
                self._stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def instrument(self, modules: list, owner, attr: str, name: str,
                   observe: Observer | None = None) -> None:
        """Wrap `owner.attr` and rebind the wrapper wherever `modules` bind the original.

        `owner` is a module or a class; for a class only the class attribute
        is replaced, which covers every instance.
        """
        original = getattr(owner, attr)
        traced = self.wrap(original, name, observe)
        setattr(owner, attr, traced)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive `s`, `self_s`, `p50_ms` and `p95_ms`.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        n = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += durations[i]
        per_name: dict[int, list[int]] = defaultdict(list)
        for i in range(n):
            per_name[self.span_name[i]].append(i)
        out = {}
        for name_id, name in enumerate(self.names):
            idxs = per_name.get(name_id, [])
            ds = sorted(durations[i] for i in idxs)
            out[name] = {
                "calls": len(idxs),
                "s": sum(ds),
                "self_s": sum(durations[i] - covered[i] for i in idxs),
                "p50_ms": 1e3 * percentile(ds, 0.50),
                "p95_ms": 1e3 * percentile(ds, 0.95),
            }
        return out


def distinct_per_instance(counter: str) -> Observer:
    """Observer for a method `f(self, key)`: adds 1 to `counter` the first
    time each instance is called with a given key."""
    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def observe(tracer: Tracer, args: tuple, kwargs: dict, result: object) -> None:
        keys = seen.setdefault(args[0], set())
        if args[1] not in keys:
            keys.add(args[1])
            tracer.counts[counter] += 1

    return observe


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when it is empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
