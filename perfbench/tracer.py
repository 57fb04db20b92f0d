"""Span tracing of cardiofuse from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a timing wrapper, in every ``cardiofuse`` module that binds the
function's name: ``train_linear`` is looked up as a global of ``svm``
(by ``grid_search_cv``), of ``fusion`` and of ``pipeline``, and each of
those bindings must see the wrapper or its calls go uncounted.
``uninstall`` puts the originals back.

A span is one call.  Spans are aggregated in memory by their path (the
chain of traced callers, outermost first); a span's self time is its
duration minus the time its traced child spans cover.

``overhead_s`` estimates what the tracing added to a run: a calibrated
batch of wrapped no-op calls gives the cost of one wrapper, which is
multiplied by the number of spans recorded, and the time spent in
observers is added.  Two separate runs, one traced and one not, differ
by that and by whatever the machine's speed did in between.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

TRACED_MODULES = ("data", "registration", "filtering", "tensor3", "mpca",
                  "gat", "svm", "fusion", "metrics", "pipeline")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self, observers=None):
        # observers: span name -> fn(bound_arguments, result) -> {counter: n}
        self.observers = dict(observers or {})
        self.by_path: dict[tuple[str, ...], SpanStats] = {}
        self.by_name: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.observer_s = 0.0
        self._stack: list[list] = []  # [name, child seconds] per open span
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"cardiofuse.{short}"]
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cardiofuse" and not mod_name.startswith("cardiofuse."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        observer = self.observers.get(name)
        signature = inspect.signature(fn) if observer else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            path = tuple(f[0] for f in self._stack)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += duration
                self._record(path, duration, duration - frame[1])
            if observer is not None:
                start = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in observer(bound.arguments, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
                self.observer_s += time.perf_counter() - start
            return result

        return traced

    def _record(self, path, duration: float, self_time: float) -> None:
        for stats in (self.by_path.setdefault(path, SpanStats()),
                      self.by_name.setdefault(path[-1], SpanStats())):
            stats.calls += 1
            stats.total_s += duration
            stats.self_s += self_time
        self.by_name[path[-1]].durations.append(duration)

    def calls(self, name: str) -> int:
        return self.by_name.get(name, SpanStats()).calls

    def total_s(self, name: str) -> float:
        return self.by_name.get(name, SpanStats()).total_s

    def self_s(self, name: str) -> float:
        return self.by_name.get(name, SpanStats()).self_s

    def median_ms(self, name: str) -> float:
        durations = sorted(self.by_name.get(name, SpanStats()).durations)
        if not durations:
            return 0.0
        mid = len(durations) // 2
        if len(durations) % 2:
            return 1e3 * durations[mid]
        return 1e3 * (durations[mid - 1] + durations[mid]) / 2

    def module_self_s(self, short: str) -> float:
        return sum(s.self_s for n, s in self.by_name.items()
                   if n.startswith(short + "."))

    def overhead_s(self, batch: int = 20000, repeats: int = 5) -> float:
        """Estimated seconds the tracing added to the traced calls.

        The cost of one wrapper is timed on a no-op function, with as many
        enclosing spans open as the recorded spans had on average (building
        a span's path grows with its depth); the median over ``repeats``
        batches is taken.
        """
        spans = sum(s.calls for s in self.by_path.values())
        if not spans:
            return self.observer_s
        depth = round(sum(len(path) * s.calls
                          for path, s in self.by_path.items()) / spans)

        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap("calibration.noop", noop)
        probe._stack = [["calibration.outer", 0.0] for _ in range(depth - 1)]
        per_call = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(batch):
                wrapped()
            middle = time.perf_counter()
            for _ in range(batch):
                noop()
            end = time.perf_counter()
            per_call.append(((middle - start) - (end - middle)) / batch)
        return statistics.median(per_call) * spans + self.observer_s

    def span_table(self) -> list[dict]:
        """One row per span path, in call-tree order."""
        return [
            {"path": "/".join(path), "calls": s.calls,
             "total_s": s.total_s, "self_s": s.self_s}
            for path, s in sorted(self.by_path.items())
        ]
