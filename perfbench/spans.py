"""Spans and counters around calls into the package, installed from outside.

The package imports its collaborators by name (``from ..unitroot import
run_battery``), so a wrapper is installed by rebinding the attribute in the
namespace of the module that makes the call, not only where the function
is defined.  Three wrapper kinds keep the overhead proportional to what is
learned:

- span: one record per call (id, parent id, name, start, end, time spent
  in traced children), for calls made a few hundred times per run;
- hot: a call count and a summed duration, charged to the enclosing span as
  child time, for scalar helpers called tens of thousands of times;
- count: a call count only.

Spans are kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "rep", "start", "end", "child")

    def __init__(self, id, parent, name, rep):
        self.id, self.parent, self.name, self.rep = id, parent, name, rep
        self.start = self.end = 0.0
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def as_dict(self, origin: float) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "rep": self.rep,
            "start_s": self.start - origin,
            "dur_s": self.end - self.start,
            "self_s": self.self_time,
        }


class Tracer:
    """Collects spans and per-name counters; ``rep`` tags what follows."""

    def __init__(self):
        self.origin = _clock()
        self.rep = 0
        self.spans = []
        self.calls = defaultdict(Counter)  # rep -> name -> calls
        self.hot_s = defaultdict(Counter)  # rep -> name -> seconds
        self.counts = defaultdict(Counter)  # rep -> counter -> amount
        self.kinds = {}  # name -> wrapper kind
        self._stack = []
        self._undo = []

    # -- wrappers -------------------------------------------------------

    def call(self, name, fn, *args, on_result=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span named name."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name, self.rep)
        self.spans.append(span)
        self.calls[self.rep][name] += 1
        self._stack.append(span)
        span.start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = _clock()
            self._stack.pop()
            if parent is not None:
                parent.child += span.end - span.start
        if on_result is not None:
            for key, amount in on_result(args, kwargs, result).items():
                self.counts[self.rep][key] += amount
        return result

    def _span_wrapper(self, name, fn, on_result):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, on_result=on_result, **kwargs)

        return traced

    def _hot_wrapper(self, name, fn):
        stack, calls, hot_s = self._stack, self.calls, self.hot_s

        def traced(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                calls[self.rep][name] += 1
                hot_s[self.rep][name] += dt
                if stack:
                    stack[-1].child += dt

        return traced

    def _count_wrapper(self, name, fn):
        calls = self.calls

        def traced(*args, **kwargs):
            calls[self.rep][name] += 1
            return fn(*args, **kwargs)

        return traced

    # -- installation ---------------------------------------------------

    def install(self, module, attr, name, kind="span", on_result=None) -> bool:
        """Rebind module.attr to a traced wrapper; False if the attribute is gone."""
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        if kind == "span":
            wrapper = self._span_wrapper(name, fn, on_result)
        elif kind == "hot":
            wrapper = self._hot_wrapper(name, fn)
        elif kind == "count":
            wrapper = self._count_wrapper(name, fn)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        self.kinds[name] = kind
        self._undo.append((module, attr, fn))
        setattr(module, attr, wrapper)
        return True

    def uninstall(self):
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    # -- summaries ------------------------------------------------------

    def totals(self, rep: int) -> dict:
        """name -> {"calls", "total_s", "self_s"} for one rep."""
        out = {}
        for span in self.spans:
            if span.rep != rep:
                continue
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += span.self_time
        for name, seconds in self.hot_s[rep].items():
            n = self.calls[rep][name]
            out[name] = {"calls": n, "total_s": seconds, "self_s": seconds}
        for name, n in self.calls[rep].items():
            out.setdefault(name, {"calls": n, "total_s": None, "self_s": None})
        return out

    def wrapper_cost(self, reps: int) -> list:
        """Per rep, the seconds the wrappers added: calls x per-call cost."""
        per_call = {kind: _per_call_cost(kind) for kind in ("span", "hot", "count")}
        return [
            sum(n * per_call[self.kinds.get(name, "span")] for name, n in self.calls[rep].items())
            for rep in range(reps)
        ]

    def dump(self) -> list:
        return [span.as_dict(self.origin) for span in self.spans]


def _per_call_cost(kind: str, n: int = 20000) -> float:
    """Seconds one wrapper of this kind adds to a call, measured around a no-op."""
    probe = Tracer()

    def noop():
        return None

    wrapped = {
        "span": lambda: probe._span_wrapper("probe", noop, None),
        "hot": lambda: probe._hot_wrapper("probe", noop),
        "count": lambda: probe._count_wrapper("probe", noop),
    }[kind]()
    t0 = _clock()
    for _ in range(n):
        wrapped()
    t1 = _clock()
    for _ in range(n):
        noop()
    t2 = _clock()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / n)
