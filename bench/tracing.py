"""In-memory spans recorded around the benchmark's own calls into irsalloc.

A span is the tuple (name, start, end, parent, op): parent is the index of
the enclosing span or None, op the index of the operation it belongs to.
Spans are plain tuples of atoms, which the garbage collector stops tracking,
so that keeping tens of thousands of them does not slow the run. They stay
in a list until the run ends; `write` dumps them as JSON lines and
`layer_totals` folds them into per-name call counts, busy time and self
time. Everything runs on one thread, so no span ever waits on a queue or a
lock.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL_SPAN = contextlib.nullcontext()


class _OpenSpan:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        spans = self.tracer.spans
        name, start, _, parent, op = spans[self.index]
        spans[self.index] = (name, start, time.perf_counter(), parent, op)
        self.tracer._stack.pop()
        return False


class Tracer:
    """Span recorder; a disabled tracer hands out a shared no-op context."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = -1

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), None, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return _OpenSpan(self, index)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """{name: {"calls", "busy_s", "self_s"}}; self time excludes direct children."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _, _), children in zip(spans, child_time):
        t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += end - start
        t["self_s"] += end - start - children
    return totals
