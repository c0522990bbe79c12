"""A small span recorder.

Each span has a name, start, end, parent span and run id. Spans stay in
memory and are written out once, at the end. Self time is a span's
duration minus the time its direct children cover; spans on one thread
nest, so the children never overlap.

Span names are the benchmark's layer metric names (`syntax.check`,
`metrics.levenshtein`, ...), so a profiler built into the program later
can report under the same names.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    run: str
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records nested spans for the current run id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run = ""
        self._open: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, self.run, self.clock())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()
        if self._open:
            self._open[-1].child_s += span.duration

    def wrap(self, fn, name: str, observe=None):
        """`fn` with a span around every call. `observe(args, kwargs,
        result)` runs after the span has ended, so what it costs is not
        charged to this span (it is charged to the enclosing one)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def of_run(self, run: str) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name, "run": s.run,
                    "start": s.start, "end": s.end, "self_s": s.self_s,
                }) + "\n")


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per name: call count, summed duration and summed self time.
    Durations of a name nested in itself are counted once."""
    by_id = {s.id: s for s in spans}
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += s.self_s
        p = by_id.get(s.parent)
        while p is not None and p.name != s.name:
            p = by_id.get(p.parent)
        if p is None:
            row["total_s"] += s.duration
    return out
