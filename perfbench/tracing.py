"""In-memory spans for the traced benchmark run.

A span records (trace, name, start, end, parent).  Spans stay in memory and
are written out by the caller when the run ends.  A span's self time is its
duration minus the durations of its direct children; since a traced job is
single-threaded, children never overlap, so the self times of one trace sum
exactly to the duration of its root span.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self, trace: int) -> None:
        self.trace = trace  # identifier shared by the spans of one traced job
        self.spans: list[list] = []  # [trace, name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, over every trace recorded."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (_, name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        stack = tracer._stack
        self.record = [tracer.trace, name, 0.0, 0.0, stack[-1] if stack else -1]

    def __enter__(self) -> None:
        tr = self.tracer
        tr._stack.append(len(tr.spans))
        tr.spans.append(self.record)
        self.record[2] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.record[3] = time.perf_counter()
        self.tracer._stack.pop()
