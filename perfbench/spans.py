"""In-memory spans for the traced run.

A span records its name, start, end (perf_counter_ns), the index of the span
that was open when it started, and the op it belongs to. Spans are only
opened by the benchmark's own code, around calls into the package's public
functions, so a layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter_ns

_NULL = nullcontext()


def no_span(name: str) -> nullcontext:
    """The span factory of an untraced run: records nothing."""
    return _NULL


class Tracer:
    def __init__(self) -> None:
        # One row per span: [name, start_ns, end_ns, parent index or -1, op id].
        self.rows: list[list] = []
        self._open: list[int] = []
        self.op = -1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_ns(self, scales: list[float]) -> list[float]:
        """Self time of every span, parallel to `rows`, times its op's scale."""
        child = [0] * len(self.rows)
        for name, start, end, parent, _ in self.rows:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start - child[k]) * scales[op] for k, (_, start, end, _, op) in enumerate(self.rows)]

    def totals(self, scales: list[float]) -> dict[str, tuple[float, int]]:
        """Per span name: (summed scaled self time in ns, number of spans)."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for row, own in zip(self.rows, self.self_ns(scales)):
            entry = out[row[0]]
            entry[0] += own
            entry[1] += 1
        return {name: (total, count) for name, (total, count) in out.items()}


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.rows)
        parent = tracer._open[-1] if tracer._open else -1
        tracer.rows.append([self.name, perf_counter_ns(), 0, parent, tracer.op])
        tracer._open.append(self.index)

    def __exit__(self, *exc) -> None:
        self.tracer.rows[self.index][2] = perf_counter_ns()
        self.tracer._open.pop()
