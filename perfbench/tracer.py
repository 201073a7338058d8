"""Benchmark-side spans and counters for the traced replay.

Spans wrap calls into the package's public layer functions from the
benchmark's own code; nothing inside ``src/`` is instrumented.  Every span
is kept in memory (name, start, duration, enclosing span) and summarised
when the run ends.
"""

from __future__ import annotations

import math
import time


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, seconds, parent index
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def by_name(self) -> dict[str, list[float]]:
        """Span durations in seconds, grouped by span name."""
        out: dict[str, list[float]] = {}
        for name, _, seconds, _ in self.spans:
            out.setdefault(name, []).append(seconds)
        return out

    def covered_seconds(self) -> float:
        """Wall time inside outermost spans (nested spans counted once)."""
        return math.fsum(s for _, _, s, parent in self.spans if parent < 0)

    def summary(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total seconds, self seconds), busiest first."""
        child = [0.0] * len(self.spans)
        for _, _, s, parent in self.spans:
            if parent >= 0:
                child[parent] += s
        rows: dict[str, list] = {}
        for i, (name, _, s, _) in enumerate(self.spans):
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s
            row[2] += s - child[i]
        return sorted(((n, *r) for n, r in rows.items()), key=lambda r: -r[2])


class _Span:
    __slots__ = ("tracer", "name", "index", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else -1
        self.index = len(tr.spans)
        tr.spans.append((self.name, 0.0, 0.0, parent))
        tr._open.append(self.index)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tracer
        tr._open.pop()
        _, _, _, parent = tr.spans[self.index]
        tr.spans[self.index] = (self.name, self.t0, t1 - self.t0, parent)
        return False


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..1); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
