"""In-memory span tracer that wraps callables from outside the program.

A span is one call of a wrapped callable. For every span name the tracer
keeps the call count, the inclusive time and the self time (inclusive
time minus the time covered by direct child spans). `patch` replaces an
attribute of a module or class with a timed wrapper and `remove` puts every
original back, so code run after `remove` is the plain program.
"""

from __future__ import annotations

import time
from collections import defaultdict

# percentiles considered for a tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of an empty list")
    rank = max(1, -(-len(sorted_values) * pct // 100))  # ceil(n * pct / 100)
    return sorted_values[int(rank) - 1]


def tail_percentile(values) -> tuple[float, float] | None:
    """(pct, value) for the highest percentile of the ladder that has at
    least TAIL_MIN_BEYOND samples strictly above it; None when even the
    median has fewer."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        value = percentile(ordered, pct)
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value
    return None


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty list")
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Records spans of wrapped callables; `open[name]` counts the spans of
    that name currently running, so hooks can ask what encloses them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.open: dict[str, int] = defaultdict(int)
        self.stack: list[list] = []  # [name, time covered by direct children]
        self._patches: list[tuple[object, str, object]] = []

    def timed(self, name, fn, before=None, after=None):
        """Wrap fn so each call is a span. name is a string or a function of
        (args, kwargs) giving one. before(args, kwargs) runs ahead of the
        span and after(args, kwargs, result) behind it, both untimed by it."""
        stack, clock, stats, open_spans = self.stack, self.clock, self.stats, self.open
        name_of = name if callable(name) else None

        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs) if name_of is not None else name
            if before is not None:
                before(args, kwargs)
            frame = [label, 0.0]
            stack.append(frame)
            open_spans[label] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans[label] -= 1
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                record = stats[label]
                record.calls += 1
                record.total += duration
                record.self_time += duration - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name, before=None, after=None):
        """Replace owner.attr (a module function or a method defined on the
        class itself) with a timed wrapper until `remove`."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original, before, after))

    def remove(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def total_self_time(self) -> float:
        return sum(s.self_time for s in self.stats.values())

    def get(self, name: str) -> SpanStats:
        """Stats for name without creating an entry."""
        return self.stats[name] if name in self.stats else SpanStats()
