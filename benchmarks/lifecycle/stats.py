"""Statistics helpers: nearest-rank percentiles, the ten-samples-beyond rule
for tail percentiles, and the attempted/failed operation ledger."""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer and the figure is one or two outliers, not a tail.
MIN_SAMPLES_BEYOND = 10

#: Tail percentiles tried from the top; the median is the floor.  p90 is
#: the tail the benchmark was asked for; p75 is what 40 to 100 samples carry.
TAIL_LADDER = (90, 75)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it (always an observed value)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (the lower middle sample of an even count)."""
    return percentile(values, 50)


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples rank above the ``p``-th percentile."""
    return count - max(1, math.ceil(p / 100.0 * count))


def supported(count: int, p: float) -> bool:
    """Whether ``count`` samples carry the ``p``-th percentile."""
    return count > 0 and samples_beyond(count, p) >= MIN_SAMPLES_BEYOND


def tail_percentile(count: int) -> int:
    """The highest percentile of :data:`TAIL_LADDER` that ``count``
    samples support, or 50 when they support none."""
    for p in TAIL_LADDER:
        if supported(count, p):
            return p
    return 50


class OpLog:
    """Ledger of timed operations: every attempt counts, and one that
    raises or is judged unsuccessful counts as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Latency of every attempt, seconds, in order.
        self.latencies: List[float] = []
        #: Latencies again, grouped by the operation's kind.
        self.by_kind: Dict[str, List[float]] = {}
        self.errors: List[str] = []

    def record(
        self, kind: str, elapsed: float, ok: bool, error: Optional[str] = None
    ) -> None:
        """Enter one attempt that took ``elapsed`` seconds."""
        self.attempted += 1
        self.latencies.append(elapsed)
        self.by_kind.setdefault(kind, []).append(elapsed)
        if not ok:
            self.failed += 1
            self.errors.append(error or f"{kind}: unsuccessful")

    def run(
        self,
        kind: str,
        operation: Callable[[], object],
        succeeded: Optional[Callable[[object], bool]] = None,
    ) -> object:
        """Time ``operation()``.  Returns its result, or ``None`` when it
        raised — the exception is recorded, not propagated, so one failed
        operation does not hide the ones after it."""
        result = error = None
        start = time.perf_counter()
        try:
            result = operation()
            ok = succeeded(result) if succeeded is not None else True
        except Exception as raised:  # the ledger is the boundary that reports it
            ok = False
            error = f"{kind}: {type(raised).__name__}: {raised}"
        self.record(kind, time.perf_counter() - start, ok, error)
        return result

    def fail(self, reason: str) -> None:
        """Count one more attempt that failed outside :meth:`run` (a
        correctness check, a dead-lettered tree)."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(reason)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)
