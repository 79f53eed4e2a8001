"""Gateway observability: latency histograms and counters.

Everything here is thread-safe (one lock per metrics object) and cheap
enough to sit on the request hot path: a histogram observation is a
bucket-index computation plus two adds.

The histogram uses fixed log-spaced bucket boundaries in microseconds,
like a Prometheus histogram: percentiles are estimated from bucket
counts (upper bound of the containing bucket), which is plenty for the
"parse is nanoseconds, checks are hundreds of microseconds, cache hits
are tens" resolution the experiments need.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

#: Bucket upper bounds in microseconds: ~log2-spaced from 1µs to ~4s.
_BUCKET_BOUNDS_US: tuple[float, ...] = tuple(
    float(2**exponent) for exponent in range(0, 23)
)


class LatencyHistogram:
    """A fixed-bucket latency histogram with percentile estimates."""

    def __init__(self) -> None:
        self._counts = [0] * (len(_BUCKET_BOUNDS_US) + 1)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        # bisect_left finds the first bound >= the value, so a value at
        # exactly a bucket's upper bound lands *in* that bucket and a
        # value above the largest bound lands in the overflow bucket
        # (index == len(bounds)) — never in the last bounded bucket.
        # Regression-tested at the exact top bound in tests/serve.
        micros = seconds * 1e6
        index = bisect_left(_BUCKET_BOUNDS_US, micros)
        self._counts[index] += 1
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    @property
    def mean_us(self) -> float:
        return self.total_seconds / self.count * 1e6 if self.count else 0.0

    def percentile_us(self, percentile: float) -> float:
        """Estimated latency (µs) at ``percentile`` in [0, 100]."""
        if not self.count:
            return 0.0
        target = percentile / 100.0 * self.count
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= target and bucket_count:
                if index < len(_BUCKET_BOUNDS_US):
                    return _BUCKET_BOUNDS_US[index]
                return self.max_seconds * 1e6
        return self.max_seconds * 1e6

    def merge(self, other: "LatencyHistogram") -> None:
        for index, bucket_count in enumerate(other._counts):
            self._counts[index] += bucket_count
        self.count += other.count
        self.total_seconds += other.total_seconds
        self.max_seconds = max(self.max_seconds, other.max_seconds)

    # -- wire round-trip (cluster STATS aggregation) ------------------------------

    def to_stage_wire(self) -> dict[str, object]:
        """The JSON-safe stage document STATS carries for one histogram.

        Percentile summaries alone cannot be merged across processes, so
        the document also carries the raw bucket counts (``buckets``) and
        the running totals — everything :meth:`from_stage_wire` needs to
        rebuild an equivalent histogram that :meth:`merge` can combine.
        """
        return {
            "count": float(self.count),
            "mean_us": self.mean_us,
            "p50_us": self.percentile_us(50),
            "p95_us": self.percentile_us(95),
            "p99_us": self.percentile_us(99),
            "max_us": self.max_seconds * 1e6,
            "buckets": list(self._counts),
            "total_s": self.total_seconds,
        }

    @classmethod
    def from_stage_wire(cls, stage: dict) -> "LatencyHistogram | None":
        """Rebuild a histogram from a STATS stage document.

        Returns ``None`` for documents from servers that predate the raw
        ``buckets`` field (merge callers then fall back to summaries).
        """
        buckets = stage.get("buckets")
        if not isinstance(buckets, list) or len(buckets) != len(_BUCKET_BOUNDS_US) + 1:
            return None
        histogram = cls()
        histogram._counts = [int(count) for count in buckets]
        histogram.count = int(stage.get("count", sum(histogram._counts)))
        histogram.total_seconds = float(stage.get("total_s", 0.0))
        histogram.max_seconds = float(stage.get("max_us", 0.0)) / 1e6
        return histogram


@dataclass
class MetricsSnapshot:
    """An immutable copy of the gateway's metrics at one instant.

    Each stage document carries the summary fields (``count`` /
    ``mean_us`` / percentiles / ``max_us``) plus the raw ``buckets`` and
    ``total_s`` needed to merge histograms across processes (see
    :meth:`LatencyHistogram.to_stage_wire`).
    """

    counters: dict[str, int]
    view_checks: dict[str, int]
    stages: dict[str, dict[str, object]]

    def describe(self) -> str:
        lines = ["counters:"]
        for name in sorted(self.counters):
            lines.append(f"  {name}: {self.counters[name]}")
        if self.view_checks:
            lines.append("per-view allow counts:")
            for name, count in sorted(
                self.view_checks.items(), key=lambda item: -item[1]
            ):
                lines.append(f"  {name}: {count}")
        lines.append("stage latency (µs):")
        for stage in sorted(self.stages):
            numbers = self.stages[stage]
            lines.append(
                f"  {stage}: n={int(numbers['count'])}"
                f" mean={numbers['mean_us']:.1f}"
                f" p50={numbers['p50_us']:.0f}"
                f" p95={numbers['p95_us']:.0f}"
                f" p99={numbers['p99_us']:.0f}"
                f" max={numbers['max_us']:.0f}"
            )
        return "\n".join(lines)


class GatewayMetrics:
    """All the gateway's counters and histograms behind one lock.

    Stages are created on first observation; the gateway uses ``parse``,
    ``check``, and ``execute``. Counters are free-form names — cache
    hits/misses/invalidations, sessions opened, requests served,
    decisions allowed/blocked, disagreements from cache verification.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: dict[str, LatencyHistogram] = {}
        self._counters: Counter[str] = Counter()
        self._view_checks: Counter[str] = Counter()

    def observe_stage(self, stage: str, seconds: float) -> None:
        self.record(((stage, seconds),), (), ())

    def record(
        self,
        stages: Iterable[tuple[str, float]],
        counters: Iterable[str],
        view_checks: Iterable[str],
    ) -> None:
        """One statement's stage observations and counter increments (one
        each per name listed), under one lock acquisition."""
        with self._lock:
            for stage, seconds in stages:
                histogram = self._stages.get(stage)
                if histogram is None:
                    histogram = self._stages[stage] = LatencyHistogram()
                histogram.observe(seconds)
            for name in counters:
                self._counters[name] += 1
            for name in view_checks:
                self._view_checks[name] += 1

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters[name]

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            stages = {
                stage: histogram.to_stage_wire()
                for stage, histogram in self._stages.items()
            }
            return MetricsSnapshot(
                counters=dict(self._counters),
                view_checks=dict(self._view_checks),
                stages=stages,
            )
