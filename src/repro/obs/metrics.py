"""Counters and fixed-bucket histograms for simulator metrics.

A :class:`Histogram` keeps a bounded number of bucket counts instead of
every sample, so million-record replays can report latency percentiles
without an O(records) list. Bucket bounds are fixed at construction;
:meth:`Histogram.percentile` interpolates linearly inside the bucket
that contains the requested rank, which is accurate to a bucket's width
(the default latency buckets follow a 1–2.5–5 decade ladder, i.e. at
most ~2.5x resolution at any scale — plenty for p50/p95/p99 reporting).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union


def default_latency_buckets_ms() -> Tuple[float, ...]:
    """Latency bucket upper bounds in ms: 1–2.5–5 ladder, 10 µs to 100 s."""
    bounds: List[float] = []
    for exp in range(-2, 6):  # 0.01 ms .. 100_000 ms
        for mult in (1.0, 2.5, 5.0):
            bounds.append(mult * 10.0 ** exp)
    return tuple(bounds)


def default_size_buckets_blocks() -> Tuple[float, ...]:
    """Size bucket upper bounds in blocks: powers of two, 1 to 4096."""
    return tuple(float(2 ** i) for i in range(13))


def nearest_rank(ordered: Sequence[float], percentile: float) -> float:
    """Exact nearest-rank percentile of an already-sorted sample list.

    The sample at rank ``round(percentile / 100 * n)`` (1-based, at
    least 1); 0 when the list is empty. :meth:`Histogram.percentile`
    estimates the same rank from bucket counts.
    """
    if not ordered:
        return 0.0
    rank = max(1, int(round(percentile / 100.0 * len(ordered))))
    return ordered[min(rank, len(ordered)) - 1]


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1)."""
        self.value += n

    def merge(self, other: "Counter") -> "Counter":
        """Sum with another counter of the same name."""
        merged = Counter(self.name)
        merged.value = self.value + other.value
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket histogram with min/max/sum and percentile estimates.

    ``bounds`` are strictly increasing bucket *upper* bounds; one
    implicit overflow bucket catches samples above the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Optional[Sequence[float]] = None, name: str = ""):
        if bounds is None:
            bounds = default_latency_buckets_ms()
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording -----------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of samples."""
        for v in values:
            self.observe(v)

    # -- queries -------------------------------------------------------

    @property
    def mean(self) -> float:
        """Mean of all observed samples (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, percentile: float) -> float:
        """Estimated percentile (0 < percentile <= 100; 0 when empty).

        Matches :func:`nearest_rank`'s convention at bucket
        granularity: the bucket containing the rank is found, then the
        value is interpolated linearly between the bucket's bounds. The
        overflow bucket reports ``max``.
        """
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        if not self.count:
            return 0.0
        rank = max(1, int(round(percentile / 100.0 * self.count)))
        cumulative = 0
        for i, n in enumerate(self.counts):
            if not n:
                continue
            if cumulative + n >= rank:
                if i >= len(self.bounds):  # overflow bucket
                    return self.max
                lo = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[i])
                hi = self.bounds[i]
                lo = max(lo, self.min)
                hi = min(hi, self.max) if self.max >= lo else hi
                fraction = (rank - cumulative) / n
                return lo + (hi - lo) * fraction
            cumulative += n
        return self.max  # pragma: no cover - defensive

    @property
    def p50(self) -> float:
        """Median estimate."""
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        """95th-percentile estimate."""
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        """99th-percentile estimate."""
        return self.percentile(99.0)

    # -- aggregation ---------------------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        """Sum with another histogram over identical bounds."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        merged = Histogram(self.bounds, name=self.name)
        merged.counts = [a + b for a, b in zip(self.counts, other.counts)]
        merged.count = self.count + other.count
        merged.sum = self.sum + other.sum
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (JSON-safe)."""
        return {
            "name": self.name,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.bounds == other.bounds
            and self.counts == other.counts
            and self.count == other.count
            and self.sum == other.sum
            and (self.min == other.min or (self.count == 0 and other.count == 0))
            and (self.max == other.max or (self.count == 0 and other.count == 0))
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Histogram {self.name} n={self.count} "
            f"mean={self.mean:.3f} p95={self.p95 if self.count else 0.0:.3f}>"
        )


Metric = Union[Counter, Histogram]


class MetricsRegistry:
    """Name-keyed collection of counters and histograms."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Counter(name)
            self._metrics[name] = metric
        elif not isinstance(metric, Counter):
            raise ValueError(f"metric {name!r} exists and is not a Counter")
        return metric

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get or create the named histogram."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(bounds, name=name)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(f"metric {name!r} exists and is not a Histogram")
        return metric

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def items(self):
        """(name, metric) pairs, insertion-ordered."""
        return self._metrics.items()

    def to_dict(self) -> Dict[str, object]:
        """Plain-data snapshot of every metric."""
        out: Dict[str, object] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                out[name] = metric.value
            else:
                out[name] = metric.to_dict()
        return out

    def to_text(self) -> str:
        """Human-readable one-line-per-metric summary."""
        lines = []
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                lines.append(f"{name}: {metric.value}")
            else:
                if metric.count:
                    lines.append(
                        f"{name}: n={metric.count} mean={metric.mean:.3f} "
                        f"p50={metric.p50:.3f} p95={metric.p95:.3f} "
                        f"p99={metric.p99:.3f} max={metric.max:.3f}"
                    )
                else:
                    lines.append(f"{name}: n=0")
        return "\n".join(lines)
