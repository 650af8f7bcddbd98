"""Measurement collectors used by every benchmark harness.

The paper reports latencies (ns/us), bandwidths (Gbps / GBps), operation
rates (Mops/s) and speedups. These collectors accumulate raw samples during
a simulation and expose the derived quantities with explicit units, so each
bench prints rows in the same units the paper uses.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = ["LatencyStat", "ThroughputMeter", "Counter"]


class LatencyStat:
    """Streaming latency statistics (ns): count/mean/min/max/percentiles.

    Samples are kept (the evaluation sweeps are small) so percentiles are
    exact rather than approximated.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []

    def record(self, value: float) -> None:
        """Add one latency sample (ns)."""
        if value < 0:
            raise ValueError(f"negative latency sample: {value}")
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    @property
    def stddev(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    def percentile(self, pct: float) -> float:
        """Exact percentile via linear interpolation (pct in [0, 100])."""
        if not self.samples:
            return 0.0
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (pct / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def mean_us(self) -> float:
        """Mean latency in microseconds (paper's unit for Figs 7c/8)."""
        return self.mean / 1000.0

    def summary(self) -> Dict[str, float]:
        """The headline statistics as a dict (for reports)."""
        return {
            "count": self.count,
            "mean_ns": self.mean,
            "min_ns": self.minimum,
            "p50_ns": self.p50,
            "p99_ns": self.p99,
            "max_ns": self.maximum,
        }


class ThroughputMeter:
    """Accumulates (bytes, ops) over a measured simulated interval.

    ``start``/``stop`` bracket the measurement window; the derived rates
    use only the bracketed interval so warm-up traffic can be excluded.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.bytes_total = 0
        self.ops_total = 0
        self._start: Optional[float] = None
        self._stop: Optional[float] = None

    def start(self, now: float) -> None:
        """Open the measurement window at simulated time ``now``."""
        self._start = now
        self.bytes_total = 0
        self.ops_total = 0

    def stop(self, now: float) -> None:
        """Close the measurement window at simulated time ``now``."""
        self._stop = now

    def record(self, nbytes: int, ops: int = 1) -> None:
        """Account ``nbytes`` transferred across ``ops`` operations."""
        self.bytes_total += nbytes
        self.ops_total += ops

    @property
    def elapsed_ns(self) -> float:
        if self._start is None or self._stop is None:
            return 0.0
        return max(self._stop - self._start, 0.0)

    def bytes_per_ns(self) -> float:
        """Raw rate over the bracketed window (== GB/s)."""
        dt = self.elapsed_ns
        return self.bytes_total / dt if dt > 0 else 0.0

    def gbps(self) -> float:
        """Bandwidth in gigabits per second (paper's unit for Figs 1/7b/8b)."""
        return self.bytes_per_ns() * 8.0

    def gbytes_per_sec(self) -> float:
        """Bandwidth in GB/s (paper quotes 9.6 GBps for DDR3-1600)."""
        return self.bytes_per_ns()

    def mops(self) -> float:
        """Operation rate in millions of operations per second."""
        dt = self.elapsed_ns
        return (self.ops_total / dt) * 1e3 if dt > 0 else 0.0


class Counter:
    """Named integer counters (cache hits/misses, packets, stalls...)."""

    def __init__(self):
        self._counts: Dict[str, int] = {}

    def incr(self, key: str, amount: int = 1) -> None:
        """Increment counter ``key`` by ``amount``."""
        self._counts[key] = self._counts.get(key, 0) + amount

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._counts)

    def ratio(self, numerator: str, denominator: str) -> float:
        """numerator/denominator counters (0.0 when denominator is 0)."""
        denom = self._counts.get(denominator, 0)
        return self._counts.get(numerator, 0) / denom if denom else 0.0
