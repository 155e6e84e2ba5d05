"""Metrics registry: counters and gauges for the hot path, and a histogram.

Design constraints, in order of importance:

1. **Zero cost when disabled.**  Hot-path call sites (``ec/kernels.py``,
   ``ec/threadpool.py``) guard on :func:`active`, which returns ``None``
   unless a registry has been installed.  The disabled path is a single
   module-attribute load and ``is None`` test -- no object allocation,
   no lock, no dict lookup.
2. **Thread safe when enabled.**  ``ThreadPoolEncoder`` workers
   increment counters concurrently with the thread that drives them;
   every mutation takes the owning metric's lock.
3. **Plain-data snapshots.**  ``MetricsRegistry.snapshot()`` returns
   JSON-serialisable dicts so traces and chaos reports can embed them.
"""

from __future__ import annotations

import random
import threading
import zlib
from typing import Dict, Optional


class Counter:
    """Monotonically increasing value (int or float)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Gauge:
    """Last-write-wins value; for cache sizes, hit rates, fractions."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Histogram:
    """Streaming summary plus a bounded reservoir for percentiles.

    count / sum / min / max stream exactly; p50/p95/p99 come from an
    Algorithm-R reservoir of :data:`RESERVOIR_SIZE` samples, so memory
    stays bounded no matter how many encode calls a campaign makes.  The
    reservoir's rng is *private* and seeded from the histogram name —
    observation never touches any global random stream (the PR-3
    tracing-changes-nothing guarantee), and the same observe sequence
    yields the same percentiles on every run (snapshots are embedded in
    deterministic campaign reports).
    """

    #: Reservoir capacity; below it, percentiles are exact.
    RESERVOIR_SIZE = 512

    __slots__ = (
        "name", "count", "sum", "min", "max", "_lock", "_reservoir", "_rng"
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()
        self._reservoir: list[float] = []
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if len(self._reservoir) < self.RESERVOIR_SIZE:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self.RESERVOIR_SIZE:
                    self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile from the reservoir (None if empty)."""
        if not self._reservoir:
            return None
        ordered = sorted(self._reservoir)
        rank = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
        return ordered[rank]

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "mean": self.mean,
                "p50": self.percentile(50),
                "p95": self.percentile(95),
                "p99": self.percentile(99),
            }


class MetricsRegistry:
    """Named metric store; metrics are created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            return {
                "counters": {n: m.snapshot() for n, m in self._counters.items()},
                "gauges": {n: m.snapshot() for n, m in self._gauges.items()},
            }


# ---------------------------------------------------------------------------
# Active-registry guard for hot paths.
#
# ``active()`` is the only thing kernel-level code should call: it is None
# unless tracing/metrics collection was explicitly installed, so the
# default cost at every instrumented call site is one attribute load.
# ---------------------------------------------------------------------------

_ACTIVE: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The installed registry, or ``None`` when metrics are disabled."""
    return _ACTIVE


def _set_active(registry: Optional[MetricsRegistry]) -> None:
    global _ACTIVE
    _ACTIVE = registry
