"""Low-overhead run-wide metrics instruments.

The registry is the observability counterpart of :class:`~repro.sim.trace.
TraceLog`: components accept an optional registry at construction, cache the
instruments they need, and guard every emission with ``if self._metrics is
not None`` — so the disabled path (the default everywhere) costs one
attribute load and a ``None`` comparison, allocates nothing, and never
touches simulation or RNG state. Metrics are *derived* observations only;
attaching a registry must leave traces byte-identical.

Three instrument kinds cover the paper's quantities of interest:

* :class:`Counter` — monotone event counts (gate fires, servo clamps,
  takeovers, FTA drops).
* :class:`Gauge` — last-value-wins scalars (queue high-water mark, cache
  hit rate, events/s).
* :class:`Histogram` — fixed-bucket nanosecond distributions (offset
  error, gate latency, failover latency, servo frequency). Buckets are
  precomputed upper bounds; recording is a ``bisect`` plus one list
  increment, with running n/sum/min/max so means survive coarse buckets.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence


def default_ns_buckets() -> List[float]:
    """1-2-5 per decade from 1 ns to 1e9 ns — wide enough for offsets,
    gate latencies, and failover latencies alike."""
    edges: List[float] = []
    for decade in range(10):  # 1 ns .. 1e9 ns
        for mantissa in (1, 2, 5):
            edges.append(mantissa * 10.0 ** decade)
    return edges


#: Buckets for signed parts-per-billion values (servo frequency).
PPB_BUCKETS = [
    -1e6, -1e5, -1e4, -1e3, -100.0, -10.0, 0.0,
    10.0, 100.0, 1e3, 1e4, 1e5, 1e6,
]

#: Buckets for wall-clock seconds (1-2-5 over eight decades).
WALL_S_BUCKETS = [
    m * 10.0 ** d for d in range(-3, 5) for m in (1, 2, 5)
]


class Counter:
    """A monotone event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-value-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def max(self, value: float) -> None:
        """High-water-mark update."""
        if self.value is None or value > self.value:
            self.value = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with running summary statistics.

    ``edges`` are sorted inclusive upper bounds; one overflow bucket
    catches everything beyond the last edge. Bucket layout is fixed at
    construction so :meth:`observe` never allocates.
    """

    __slots__ = ("name", "edges", "counts", "n", "sum", "min", "max")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        ordered = list(edges)
        if ordered != sorted(ordered):
            raise ValueError("bucket edges must be sorted ascending")
        self.name = name
        self.edges = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.n = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.n += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.n if self.n else None

    def quantile(self, q: float) -> Optional[float]:
        """Approximate quantile: the upper edge of the bucket holding the
        q-th observation (the overflow bucket reports the observed max)."""
        if not self.n:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * (self.n - 1)
        cumulative = 0
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative > rank:
                return self.edges[i] if i < len(self.edges) else self.max
        return self.max

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "n": self.n,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "edges": list(self.edges),
            "counts": list(self.counts),
        }


class MetricsRegistry:
    """Get-or-create registry for one run's instruments.

    Instruments are keyed by dotted name (``aggregator.gate_fires``);
    re-requesting a name returns the existing instrument, so independent
    components can share a series without coordination.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            c = self.counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        try:
            return self.gauges[name]
        except KeyError:
            g = self.gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str, edges: Optional[Sequence[float]] = None) -> Histogram:
        try:
            return self.histograms[name]
        except KeyError:
            h = self.histograms[name] = Histogram(
                name, default_ns_buckets() if edges is None else edges
            )
            return h

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument, ready for JSON."""
        out: Dict[str, dict] = {}
        for name, counter in sorted(self.counters.items()):
            out[name] = counter.snapshot()
        for name, gauge in sorted(self.gauges.items()):
            out[name] = gauge.snapshot()
        for name, histogram in sorted(self.histograms.items()):
            out[name] = histogram.snapshot()
        return out

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )
