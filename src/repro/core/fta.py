"""Fault-tolerant average and alternative aggregation functions.

The FTA of Kopetz & Ochsenreiter (1987): sort the clock readings, discard
the ``f`` smallest and ``f`` largest, average the rest. With N = 4 domains
and f = 1 this is the mean of the two middle offsets — a single arbitrarily
faulty (Byzantine) grandmaster can shift the aggregate by at most the spread
of the correct readings.

``mean_aggregate`` and ``median_aggregate`` exist for the ablation
benchmarks (plain averaging has *no* Byzantine tolerance; the median is the
degenerate FTA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro._compat import SLOTTED


@dataclass(**SLOTTED)
class AggregationResult:
    """Outcome of one aggregation.

    A value object: treat as immutable. One is created per aggregation
    gate on the hot path, so it is not frozen (frozen construction is ~4×
    more expensive).

    Attributes
    ----------
    value:
        The aggregate, ns.
    used:
        The sorted readings that entered the average.
    dropped_low, dropped_high:
        The discarded extremes.
    """

    value: float
    used: Tuple[float, ...]
    dropped_low: Tuple[float, ...]
    dropped_high: Tuple[float, ...]


def _contained_mean(ordered: Tuple[float, ...]) -> float:
    """Mean of sorted readings, kept inside ``[ordered[0], ordered[-1]]``.

    Float rounding can leave ``sum / len`` outside the readings it
    averages: three copies of ``699051.5243092796`` average to
    ``699051.5243092797``. The clamp changes nothing otherwise.
    """
    value = sum(ordered) / len(ordered)
    if value < ordered[0]:
        return ordered[0]
    if value > ordered[-1]:
        return ordered[-1]
    return value


def fault_tolerant_average(values: Sequence[float], f: int) -> AggregationResult:
    """Kopetz–Ochsenreiter FTA: drop ``f`` extremes each side, average.

    When fewer than ``2f + 1`` readings are available (grandmasters failed
    silent and were excluded upstream), the drop count degrades gracefully to
    ``(len - 1) // 2`` per side at most, so one reading always survives:

    >>> fault_tolerant_average([0.0, 10.0, 20.0, 1000.0], f=1).value
    15.0
    >>> fault_tolerant_average([5.0, 7.0, 9.0], f=1).value
    7.0
    >>> fault_tolerant_average([5.0, 7.0], f=1).value
    6.0
    """
    if f < 0:
        raise ValueError(f"f must be nonnegative, got {f}")
    if not values:
        raise ValueError("cannot aggregate zero readings")
    ordered = sorted(values)
    drop = min(f, (len(ordered) - 1) // 2)
    used = tuple(ordered[drop: len(ordered) - drop])
    return AggregationResult(
        _contained_mean(used),
        used,
        tuple(ordered[:drop]),
        tuple(ordered[len(ordered) - drop:]),
    )


def fault_tolerant_midpoint(values: Sequence[float], f: int) -> AggregationResult:
    """FTM variant: midpoint of the extremes after dropping ``f`` per side.

    Used by TTP/TTEthernet-style compression masters; included for the
    ablation study.
    """
    if f < 0:
        raise ValueError(f"f must be nonnegative, got {f}")
    if not values:
        raise ValueError("cannot aggregate zero readings")
    ordered = sorted(values)
    drop = min(f, (len(ordered) - 1) // 2)
    used = tuple(ordered[drop: len(ordered) - drop])
    return AggregationResult(
        value=(used[0] + used[-1]) / 2.0,
        used=used,
        dropped_low=tuple(ordered[:drop]),
        dropped_high=tuple(ordered[len(ordered) - drop:]),
    )


def mean_aggregate(values: Sequence[float], f: int = 0) -> AggregationResult:
    """Plain mean — the no-fault-tolerance baseline (``f`` ignored)."""
    if not values:
        raise ValueError("cannot aggregate zero readings")
    ordered = tuple(sorted(values))
    return AggregationResult(
        value=_contained_mean(ordered),
        used=ordered,
        dropped_low=(),
        dropped_high=(),
    )


def median_aggregate(values: Sequence[float], f: int = 0) -> AggregationResult:
    """Median — maximal trimming (``f`` ignored)."""
    if not values:
        raise ValueError("cannot aggregate zero readings")
    ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        mid = (ordered[n // 2],)
    else:
        mid = (ordered[n // 2 - 1], ordered[n // 2])
    return AggregationResult(
        value=sum(mid) / len(mid),
        used=tuple(mid),
        dropped_low=tuple(ordered[: (n - len(mid)) // 2]),
        dropped_high=tuple(ordered[(n + len(mid)) // 2:]),
    )


#: Registry used by the ablation benchmarks and experiment configs.
AGGREGATORS = {
    "fta": fault_tolerant_average,
    "ftm": fault_tolerant_midpoint,
    "mean": mean_aggregate,
    "median": median_aggregate,
}
