"""Baselines the paper argues against.

* **Single-domain gPTP** (plain IEEE 802.1AS, no FTA): one GM; a Byzantine
  or fail-silent GM takes the whole network's synchronization with it. This
  is what IEEE 802.1AS gives out of the box and the architecture's
  motivation.
* **Client-only multi-domain aggregation** (Kyriakakis et al.): slaves
  aggregate M domains with the FTA, but the GM clocks themselves do *not*
  aggregate — they free-run. Without a shared time source the GM clocks
  drift apart unboundedly, the FTA's input spread grows, and the
  Byzantine-tolerance argument collapses in real deployments (§I). The
  paper's architecture closes exactly this gap by disciplining every GM
  toward the FTA of all domains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.chaos.plan import ChaosPlan, ChaosStage
from repro.core.aggregator import AggregatorConfig
from repro.measurement.bounds import ExperimentBounds
from repro.sim.timebase import MICROSECONDS, MINUTES, SECONDS
from repro.experiments.testbed import Testbed, resolve_testbed_config


@dataclass
class BaselineResult:
    """Common result shape for the baseline arms."""

    label: str
    bounds: Optional[ExperimentBounds]
    precisions: List[Tuple[int, float]]
    gm_spread_series: List[Tuple[int, float]]
    max_precision: float
    final_gm_spread: float

    def to_text(self) -> str:
        """One-block summary."""
        lines = [
            f"baseline: {self.label}",
            f"max Π* = {self.max_precision:.1f} ns",
            f"final GM clock spread = {self.final_gm_spread:.1f} ns",
        ]
        if self.bounds is not None:
            lines.insert(1, self.bounds.describe())
        return "\n".join(lines)


def _collect(testbed: Testbed, duration: int, spread_samples: int = 60) -> BaselineResult:
    """Run a built testbed, sampling the GM clock spread along the way."""
    spread_series: List[Tuple[int, float]] = []
    step = max(duration // spread_samples, SECONDS)
    t = step
    while t <= duration:
        testbed.run_until(t)
        spread_series.append((t, testbed.gm_clock_spread()))
        t += step
    precisions = testbed.series.series()
    return BaselineResult(
        label="",
        bounds=None,
        precisions=precisions,
        gm_spread_series=spread_series,
        max_precision=max((p for _, p in precisions), default=0.0),
        final_gm_spread=spread_series[-1][1] if spread_series else 0.0,
    )


def run_single_domain_baseline(
    duration: int = 10 * MINUTES,
    seed: int = 1,
    gm_fails_at: Optional[int] = None,
    byzantine_at: Optional[int] = None,
    origin_shift: int = -24 * MICROSECONDS,
    scenario=None,
) -> BaselineResult:
    """Plain single-domain 802.1AS, optionally with a failing/Byzantine GM.

    With ``n_domains=1`` there is nothing to aggregate: f must be 0 and the
    single GM is a single point of failure, which is the point. A
    ``scenario`` supplies the network shape; its M and f are overridden by
    the single-domain premise. The GM kill is a ``vm_stop`` stage and the
    Byzantine turn an ``exploit`` stage of the testbed's chaos plan.
    """
    config = replace(
        resolve_testbed_config(scenario, seed),
        n_domains=1,
        aggregator=AggregatorConfig(
            domains=(1,), f=0, initial_domain=1, startup_confirmations=4
        ),
    )
    stages = []
    if gm_fails_at is not None:
        stages.append(ChaosStage(at=gm_fails_at, action="vm_stop",
                                 victims=("c1_1",), label="baseline-gm-kill"))
    if byzantine_at is not None:
        stages.append(ChaosStage(at=byzantine_at, action="exploit",
                                 victims=("c1_1",), shift=origin_shift))
    if stages:
        config = config.with_chaos(
            ChaosPlan(name="single-domain-baseline", stages=tuple(stages))
        )
    testbed = Testbed(config)
    result = _collect(testbed, duration)
    result.label = "single-domain 802.1AS (no FTA)"
    result.bounds = testbed.derive_bounds()
    return result


def run_client_only_baseline(
    duration: int = 10 * MINUTES, seed: int = 1, scenario=None
) -> BaselineResult:
    """Kyriakakis-style: clients aggregate, GMs free-run.

    The GM clock spread grows with oscillator drift instead of staying
    within Π — compare against :func:`run_full_architecture` over the same
    duration.
    """
    testbed = Testbed(
        replace(resolve_testbed_config(scenario, seed), aggregate_on_gms=False)
    )
    result = _collect(testbed, duration)
    result.label = "client-only aggregation (free-running GMs)"
    result.bounds = testbed.derive_bounds()
    return result


def run_full_architecture(
    duration: int = 10 * MINUTES, seed: int = 1, scenario=None
) -> BaselineResult:
    """The paper's architecture, for side-by-side comparison."""
    testbed = Testbed(resolve_testbed_config(scenario, seed))
    result = _collect(testbed, duration)
    result.label = "multi-domain FTA (this paper)"
    result.bounds = testbed.derive_bounds()
    return result
