"""The cyber-resilience experiment (§III-B, Fig. 3a / Fig. 3b).

An attacker with user credentials on two virtual grandmasters runs the
CVE-2018-18955 root exploit against ``c4_1`` at 00:21:42 h and ``c1_1`` at
00:31:52 h, replacing compromised GMs' ptp4l with malicious instances that
shift preciseOriginTimestamp by −24 µs.

* **Identical kernels** (Fig. 3a): both exploits succeed. The FTA masks the
  first Byzantine GM; the second breaks the f = 1 budget — the two malicious
  domains vouch for each other through the validity check, the aggregate is
  poisoned every interval, and the measured precision blows through
  Π = 2(E + Γ) and keeps growing.
* **Diverse kernels** (Fig. 3b): only ``c4_1`` runs the exploitable
  v4.19.1; the second exploit fails and the system stays masked, bounded by
  Π + γ for the whole hour.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.analysis.aggregate import AggregateBucket, aggregate_series
from repro.chaos.orchestrator import ExploitAttempt
from repro.chaos.plan import ChaosPlan, ChaosStage
from repro.measurement.bounds import ExperimentBounds
from repro.measurement.precision import PrecisionRecord
from repro.sim.timebase import (
    HOURS,
    MICROSECONDS,
    SECONDS,
    format_hms,
    parse_hms,
)
from repro.experiments.testbed import (
    Testbed,
    TestbedConfig,
    resolve_testbed_config,
)


@dataclass(frozen=True)
class CyberExperimentConfig:
    """Parameters of the §III-B run.

    Times follow the paper's runtime clock (``parse_hms`` accepts the
    paper's notation). ``duration`` defaults to the paper's 1 h; scaled-down
    runs shrink the attack times proportionally via ``scaled``.
    """

    kernel_policy: str = "identical"  # Fig. 3a; "diverse" gives Fig. 3b
    duration: int = 1 * HOURS
    first_attack: int = parse_hms("00:21:42")
    second_attack: int = parse_hms("00:31:52")
    first_target: str = "c4_1"
    second_target: str = "c1_1"
    origin_shift: int = -24 * MICROSECONDS
    seed: int = 1
    settle_margin: int = 60 * SECONDS  # skipped after each attack when judging windows

    def scaled(self, factor: float) -> "CyberExperimentConfig":
        """Proportionally compress the timeline (CI-scale runs)."""
        duration = round(self.duration * factor)
        return replace(
            self,
            duration=duration,
            first_attack=round(self.first_attack * factor),
            second_attack=round(self.second_attack * factor),
            settle_margin=min(self.settle_margin, duration // 20),
        )


@dataclass
class CyberResult:
    """Everything Fig. 3 plots plus the verdicts the paper draws."""

    config: CyberExperimentConfig
    bounds: ExperimentBounds
    records: List[PrecisionRecord]
    buckets: List[AggregateBucket]
    attempts: List[ExploitAttempt]
    max_before_attacks: float
    max_between_attacks: float
    max_after_second: float
    final_precision: float

    @property
    def first_attack_masked(self) -> bool:
        """Did the FTA hold the line between the two exploits?"""
        return self.max_between_attacks <= self.bounds.bound_with_error

    @property
    def second_attack_violates(self) -> bool:
        """Did the second exploit break the bound (expected iff identical)?"""
        return self.max_after_second > self.bounds.bound_with_error

    @property
    def compromised(self) -> List[str]:
        """Successfully exploited VMs."""
        return [a.target for a in self.attempts if a.succeeded]

    def to_text(self) -> str:
        """Paper-style summary."""
        lines = [
            f"cyber-resilience experiment ({self.config.kernel_policy} kernels)",
            self.bounds.describe(),
            f"exploits: "
            + ", ".join(
                f"{a.target}@{format_hms(a.time)}:"
                f"{'root' if a.succeeded else 'FAILED'}"
                for a in self.attempts
            ),
            f"max Π* before attacks:   {self.max_before_attacks:14.1f} ns",
            f"max Π* between attacks:  {self.max_between_attacks:14.1f} ns"
            f" ({'masked' if self.first_attack_masked else 'VIOLATION'})",
            f"max Π* after 2nd attack: {self.max_after_second:14.1f} ns"
            f" ({'VIOLATION' if self.second_attack_violates else 'bounded'})",
            f"final Π*:                {self.final_precision:14.1f} ns",
        ]
        return "\n".join(lines)


def run_cyber_experiment(
    config: Optional[CyberExperimentConfig] = None,
    testbed_config: Optional[TestbedConfig] = None,
    scenario=None,
) -> CyberResult:
    """Run §III-B end to end and evaluate the attack windows.

    ``scenario`` (a spec, registered name, or JSON path) supplies the
    testbed when ``testbed_config`` is not given; the experiment's
    ``kernel_policy`` knob overrides the scenario's, since identical-vs-
    diverse is the variable under test here. The two exploits are
    ``exploit`` stages merged onto the testbed's chaos plan.
    """
    config = config if config is not None else CyberExperimentConfig()
    if not config.first_attack < config.second_attack < config.duration:
        raise ValueError("attack times must be ordered and inside the run")
    exploits = ChaosPlan(name="cyber-exploits", stages=tuple(
        ChaosStage(at=at, action="exploit", victims=(target,),
                   shift=config.origin_shift)
        for at, target in ((config.first_attack, config.first_target),
                           (config.second_attack, config.second_target))
    ))
    testbed = Testbed((testbed_config or resolve_testbed_config(
        scenario, config.seed, kernel_policy=config.kernel_policy
    )).with_chaos(exploits))
    testbed.run_until(config.duration)

    bounds = testbed.derive_bounds()
    records = list(testbed.series.records)

    def window_max(start: int, end: int) -> float:
        values = [r.precision for r in records if start <= r.time < end]
        return max(values) if values else 0.0

    margin = config.settle_margin
    return CyberResult(
        config=config,
        bounds=bounds,
        records=records,
        buckets=aggregate_series(
            testbed.series.series(), bucket=max(config.duration // 30, SECONDS)
        ),
        attempts=list(testbed.chaos.exploits),
        max_before_attacks=window_max(0, config.first_attack),
        max_between_attacks=window_max(
            config.first_attack + margin, config.second_attack
        ),
        max_after_second=window_max(config.second_attack + margin, config.duration),
        final_precision=records[-1].precision if records else float("nan"),
    )
