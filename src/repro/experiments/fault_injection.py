"""The fault injection experiment (§III-C, Fig. 4a/4b and Fig. 5).

A long continuous run under the paper's fault schedule: rotating fail-silent
grandmaster shutdowns, random fail-silent redundant VM shutdowns (never both
VMs of a node at once), plus calibrated transient software faults
(tx-timestamp timeouts, launch deadline misses). Expected outcome: the
measured precision Π* never exceeds Π + γ — every fault is masked by the
FTA (GM failures) or the dependent-clock takeover (active VM failures).

The result carries everything the paper's figures show: the 120 s
avg/min/max series (Fig. 4a), the value distribution (Fig. 4b), the worst
interval with an event timeline around it (Fig. 5), the fault counts, and
the derived bounds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.aggregate import AggregateBucket, aggregate_series
from repro.analysis.histogram import HistogramResult, histogram
from repro.analysis.timeline import EventTimeline, extract_timeline
from repro.faults.injector import FaultInjectionConfig
from repro.faults.transient import TransientFaultPlan, calibrate_transients
from repro.measurement.bounds import ExperimentBounds
from repro.measurement.precision import PrecisionRecord
from repro.monitoring.invariants import InvariantSpec, Verdict
from repro.sim.timebase import HOURS, MINUTES, SECONDS, format_hms
from repro.experiments.monitored import run_monitored
from repro.experiments.testbed import TestbedConfig
from repro.scenarios import ScenarioSpec


@dataclass(frozen=True)
class FaultInjectionExperimentConfig:
    """Parameters of the §III-C run.

    ``duration`` defaults to the paper's 24 h; CI-scale runs pass fewer
    hours and (optionally) a compressed injector schedule. Transient-fault
    probabilities stay duration-independent (they are per-event), so counts
    scale linearly with duration as in the paper.
    """

    duration: int = 24 * HOURS
    seed: int = 1
    injector: FaultInjectionConfig = FaultInjectionConfig()
    transients: Optional[TransientFaultPlan] = None  # None → paper calibration
    aggregate_bucket: int = 120 * SECONDS
    timeline_window: int = 1 * HOURS
    #: Optional scenario the testbed is built from (None → paper mesh4).
    scenario: Optional[ScenarioSpec] = None
    #: Online invariant monitor configuration (always attached; the
    #: monitor is draw-free and state-free, so it never perturbs results).
    invariants: InvariantSpec = InvariantSpec()

    def for_hours(
        self, hours: float, compress: bool = False
    ) -> "FaultInjectionExperimentConfig":
        """A run of ``hours`` simulated hours.

        With ``compress`` the fault schedule is compressed into them
        (:meth:`scaled`); without, the paper's schedule runs that long.
        """
        if compress:
            return self.scaled(hours)
        return dataclasses.replace(self, duration=round(hours * HOURS))

    def scaled(self, hours: float) -> "FaultInjectionExperimentConfig":
        """A shorter run with the fault schedule compressed to match.

        The compressed schedule keeps the *per-run* number of faults in the
        same proportion so short runs still exercise GM failures, takeovers
        and re-integrations.
        """
        factor = hours / 24.0
        duration = round(24 * HOURS * factor)
        # Denser than the paper, but never beyond the paper's own per-node
        # cap of 12 random failures per hour with 5-minute gaps — beyond
        # that the "sibling is a valid backup" precondition of the fail-
        # silent hypothesis stops holding and skips dominate.
        injector = dataclasses.replace(
            self.injector,
            gm_shutdown_period=max(
                3 * MINUTES, round(self.injector.gm_shutdown_period * factor)
            ),
            redundant_rate_per_hour=min(
                12.0, self.injector.redundant_rate_per_hour / factor
            ),
            initial_delay=max(MINUTES, round(self.injector.initial_delay * factor)),
        )
        return dataclasses.replace(
            self,
            duration=duration,
            injector=injector,
            aggregate_bucket=max(10 * SECONDS, round(self.aggregate_bucket * factor)),
            timeline_window=max(5 * MINUTES, round(self.timeline_window * factor)),
        )


@dataclass
class FaultInjectionResult:
    """Everything Figs. 4–5 and the §III-C text report."""

    config: FaultInjectionExperimentConfig
    bounds: ExperimentBounds
    records: List[PrecisionRecord]
    buckets: List[AggregateBucket]
    distribution: HistogramResult
    timeline: EventTimeline
    injections: Dict[str, int]
    takeovers: int
    tx_timeouts: int
    deadline_misses: int
    violations: int
    max_precision: float
    max_precision_at: int
    verdict: Verdict = field(default_factory=Verdict)

    @property
    def bounded(self) -> bool:
        """The §III-C claim: Π* stays within Π + γ throughout."""
        return self.violations == 0

    def to_text(self) -> str:
        """Paper-style summary block."""
        boot = self.config
        lines = [
            f"fault injection experiment, {boot.duration / HOURS:.2f} h",
            self.bounds.describe(),
            f"precision: avg={self.distribution.mean:.0f}ns "
            f"std={self.distribution.std:.0f}ns min={self.distribution.minimum:.0f}ns "
            f"max={self.distribution.maximum:.0f}ns over {self.distribution.n} probes",
            f"max Π* = {self.max_precision:.0f}ns at {format_hms(self.max_precision_at)} "
            f"({'within' if self.bounded else 'VIOLATES'} Π+γ="
            f"{self.bounds.bound_with_error:.0f}ns; {self.violations} violations)",
            f"fail-silent injections: {self.injections['fail_silent_total']} "
            f"({self.injections['gm_failures']} grandmaster, "
            f"{self.injections['redundant_failures']} redundant, "
            f"{self.injections['skipped']} skipped)",
            f"takeovers: {self.takeovers}",
            f"transient faults: {self.tx_timeouts} tx-timestamp timeouts, "
            f"{self.deadline_misses} deadline misses",
            self.verdict.describe(),
        ]
        return "\n".join(lines)


def run_fault_injection_experiment(
    config: Optional[FaultInjectionExperimentConfig] = None,
    testbed_config: Optional[TestbedConfig] = None,
    metrics=None,
) -> FaultInjectionResult:
    """Run §III-C end to end.

    The testbed comes from ``testbed_config`` when given, else from
    ``config.scenario``, else from the paper's mesh4 defaults. A scenario
    without its own fault plan still gets the paper-calibrated transient
    pressure — this is the fault-injection experiment. The monitor grades
    with ``config.scenario``'s f, and rejects a ``testbed_config`` that
    aggregates with another.

    ``metrics`` (an optional :class:`repro.metrics.MetricsRegistry`)
    enables in-sim instrumentation for the run plus per-run wall-time and
    event-throughput series; it never alters the simulation itself.
    """
    config = config if config is not None else FaultInjectionExperimentConfig()
    transients = config.transients or calibrate_transients()
    if testbed_config is not None:
        tb_config = testbed_config
    elif config.scenario is not None:
        tb_config = config.scenario.testbed_config(seed=config.seed)
        if tb_config.transients is None:
            tb_config = dataclasses.replace(tb_config, transients=transients)
    else:
        tb_config = TestbedConfig(
            seed=config.seed,
            kernel_policy="diverse",
            transients=transients,
        )
    testbed, monitor, injector = run_monitored(
        tb_config,
        config.duration,
        invariants=config.invariants,
        f=config.scenario.f if config.scenario is not None else None,
        injector=config.injector,
        metrics=metrics,
    )
    bounds = testbed.derive_bounds()
    records = list(testbed.series.records)
    precisions = [r.precision for r in records]
    dist = histogram(precisions) if precisions else histogram([0.0])
    worst = testbed.series.max_record()
    max_at = worst.time if worst else 0
    half_window = config.timeline_window // 2
    window_start = max(0, max_at - half_window)
    timeline = extract_timeline(
        testbed.trace,
        start=window_start,
        end=min(config.duration, window_start + config.timeline_window),
        gm_domain_of=testbed.gm_domain_of(),
    )
    return FaultInjectionResult(
        config=config,
        bounds=bounds,
        records=records,
        buckets=aggregate_series(testbed.series.series(), config.aggregate_bucket),
        distribution=dist,
        timeline=timeline,
        injections=injector.summary(),
        takeovers=testbed.trace.count(category="hypervisor.takeover"),
        tx_timeouts=testbed.trace.count(category="ptp4l.tx_timeout"),
        deadline_misses=testbed.trace.count(category="ptp4l.deadline_miss"),
        violations=len(testbed.series.violations(bounds.bound_with_error)),
        max_precision=worst.precision if worst else 0.0,
        max_precision_at=max_at,
        verdict=monitor.verdict(),
    )
