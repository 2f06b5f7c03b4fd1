"""The chaos experiment: run a scenario under a declarative chaos plan.

Where the fault-injection experiment (§III-C) exercises the *modelled*
fault hypothesis — fail-silent VM shutdowns plus calibrated transient
software faults — the chaos experiment degrades the network itself:
packet loss (random or bursty), duplication, reordering, delay asymmetry,
congestion, link flaps, and steered attacks, all scheduled by a
:class:`repro.chaos.plan.ChaosPlan`. The online invariant monitor watches
the run and the result carries its verdict: PASS when every safety
property held, DEGRADED when resilience margin was consumed (domains
knocked out, slow failovers) but the synctime bound still held, FAIL when
the bound itself broke.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

# A run under a plan always builds an orchestrator (in ``Testbed``), so it
# loads with this module rather than inside the first run.
import repro.chaos.orchestrator  # noqa: F401
from repro.chaos.plan import ChaosPlan, merge_plans
from repro.faults.injector import FaultInjectionConfig
from repro.security.campaigns import AttackCampaign
from repro.measurement.bounds import ExperimentBounds
from repro.monitoring.invariants import (
    InvariantSpec,
    InvariantViolation,
    Verdict,
)
from repro.parallel import config_fingerprint
from repro.scenarios import ScenarioSpec
from repro.sim.timebase import MINUTES, SECONDS, format_hms
from repro.studies.core import Job, Study, StudyPlan
# Also loads the study runner with this module, so a spec-driven chaos
# study does not pay for that import inside its first run.
from repro.studies.runner import StudyRun
from repro.experiments.monitored import run_monitored
from repro.experiments.testbed import resolve_testbed_config


@dataclass(frozen=True)
class ChaosExperimentConfig:
    """Parameters of one chaos run."""

    duration: int = 8 * MINUTES
    seed: int = 1
    #: Scenario the testbed is built from (None → paper mesh4).
    scenario: Optional[ScenarioSpec] = None
    #: Chaos plan; overrides the scenario's own plan when both are set.
    plan: Optional[ChaosPlan] = None
    #: Adversary campaign, compiled and merged onto the resolved plan; a
    #: config-level campaign overrides the scenario's own.
    campaign: Optional[AttackCampaign] = None
    invariants: InvariantSpec = InvariantSpec()
    #: Optional fail-silent fault pressure on top of the chaos (None → no
    #: injector; chaos-only runs isolate the network degradation).
    injector: Optional[FaultInjectionConfig] = None
    #: Execution tier: "full" (byte-identical event-level default) or
    #: "adaptive" (analytic fast-forward through locked quiescence — see
    #: :mod:`repro.experiments.fidelity`).
    fidelity: str = "full"

    def resolved_plan(self) -> Optional[ChaosPlan]:
        if self.plan is not None:
            plan = self.plan
        elif self.scenario is not None:
            plan = self.scenario.chaos_plan
        else:
            plan = None
        campaign = self.campaign
        if campaign is None and self.scenario is not None:
            campaign = self.scenario.attack_campaign
        if campaign is not None:
            compiled = campaign.compile()
            plan = compiled if plan is None else merge_plans(plan, compiled)
        return plan


@dataclass
class ChaosResult:
    """Outcome of one chaos run, centred on the monitor's verdict."""

    config: ChaosExperimentConfig
    bounds: ExperimentBounds
    verdict: Verdict
    violations: List[InvariantViolation]
    chaos_summary: Dict[str, object]
    link_stats: Dict[str, Dict[str, int]]
    probes: int
    mean_precision: float
    max_precision: float
    max_precision_at: int
    bound_violations: int
    injections: Dict[str, int] = field(default_factory=dict)
    #: Fast-forward statistics; empty for full-fidelity runs.
    fastforward: Dict[str, int] = field(default_factory=dict)

    @property
    def bounded(self) -> bool:
        return self.bound_violations == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "plan": self.chaos_summary.get("plan"),
            "verdict": self.verdict.to_dict(),
            "violations": [v.to_dict() for v in self.violations],
            "chaos": dict(self.chaos_summary),
            "links": {k: dict(v) for k, v in self.link_stats.items()},
            "probes": self.probes,
            "mean_precision_ns": self.mean_precision,
            "max_precision_ns": self.max_precision,
            "bound_ns": self.bounds.bound_with_error,
            "bound_violations": self.bound_violations,
            "injections": dict(self.injections),
            # Present only on adaptive-fidelity runs so full-fidelity
            # result documents (and their hashes) stay unchanged.
            **(
                {"fastforward": dict(self.fastforward)}
                if self.fastforward else {}
            ),
        }

    def to_text(self) -> str:
        cs = self.chaos_summary
        lines = [
            f"chaos experiment, {self.config.duration / SECONDS:.0f} s, "
            f"plan {cs.get('plan', '-')!s}",
            self.bounds.describe(),
            f"precision: avg={self.mean_precision:.0f}ns "
            f"max={self.max_precision:.0f}ns at "
            f"{format_hms(self.max_precision_at)} over {self.probes} probes "
            f"({'within' if self.bounded else 'VIOLATES'} "
            f"Π+γ={self.bounds.bound_with_error:.0f}ns; "
            f"{self.bound_violations} violations)",
            f"chaos: {cs.get('stages_executed', 0)} stages, "
            f"{cs.get('links_impaired', 0)} links impaired, "
            f"{cs.get('dropped', 0)} dropped / {cs.get('duplicated', 0)} "
            f"duplicated / {cs.get('reordered', 0)} reordered of "
            f"{cs.get('seen', 0)} packets",
        ]
        if self.injections:
            lines.append(
                f"fail-silent injections: {self.injections.get('fail_silent_total', 0)}"
            )
        for name, stats in sorted(self.link_stats.items()):
            if stats["seen"]:
                lines.append(
                    f"  {name}: {stats['dropped']}/{stats['seen']} dropped "
                    f"({100.0 * stats['dropped'] / stats['seen']:.1f}%)"
                )
        lines.append(self.verdict.describe())
        if self.verdict.counts:
            per_inv = ", ".join(
                f"{k}={v}" for k, v in sorted(self.verdict.counts.items())
            )
            lines.append(f"violation episodes: {per_inv}")
        transitions = self.verdict.timeline
        if len(transitions) > 1:
            lines.append(
                "status timeline: "
                + " -> ".join(
                    f"{s}@{format_hms(t)}" for t, s in transitions
                )
            )
        return "\n".join(lines)


def run_chaos_experiment(
    config: Optional[ChaosExperimentConfig] = None,
    metrics=None,
) -> ChaosResult:
    """Run one scenario under its chaos plan with the monitor attached."""
    config = config if config is not None else ChaosExperimentConfig()
    tb_config = resolve_testbed_config(config.scenario, config.seed)
    plan = config.resolved_plan()
    if plan is not None and tb_config.chaos is not plan:
        tb_config = dataclasses.replace(tb_config, chaos=plan)
    testbed, monitor, injector = run_monitored(
        tb_config,
        config.duration,
        invariants=config.invariants,
        f=config.scenario.f if config.scenario is not None else None,
        injector=config.injector,
        metrics=metrics,
        fidelity=config.fidelity,
    )
    bounds = testbed.derive_bounds()
    precisions = [r.precision for r in testbed.series.records]
    worst = testbed.series.max_record()
    chaos = testbed.chaos
    return ChaosResult(
        config=config,
        bounds=bounds,
        verdict=monitor.verdict(),
        violations=list(monitor.violations),
        chaos_summary=chaos.summary() if chaos is not None else {},
        link_stats=chaos.link_stats() if chaos is not None else {},
        probes=len(precisions),
        mean_precision=sum(precisions) / len(precisions) if precisions else 0.0,
        max_precision=worst.precision if worst else 0.0,
        max_precision_at=worst.time if worst else 0,
        bound_violations=len(
            testbed.series.violations(bounds.bound_with_error)
        ),
        injections=injector.summary() if injector is not None else {},
        fastforward=testbed.fastforward_summary(),
    )


# ----------------------------------------------------------------------
# Multi-arm chaos studies on the submit → schedule → collect pipeline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosArmRow:
    """Compact, JSON-round-trippable summary of one chaos arm.

    A full :class:`ChaosResult` holds live objects (monitor verdict,
    violation records, the config itself) and is too heavy for the
    content-addressed job-result store; a study arm keeps the headline
    figures plus a ``digest`` of the arm's canonical result document, so
    two runs of the same arm can still be compared byte-for-byte without
    storing the document.
    """

    label: str
    seed: int
    verdict: str
    probes: int
    mean_precision_ns: float
    max_precision_ns: float
    bound_ns: float
    bound_violations: int
    #: SHA-256 of ``json.dumps(result.to_dict(), sort_keys=True,
    #: default=repr)`` — byte-level provenance of the full document.
    digest: str

    @property
    def bounded(self) -> bool:
        return self.bound_violations == 0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (keys match field names so cached rows
        rehydrate via ``ChaosArmRow(**d)``)."""
        return {
            "label": self.label,
            "seed": self.seed,
            "verdict": self.verdict,
            "probes": self.probes,
            "mean_precision_ns": self.mean_precision_ns,
            "max_precision_ns": self.max_precision_ns,
            "bound_ns": self.bound_ns,
            "bound_violations": self.bound_violations,
            "digest": self.digest,
        }


def result_digest(result: ChaosResult) -> str:
    """Canonical SHA-256 of a chaos result document."""
    doc = json.dumps(result.to_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _run_chaos_job(
    config: ChaosExperimentConfig, label: str, metrics=None
) -> ChaosArmRow:
    """Job body: one chaos arm, compressed to a :class:`ChaosArmRow`.

    Module-level (picklable) so it survives the ``spawn`` start method;
    only the compact row crosses the process boundary.
    """
    result = run_chaos_experiment(config, metrics=metrics)
    return ChaosArmRow(
        label=label,
        seed=config.seed,
        verdict=result.verdict.status,
        probes=result.probes,
        mean_precision_ns=result.mean_precision,
        max_precision_ns=result.max_precision,
        bound_ns=result.bounds.bound_with_error,
        bound_violations=result.bound_violations,
        digest=result_digest(result),
    )


def _chaos_cache_key(config: ChaosExperimentConfig) -> str:
    return config_fingerprint("chaos-study", config)


def _summarize_chaos_row(row: "ChaosArmRow") -> Dict[str, object]:
    """Ledger/progress info line for one chaos arm."""
    return {
        "verdict": row.verdict,
        "bounded": row.bounded,
        "max_precision_ns": row.max_precision_ns,
    }


def compile_chaos_study(
    configs: Sequence[ChaosExperimentConfig],
    labels: Optional[Sequence[str]] = None,
) -> StudyPlan:
    """Compile a set of chaos arms into the study pipeline.

    One content-addressed job per :class:`ChaosExperimentConfig`; the
    collector returns :class:`ChaosArmRow`\\ s in ``configs`` order.
    ``labels`` defaults to ``seed=N`` per arm. Run the plan with
    :func:`repro.studies.run_study` (dedupe against the job-result store,
    an optional ledger for resume) and collect it; for a single
    interactive run with the full result document, call
    :func:`run_chaos_experiment` directly.
    """
    if not configs:
        raise ValueError("chaos study needs at least one config")
    if labels is None:
        labels = [f"seed={config.seed}" for config in configs]
    if len(labels) != len(configs):
        raise ValueError("labels must match configs one-to-one")
    jobs = tuple(
        Job(
            key=_chaos_cache_key(config),
            fn=_run_chaos_job,
            args=(config, label),
            label=label,
            kind="chaos",
            seed=config.seed,
            accepts_metrics=True,
        )
        for config, label in zip(configs, labels)
    )
    study = Study(
        name="chaos",
        jobs=jobs,
        encode=lambda row: row.as_dict(),
        decode=lambda doc: ChaosArmRow(**doc),
        summarize=_summarize_chaos_row,
        metrics_prefix="chaos",
    )

    def collect(run: StudyRun) -> List[ChaosArmRow]:
        return run.collected()

    return StudyPlan(study=study, collect=collect)
