"""Multi-seed Monte-Carlo studies.

One run of the fault-injection experiment is one draw from the fault
schedule / network noise distribution. The paper reports a single 24 h run;
a simulation can afford many seeds and report *rates*: how often does any
probe violate Π + γ, what do the per-seed precision statistics look like,
how stable are the masked-fault counts.

The study uses independently forked RNG universes per seed, so arms are
statistically independent and individually reproducible — which also makes
them embarrassingly parallel. ``run_monte_carlo`` accepts an ``executor=``
strategy: ``"serial"`` (default) runs in-process; ``"process"`` shards the
seeds across a :class:`repro.parallel.WorkerPool` in chunks, with results
collected in seed order so the parallel study is bit-identical to the
serial one. An optional :class:`repro.parallel.ResultsCache` keyed by
``(config-hash, seed)`` skips seeds whose configuration has not changed.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.stats import percentile
from repro.experiments.fault_injection import (
    FaultInjectionExperimentConfig,
    FaultInjectionResult,
    run_fault_injection_experiment,
)
from repro.metrics.manifest import RunManifest, run_manifest
from repro.monitoring.invariants import DEGRADED, FAIL, PASS, worst_status
from repro.parallel import ResultsCache, config_fingerprint
from repro.studies.core import Job, Study, StudyPlan
from repro.studies.runner import StudyRun, run_study


@dataclass(frozen=True)
class SeedOutcome:
    """Per-seed summary of one fault-injection run."""

    seed: int
    bounded: bool
    violations: int
    mean_ns: float
    max_ns: float
    injections: int
    takeovers: int
    #: Online invariant-monitor outcome of this arm (PASS/DEGRADED/FAIL).
    verdict: str = PASS


#: Interning map for verdict strings. Outcomes that crossed a pickle
#: boundary (process workers, the results cache) carry equal-but-distinct
#: status strings; rebinding them to the module constants keeps
#: ``pickle.dumps`` of a study byte-identical across executors.
_CANONICAL_STATUS = {PASS: PASS, DEGRADED: DEGRADED, FAIL: FAIL}


def _canonical(outcome: SeedOutcome) -> SeedOutcome:
    canon = _CANONICAL_STATUS.get(outcome.verdict, outcome.verdict)
    if canon is outcome.verdict:
        return outcome
    return replace(outcome, verdict=canon)


@dataclass
class MonteCarloResult:
    """Aggregate over all seeds."""

    outcomes: List[SeedOutcome]
    #: Provenance record, populated when the study ran with a metrics
    #: registry attached (pass it to ``write_metrics_json``).
    manifest: Optional[RunManifest] = None

    @property
    def n(self) -> int:
        """Number of runs."""
        return len(self.outcomes)

    @property
    def bounded_rate(self) -> float:
        """Fraction of runs with zero bound violations."""
        return sum(1 for o in self.outcomes if o.bounded) / self.n

    @property
    def total_masked_faults(self) -> int:
        """Injected fail-silent faults across all runs."""
        return sum(o.injections for o in self.outcomes)

    def mean_of_means(self) -> float:
        """Average per-run mean precision."""
        return sum(o.mean_ns for o in self.outcomes) / self.n

    def worst_max(self) -> float:
        """Worst spike over every run."""
        return max(o.max_ns for o in self.outcomes)

    def max_percentile(self, q: float) -> float:
        """Percentile of the per-run maxima."""
        return percentile([o.max_ns for o in self.outcomes], q)

    @property
    def verdict(self) -> str:
        """Worst per-arm monitor verdict across the study."""
        return worst_status(o.verdict for o in self.outcomes)

    def to_text(self) -> str:
        """Study summary block."""
        lines = [
            f"monte-carlo study over {self.n} seeds",
            f"runs fully within Π+γ: {sum(1 for o in self.outcomes if o.bounded)}"
            f"/{self.n} ({self.bounded_rate:.0%})",
            f"mean precision (avg over runs): {self.mean_of_means():.0f} ns",
            f"per-run max: p50={self.max_percentile(50):.0f} ns "
            f"p90={self.max_percentile(90):.0f} ns worst={self.worst_max():.0f} ns",
            f"masked fail-silent faults across runs: {self.total_masked_faults}",
            f"verdict: {self.verdict} (worst arm; "
            + ", ".join(
                f"{status}={count}" for status, count in sorted(
                    _status_counts(self.outcomes).items()
                )
            )
            + ")",
        ]
        return "\n".join(lines)


def _status_counts(outcomes: List[SeedOutcome]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.verdict] = counts.get(outcome.verdict, 0) + 1
    return counts


# ----------------------------------------------------------------------
# Per-seed execution (shared verbatim by the serial and process paths)
# ----------------------------------------------------------------------
def _seed_config(
    base: FaultInjectionExperimentConfig, seed: int, hours: float
) -> FaultInjectionExperimentConfig:
    """The fully scaled configuration of one arm — also its cache identity."""
    return replace(base, seed=seed).scaled(hours)


def _outcome_of(seed: int, result: FaultInjectionResult) -> SeedOutcome:
    return SeedOutcome(
        seed=seed,
        bounded=result.bounded,
        violations=result.violations,
        mean_ns=result.distribution.mean,
        max_ns=result.distribution.maximum,
        injections=result.injections["fail_silent_total"],
        takeovers=result.takeovers,
        verdict=result.verdict.status,
    )


def _run_seed_job(
    config: FaultInjectionExperimentConfig,
    runner: Callable[..., FaultInjectionResult],
    metrics=None,
) -> SeedOutcome:
    """Job body: one scaled per-seed arm. Module-level (picklable) so it
    survives the ``spawn`` start method; only the compact
    :class:`SeedOutcome` crosses the process boundary — the full per-run
    record series stays in the worker.

    ``metrics`` is only ever non-None on the serial executor (registries
    do not cross processes); custom runners used with a registry must
    accept a ``metrics=`` keyword, exactly as before the pipeline.
    """
    if metrics is not None:
        return _outcome_of(config.seed, runner(config, metrics=metrics))
    return _outcome_of(config.seed, runner(config))


def _cache_key(config: FaultInjectionExperimentConfig,
               runner: Callable[..., FaultInjectionResult]) -> str:
    runner_id = getattr(runner, "__qualname__", repr(runner))
    return config_fingerprint("montecarlo", runner_id, config, config.seed)


def _summarize_outcome(outcome: SeedOutcome) -> Dict[str, object]:
    """Ledger/progress info line for one seed arm."""
    return {
        "verdict": outcome.verdict,
        "bounded": outcome.bounded,
        "max_ns": outcome.max_ns,
    }


def compile_monte_carlo(
    seeds: Sequence[int],
    base_config: Optional[FaultInjectionExperimentConfig] = None,
    hours: float = 0.25,
    runner: Callable[..., FaultInjectionResult] = run_fault_injection_experiment,
) -> StudyPlan:
    """Compile the Monte-Carlo study: one content-addressed job per seed.

    This is the *submit* stage of the pipeline — the returned
    :class:`StudyPlan` carries the frozen job set (keys identical to the
    historical per-seed cache keys, so pre-pipeline caches stay valid) and
    the collector that folds seed-ordered outcomes back into a
    :class:`MonteCarloResult`.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    base = base_config or FaultInjectionExperimentConfig()
    configs = [_seed_config(base, seed, hours) for seed in seeds]
    jobs = tuple(
        Job(
            key=_cache_key(config, runner),
            fn=_run_seed_job,
            args=(config, runner),
            label=f"seed={config.seed}",
            kind="montecarlo",
            seed=config.seed,
            accepts_metrics=True,
        )
        for config in configs
    )
    study = Study(
        name="montecarlo",
        jobs=jobs,
        encode=asdict,
        decode=lambda doc: SeedOutcome(**doc),
        summarize=_summarize_outcome,
        metrics_prefix="montecarlo",
    )
    wall_start = time.perf_counter()

    def collect(run: StudyRun, metrics=None, executor: str = "serial",
                cache: Optional[ResultsCache] = None) -> MonteCarloResult:
        outcomes = [_canonical(o) for o in run.collected()]
        manifest = None
        if metrics is not None:
            manifest = run_manifest(
                metrics,
                experiment="monte_carlo",
                config_fingerprint=_cache_key(base, runner),
                wall_time_s=time.perf_counter() - wall_start,
                seeds=seeds,
                sim_duration_ns=configs[0].duration,
                scenario=base.scenario,
                verdict=worst_status(o.verdict for o in outcomes),
                verdict_detail={
                    "arms": _status_counts(outcomes),
                },
                extra={"hours": hours, "executor": executor,
                       "cached_arms": len(run.cached),
                       # A silent mid-run cache outage must not read as a
                       # cold cache downstream (satellite of ISSUE 9).
                       "cache_disabled": bool(cache is not None
                                              and cache.disabled)},
            )
        return MonteCarloResult(outcomes=outcomes, manifest=manifest)

    return StudyPlan(study=study, collect=collect)


def run_monte_carlo(
    seeds: Sequence[int],
    base_config: Optional[FaultInjectionExperimentConfig] = None,
    hours: float = 0.25,
    runner: Callable[..., FaultInjectionResult] = run_fault_injection_experiment,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    cache: Optional[ResultsCache] = None,
    metrics=None,
    ledger=None,
    progress=None,
) -> MonteCarloResult:
    """Run the (compressed) fault-injection experiment across seeds.

    A thin compiler over the study pipeline: the seeds compile into a
    frozen :class:`repro.studies.Study` (one job per seed, keyed by the
    historical ``(config-hash, seed)`` fingerprint), the scheduler dedupes
    against the job-result store and runs the rest, and outcomes collect
    in seed order — byte-identical to the pre-pipeline runner.

    Parameters
    ----------
    executor:
        ``"serial"`` runs every arm in-process; ``"process"`` shards the
        seeds across worker processes in chunks of
        ``~n_seeds / (4 * workers)``. Both produce identical results.
    max_workers:
        Worker count for the process executor (default: CPU count).
    task_timeout:
        Per-chunk wall-clock budget in seconds; a wedged worker is killed
        and its chunk retried once on a fresh process.
    cache:
        Optional :class:`ResultsCache`; hits skip the arm entirely.
    metrics:
        Optional :class:`repro.metrics.MetricsRegistry`. Serial arms run
        fully instrumented (in-sim histograms accumulate across seeds);
        process arms report per-chunk wall times only, since registries do
        not cross the process boundary. Either way the study gains per-arm
        timing, cache hit-rate gauges, and a :class:`RunManifest` on the
        result. Custom ``runner`` callables used together with ``metrics``
        must accept a ``metrics=`` keyword.
    ledger, progress:
        Optional :class:`repro.studies.StudyLedger` journal and streaming
        per-job callback, threaded straight to
        :func:`repro.studies.run_study`.
    """
    plan = compile_monte_carlo(seeds, base_config=base_config, hours=hours,
                               runner=runner)
    run = run_study(
        plan.study,
        executor=executor,
        max_workers=max_workers,
        task_timeout=task_timeout,
        cache=cache,
        metrics=metrics,
        ledger=ledger,
        progress=progress,
        on_error="raise",
    )
    return plan.collect(run, metrics=metrics, executor=executor, cache=cache)
