"""Parameter-sweep studies over the testbed.

A small framework for the design-space questions DESIGN.md raises: how do
the precision bound and the measured steady-state precision move with the
domain count, the synchronization interval, the validity threshold, or the
aggregation function? Each sweep runs a short converged testbed per
parameter value and extracts a compact row; the ablation benches and the
CLI's ``sweep`` command print the assembled table.

The canned sweeps are data: each row of :data:`SWEEP_AXES` names its
parameter, default values, units, per-arm duration and how a value
changes the base configuration. :func:`compile_axis` is the one compiler
of a row, for the CLI (through :func:`sweep_axis`) and for study specs
alike; :func:`compile_envelope` is the envelope sweep's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.plan import single_loss_plan
from repro.core.aggregator import AggregatorMode
from repro.core.validity import ValidityConfig
from repro.experiments.monitored import run_monitored
from repro.experiments.testbed import TestbedConfig, resolve_testbed_config
from repro.monitoring.invariants import DEGRADED, PASS, InvariantSpec
from repro.scenarios import resolve_scenario
from repro.parallel import ResultsCache, config_fingerprint
from repro.security.campaigns import colluder_campaign
from repro.sim.timebase import MILLISECONDS, MINUTES, SECONDS
from repro.studies.core import Job, Study, StudyPlan
from repro.studies.runner import StudyRun, run_study


@dataclass(frozen=True)
class SweepRow:
    """One parameter point's outcome."""

    parameter: str
    value: Any
    bound_ns: float
    avg_precision_ns: float
    max_precision_ns: float
    converged: bool
    #: Online invariant-monitor outcome of the arm; a non-converged arm
    #: with a clean monitor still reads DEGRADED.
    verdict: str = PASS

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for CSV/JSON emission."""
        return {
            "parameter": self.parameter,
            "value": self.value,
            "bound_ns": self.bound_ns,
            "avg_precision_ns": self.avg_precision_ns,
            "max_precision_ns": self.max_precision_ns,
            "converged": self.converged,
            "verdict": self.verdict,
        }


def _steady_state(testbed, monitor,
                  warmup_records: int) -> Tuple[float, float, bool, str]:
    """Of a :func:`run_monitored` testbed and monitor: average and worst
    precision after ``warmup_records`` probes (NaN when none are left),
    whether every aggregator converged, and the monitor's verdict
    (DEGRADED for an unconverged run it passed)."""
    records = testbed.series.records[warmup_records:]
    converged = all(
        vm.aggregator.mode is AggregatorMode.FAULT_TOLERANT
        for vm in testbed.vms.values()
    )
    if records:
        precisions = [r.precision for r in records]
        avg = sum(precisions) / len(precisions)
        worst = max(precisions)
    else:
        avg = worst = float("nan")
    verdict = monitor.verdict().status
    if not converged and verdict == PASS:
        verdict = DEGRADED
    return avg, worst, converged, verdict


#: Default simulated time per sweep arm: long enough to measure the
#: converged steady state.
SWEEP_DURATION = 2 * MINUTES


def _run_sweep_point(
    config: TestbedConfig, duration: int, warmup_records: int, metrics=None,
    fidelity: str = "full",
) -> SweepRow:
    """Worker task: one sweep arm. Module-level so it pickles under spawn.

    The parent materializes ``make_config(value)`` before dispatch, so only
    the frozen :class:`TestbedConfig` dataclass crosses the process
    boundary — the (often lambda) factory never has to be picklable.
    """
    testbed, monitor, _ = run_monitored(config, duration, metrics=metrics,
                                        fidelity=fidelity)
    avg, worst, converged, verdict = _steady_state(testbed, monitor,
                                                   warmup_records)
    return SweepRow(
        parameter="",
        value=None,
        bound_ns=testbed.derive_bounds().precision_bound,
        avg_precision_ns=avg,
        max_precision_ns=worst,
        converged=converged,
        verdict=verdict,
    )


def _summarize_row(row: SweepRow) -> Dict[str, Any]:
    """Ledger/progress info line for one sweep arm."""
    return {
        "verdict": row.verdict,
        "converged": row.converged,
        "max_precision_ns": row.max_precision_ns,
    }


def compile_sweep(
    parameter: str,
    values: Sequence[Any],
    make_config: Callable[[Any], TestbedConfig],
    duration: int = SWEEP_DURATION,
    warmup_records: int = 30,
    fidelity: str = "full",
) -> StudyPlan:
    """Compile a sweep into the study pipeline: one job per arm.

    Each job's key covers the arm's configuration, duration, warm-up and
    fidelity; the collector restores the ``values``-ordered row list with
    parameter/value labels.
    """
    if not values:
        raise ValueError("sweep needs at least one value")
    if fidelity not in ("full", "adaptive"):
        raise ValueError(f"unknown fidelity {fidelity!r}")
    configs = [make_config(value) for value in values]
    jobs = tuple(
        Job(
            key=config_fingerprint(
                "sweep", config, duration, warmup_records, fidelity
            ),
            fn=_run_sweep_point,
            args=(config, duration, warmup_records),
            kwargs={"fidelity": fidelity},
            label=f"{parameter}={value}",
            kind="sweep",
            seed=getattr(config, "seed", None),
            accepts_metrics=True,
        )
        for config, value in zip(configs, values)
    )
    study = Study(
        name=f"sweep:{parameter}",
        jobs=jobs,
        encode=lambda row: row.as_dict(),
        decode=lambda doc: SweepRow(**doc),
        summarize=_summarize_row,
        metrics_prefix="sweep",
    )

    def collect(run: StudyRun) -> List[SweepRow]:
        return [
            replace(row, parameter=parameter, value=value)
            for row, value in zip(run.collected(), values)
        ]

    return StudyPlan(study=study, collect=collect)


def _run_plan(
    plan: StudyPlan,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    cache: Optional[ResultsCache] = None,
    metrics=None,
) -> list:
    """Run a compiled sweep or envelope ``plan`` and collect its rows.

    ``executor="process"`` runs the arms on a
    :class:`repro.parallel.WorkerPool` (rows stay in arm order); a
    :class:`ResultsCache` skips arms whose configuration is unchanged
    since a previous run, so tweaking one value only recomputes the new
    arms. With a ``metrics`` registry attached, serial arms run fully
    instrumented and every arm contributes a timing sample; process arms
    report per-chunk wall times (registries stay in-process). The first
    failing arm raises.
    """
    run = run_study(
        plan.study,
        executor=executor,
        max_workers=max_workers,
        cache=cache,
        metrics=metrics,
        on_error="raise",
    )
    return plan.collect(run)


def sweep(
    parameter: str,
    values: Sequence[Any],
    make_config: Callable[[Any], TestbedConfig],
    duration: int = SWEEP_DURATION,
    warmup_records: int = 30,
    fidelity: str = "full",
    **run_options,
) -> List[SweepRow]:
    """Generic sweep: build/run one testbed per value.

    :func:`compile_sweep`, then the study pipeline; ``run_options`` are
    :func:`_run_plan`'s (executor, workers, cache, metrics).
    """
    return _run_plan(
        compile_sweep(parameter, values, make_config, duration=duration,
                      warmup_records=warmup_records, fidelity=fidelity),
        **run_options,
    )


# ----------------------------------------------------------------------
# The canned sweeps: one table row per design parameter
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepAxis:
    """One canned sweep: what it varies, over which points, for how long."""

    #: Row label of every arm (``n_domains``, ``sync_interval_ms``, ...).
    parameter: str
    #: Default points, in ``units``.
    values: Tuple[Any, ...]
    units: str
    #: ``apply(base, value)``: ``base`` with the axis set to ``value``.
    apply: Callable[[TestbedConfig, Any], TestbedConfig]
    #: Simulated ns per arm.
    duration: int = SWEEP_DURATION


def _with_colluders(base: TestbedConfig, colluders: int) -> TestbedConfig:
    """``base`` with ``colluders`` of its GMs colluding in-window: the
    :func:`repro.security.campaigns.colluder_campaign` worst case at that
    function's margin and start, merged onto ``base``'s own chaos plan;
    no colluders leaves ``base`` as is."""
    if colluders <= 0:
        return base
    return base.with_chaos(
        colluder_campaign(colluders, base.gm_names()).compile()
    )


def _with_sync_interval(base: TestbedConfig, ms: float) -> TestbedConfig:
    interval = round(ms * MILLISECONDS)
    return replace(base, sync_interval=interval,
                   aggregator=replace(base.aggregator, sync_interval=interval))


#: When ``lossrate`` arms start losing frames: after FT convergence, so
#: every arm measures the impaired steady state, not a cold start that
#: never converges.
_LOSS_START = 45 * SECONDS

#: The canned single-axis sweeps by name: the CLI's ``sweep STUDY`` and a
#: study spec's ``study`` field, both compiled by :func:`compile_axis`.
SWEEP_AXES: Dict[str, SweepAxis] = {
    # u(N, f) tightens the bound as domains are added; one domain per
    # device.
    "domains": SweepAxis(
        "n_domains", (4, 5, 6), "devices",
        lambda base, n: replace(base, n_devices=n, n_domains=None),
    ),
    # Γ = 2·r_max·S scales the bound with the Sync interval S.
    "interval": SweepAxis(
        "sync_interval_ms", (62.5, 125.0, 250.0), "ms", _with_sync_interval,
    ),
    # Fault-free steady state is similar across aggregation functions.
    "aggregation": SweepAxis(
        "aggregation", ("fta", "ftm", "median", "mean"), "function",
        lambda base, name: replace(
            base, aggregator=replace(base.aggregator, aggregation=name)),
    ),
    # Validity threshold: too tight rejects honest spread, too loose lets
    # outliers in; the steady state should tolerate the whole sensible
    # range.
    "threshold": SweepAxis(
        "validity_threshold_us", (1.0, 5.0, 20.0), "µs",
        lambda base, us: replace(base, aggregator=replace(
            base.aggregator,
            validity=ValidityConfig(threshold=round(us * 1000)),
        )),
    ),
    # Same N/M/f across shapes: E (the delay spread) drives the bound. The
    # mesh keeps every VM one trunk hop from its GM; ring/line/star
    # stretch some domain trees over several trunks, widening
    # [d_min, d_max] and with it Π = u(N, f)·(E + Γ).
    "topology": SweepAxis(
        "topology", ("mesh", "ring", "line", "star"), "topology kind",
        lambda base, kind: replace(base, topology=kind),
    ),
    # Precision vs. path length on a daisy chain (diameter = N − 1
    # trunks): each extra device on the ``line`` adds one trunk and one
    # switch residence to the longest GM→VM path. The floor is 4: with
    # M = N domains and f = 1 the FTA needs M ≥ 3f + 1.
    "hopcount": SweepAxis(
        "line_devices", (4, 5, 6, 7), "devices",
        lambda base, n: replace(base, topology="line", n_devices=n,
                                n_domains=None),
    ),
    # FTA masking budget: (f, M) points at M = 3f+1 (tight) and 3f+2, M
    # being the domain and device count. u(N, f) = (N − 2f)/(N − 3f) blows
    # up as M approaches the 3f+1 floor, so the tight arms should show
    # visibly looser bounds than their M = 3f+2 neighbours.
    "faultbudget": SweepAxis(
        "(f, M)", ((1, 4), (1, 5), (2, 7), (2, 8)), "(f, M)",
        lambda base, fm: replace(base, n_devices=fm[1], n_domains=fm[1],
                                 aggregator=replace(base.aggregator, f=fm[0])),
    ),
    # Per-link Bernoulli loss on every trunk from _LOSS_START vs. achieved
    # precision. gPTP's per-interval Sync/FollowUp pairs mean a lost frame
    # only delays the next correction by one interval; the FTA then masks
    # domains whose corrections stale out. The verdict column is the
    # output: where does graceful degradation (DEGRADED) start, and does
    # the bound itself ever break (FAIL)?
    "lossrate": SweepAxis(
        "loss_rate", (0.0, 0.05, 0.1, 0.2, 0.4), "loss probability per frame",
        lambda base, loss: base if loss <= 0.0 else replace(
            base, chaos=single_loss_plan(loss, start=_LOSS_START)),
    ),
    # Breaking point: k colluding in-window GMs (_with_colluders) vs. the
    # monitor's verdict. The bloc is never invalidated, so only the FTA
    # trim can mask it. For k <= f the trim drops every colluder at every
    # gate — the monitor stays PASS. At k = f + 1 a colluder survives the
    # trim, but *which* colluder (and which honest extreme goes with it)
    # is decided by per-VM measurement noise: different VMs aggregate
    # differently-biased sets, the differential error integrates, and
    # after minutes the measured precision leaves Π+γ — FAIL. A
    # *unanimous* bloc (k = M − 1) is gentler: every VM trims identically,
    # the bias is pure common-mode, and the clocks drift together
    # (DEGRADED via the valid-domain floor, the spread itself stays long
    # inside the bound). The largest k masked before the first FAIL is the
    # empirical fault budget f_actual, to compare against the designed
    # M >= 3f+1 floor (see breaking_point). Arms run longer than the
    # others: the differential bias needs minutes of integration before
    # the spread crosses Π+γ (on the paper mesh, seed 9, k = 2 breaks the
    # bound at t ≈ 800 s). The envelope sweep's adversarial arm is this
    # axis's arm.
    "attackbudget": SweepAxis(
        "colluders", (0, 1, 2, 3), "colluding GMs", _with_colluders,
        duration=15 * MINUTES,
    ),
}


def compile_axis(
    name: str,
    values: Optional[Sequence[Any]] = None,
    seed: int = 9,
    scenario=None,
    duration: Optional[int] = None,
    warmup_records: int = 30,
    fidelity: str = "full",
) -> StudyPlan:
    """Compile the canned sweep ``name``: one arm per point of ``values``
    (default: the axis's own) on the ``scenario``'s testbed (a spec,
    registered name or JSON path; none for the paper mesh4) at ``seed``,
    each ``duration`` ns long (default: the axis's own).

    A point given as a list (a JSON array) becomes a tuple, so a
    spec-driven ``faultbudget`` arm keeps its ``(f, M)=(1, 4)`` label.
    """
    if name not in SWEEP_AXES:
        raise ValueError(
            f"unknown sweep study {name!r} "
            f"(expected one of {', '.join(sorted(SWEEP_AXES))})"
        )
    axis = SWEEP_AXES[name]
    base = resolve_testbed_config(scenario, seed)
    points = [
        tuple(value) if isinstance(value, list) else value
        for value in (axis.values if values is None else values)
    ]
    return compile_sweep(
        axis.parameter,
        points,
        lambda value: axis.apply(base, value),
        duration=axis.duration if duration is None else duration,
        warmup_records=warmup_records,
        fidelity=fidelity,
    )


def sweep_axis(
    name: str,
    values: Optional[Sequence[Any]] = None,
    seed: int = 9,
    scenario=None,
    duration: Optional[int] = None,
    warmup_records: int = 30,
    fidelity: str = "full",
    **run_options,
) -> List[SweepRow]:
    """Run the canned sweep ``name``: :func:`compile_axis`, then the study
    pipeline; ``run_options`` are :func:`_run_plan`'s."""
    return _run_plan(
        compile_axis(name, values, seed=seed, scenario=scenario,
                     duration=duration, warmup_records=warmup_records,
                     fidelity=fidelity),
        **run_options,
    )


def breaking_point(rows: Sequence[SweepRow]) -> Dict[str, Optional[int]]:
    """Empirical fault budget of an ``attackbudget`` sweep.

    ``f_actual`` is the largest colluder count whose arm did **not** FAIL
    before the first FAIL arm (DEGRADED still counts as masked: the bound
    held); ``first_fail`` is the first failing count, or ``None`` if every
    arm held.
    """
    from repro.monitoring.invariants import FAIL

    f_actual: Optional[int] = None
    first_fail: Optional[int] = None
    for row in rows:
        if row.verdict == FAIL:
            first_fail = row.value
            break
        f_actual = row.value
    return {"f_actual": f_actual, "first_fail": first_fail}


# ----------------------------------------------------------------------
# Envelope sweep: measured precision vs. the closed-form prediction
# ----------------------------------------------------------------------
#: Default arms: one per registry scale tier, mesh4 through torus-256.
#: The 1024-VM shape is left out of the default set — one arm would
#: dominate the whole sweep's wall time — but can be passed explicitly.
ENVELOPE_SCENARIOS = (
    "paper-mesh4",
    "ring",
    "line",
    "star",
    "mesh8",
    "torus-64",
    "fat-tree-64",
    "geo-64",
    "torus-256",
)

#: Clean arms at or above this device count default to adaptive fidelity.
_ENVELOPE_ADAPTIVE_FLOOR = 64


@dataclass(frozen=True)
class EnvelopeRow:
    """One scenario's measured precision against its predicted envelope."""

    scenario: str
    n_devices: int
    f: int
    fidelity: str
    #: Attack label ("" for clean arms; e.g. "collude-k2").
    attack: str
    #: Predicted envelope u·(E* + A + Γ) + γ* — the grading threshold.
    envelope_ns: float
    #: Predicted precision bound Π* (no measurement error term).
    predicted_bound_ns: float
    #: Measured Π + γ from the end-of-run latency survey.
    measured_bound_ns: float
    avg_precision_ns: float
    max_precision_ns: float
    #: envelope − max measured precision (negative when the envelope broke).
    margin_ns: float
    within: bool
    converged: bool
    verdict: str

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON emission (keys match field names so
        cached rows rehydrate via ``EnvelopeRow(**d)``)."""
        return {
            "scenario": self.scenario,
            "n_devices": self.n_devices,
            "f": self.f,
            "fidelity": self.fidelity,
            "attack": self.attack,
            "envelope_ns": self.envelope_ns,
            "predicted_bound_ns": self.predicted_bound_ns,
            "measured_bound_ns": self.measured_bound_ns,
            "avg_precision_ns": self.avg_precision_ns,
            "max_precision_ns": self.max_precision_ns,
            "margin_ns": self.margin_ns,
            "within": self.within,
            "converged": self.converged,
            "verdict": self.verdict,
        }


def _run_envelope_arm(
    config: TestbedConfig,
    name: str,
    f: int,
    duration: int,
    warmup_records: int,
    fidelity: str,
    metrics=None,
    attack: str = "",
) -> EnvelopeRow:
    """One envelope arm: run graded against the *predicted* bound.

    Unlike a sweep arm, the monitor here carries
    ``bound_source="predicted"`` — synctime violations are judged against
    the closed-form envelope, with the measured Π+γ demoted to the
    secondary ``synctime_bound_measured`` threshold.
    """
    testbed, monitor, _ = run_monitored(
        config,
        duration,
        invariants=InvariantSpec(bound_source="predicted"),
        f=f,
        metrics=metrics,
        fidelity=fidelity,
    )
    bounds = testbed.derive_bounds()
    predicted = bounds.predicted
    assert predicted is not None  # derive_bounds always attaches one
    # Short smoke arms (e.g. the CI 60 s mesh4 run) may not outlast the
    # full warmup prefix; grade the back half rather than nothing.
    warmup = min(warmup_records, len(testbed.series.records) // 2)
    avg, worst, converged, verdict = _steady_state(testbed, monitor, warmup)
    envelope = predicted.envelope
    return EnvelopeRow(
        scenario=name,
        n_devices=config.n_devices,
        f=f,
        fidelity=fidelity,
        attack=attack,
        envelope_ns=envelope,
        predicted_bound_ns=predicted.precision_bound,
        measured_bound_ns=bounds.bound_with_error,
        avg_precision_ns=avg,
        max_precision_ns=worst,
        margin_ns=envelope - worst,
        # An arm with no graded probes (NaN) is never within.
        within=worst <= envelope,
        converged=converged,
        verdict=verdict,
    )


def _envelope_cache_key(config: TestbedConfig, duration: int,
                        warmup_records: int, fidelity: str) -> str:
    return config_fingerprint(
        "envelope", config, duration, warmup_records, fidelity
    )


def _summarize_envelope_row(row: EnvelopeRow) -> Dict[str, Any]:
    """Ledger/progress info line for one envelope arm."""
    return {
        "verdict": row.verdict,
        "within": row.within,
        "margin_ns": row.margin_ns,
    }


def compile_envelope(
    scenarios: Sequence[str] = ENVELOPE_SCENARIOS,
    seed: int = 9,
    duration: int = 2 * MINUTES,
    warmup_records: int = 30,
    attack_check: bool = True,
    attack_colluders: int = 2,
    fidelity: Optional[str] = None,
) -> StudyPlan:
    """Compile the envelope sweep: one job per scenario arm (+ attack arm).

    The attack arm is the ``attackbudget`` axis's arm with
    ``attack_colluders`` colluders on the paper mesh, run for that axis's
    duration. Keys are the historical envelope cache keys; the collector
    returns the rows in arm order (clean arms in ``scenarios`` order, then
    the attack arm), as before the pipeline.
    """
    if fidelity is not None and fidelity not in ("full", "adaptive"):
        raise ValueError(f"unknown fidelity {fidelity!r}")
    if attack_check and attack_colluders < 1:
        raise ValueError(
            f"the attack arm needs colluders >= 1, got {attack_colluders}")

    arms: List[Dict[str, Any]] = []
    for name in scenarios:
        spec = resolve_scenario(name)
        config = spec.testbed_config(seed=seed)
        fid = fidelity or (
            "adaptive"
            if config.n_devices >= _ENVELOPE_ADAPTIVE_FLOOR
            else "full"
        )
        arms.append(
            {
                "config": config,
                "name": spec.name,
                "f": spec.f,
                "duration": duration,
                "fidelity": fid,
                "attack": "",
            }
        )
    if attack_check:
        spec = resolve_scenario("paper-mesh4")
        attack = SWEEP_AXES["attackbudget"]
        arms.append(
            {
                "config": attack.apply(spec.testbed_config(seed=seed),
                                       attack_colluders),
                "name": spec.name,
                "f": spec.f,
                "duration": attack.duration,
                "fidelity": fidelity or "full",
                "attack": f"collude-k{attack_colluders}",
            }
        )

    jobs = tuple(
        Job(
            key=_envelope_cache_key(
                arm["config"], arm["duration"], warmup_records,
                arm["fidelity"]
            ),
            fn=_run_envelope_arm,
            args=(arm["config"], arm["name"], arm["f"], arm["duration"],
                  warmup_records, arm["fidelity"]),
            kwargs={"attack": arm["attack"]},
            label=(
                f"{arm['name']}[{arm['attack']}]" if arm["attack"]
                else arm["name"]
            ),
            kind="envelope",
            seed=seed,
            accepts_metrics=True,
        )
        for arm in arms
    )
    study = Study(
        name="envelope",
        jobs=jobs,
        encode=lambda row: row.as_dict(),
        decode=lambda doc: EnvelopeRow(**doc),
        summarize=_summarize_envelope_row,
        metrics_prefix="envelope",
    )

    def collect(run: StudyRun) -> List[EnvelopeRow]:
        return run.collected()

    return StudyPlan(study=study, collect=collect)


def sweep_envelope(
    scenarios: Sequence[str] = ENVELOPE_SCENARIOS,
    seed: int = 9,
    duration: int = 2 * MINUTES,
    warmup_records: int = 30,
    attack_check: bool = True,
    attack_colluders: int = 2,
    fidelity: Optional[str] = None,
    **run_options,
) -> List[EnvelopeRow]:
    """Measured-vs-theoretical margin across the scenario registry.

    One clean arm per scenario, graded against its *predicted* envelope
    (``bound_source="predicted"``): the measured worst-case precision must
    stay inside the closed-form bound with positive margin. With
    ``attack_check`` set, a final arm replays the breaking-point
    adversary — the ``attackbudget`` arm with ``attack_colluders``
    in-window colluding GMs on the paper mesh — and the envelope is
    expected to *catch* it (within=False, FAIL) without any threshold
    retuning.

    ``fidelity=None`` picks per arm: adaptive at and above 64 devices
    (quiescent clean runs fast-forward soundly), full below and for the
    attack arm (colluders are never quiescent). :func:`compile_envelope`,
    then the study pipeline; ``run_options`` are :func:`_run_plan`'s, so
    ``executor="process"`` spreads the arms over a worker pool (rows stay
    in arm order) and a :class:`ResultsCache` skips unchanged arms.
    """
    return _run_plan(
        compile_envelope(
            scenarios, seed=seed, duration=duration,
            warmup_records=warmup_records, attack_check=attack_check,
            attack_colluders=attack_colluders, fidelity=fidelity,
        ),
        **run_options,
    )


def envelope_verdict(rows: Sequence[EnvelopeRow]) -> str:
    """Aggregate acceptance: prediction dominates measurement.

    PASS when every clean arm stayed inside its predicted envelope *and*
    every attack arm was flagged by it (crossed the envelope → monitor
    FAIL). Anything else — a clean run outside the envelope, or an
    adversary the prediction failed to catch — is FAIL.
    """
    from repro.monitoring.invariants import FAIL

    for row in rows:
        if row.attack:
            if row.within or row.verdict != FAIL:
                return FAIL
        elif not row.within:
            return FAIL
    return PASS


def render_rows(rows: Sequence[SweepRow]) -> str:
    """Text table of sweep outcomes."""
    if not rows:
        return "(empty sweep)"
    header = (
        f"{rows[0].parameter:>22} {'Π[ns]':>10} {'avg Π*[ns]':>12} "
        f"{'max Π*[ns]':>12} {'converged':>10} {'verdict':>9}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{str(row.value):>22} {row.bound_ns:>10.0f} "
            f"{row.avg_precision_ns:>12.1f} {row.max_precision_ns:>12.1f} "
            f"{str(row.converged):>10} {row.verdict:>9}"
        )
    return "\n".join(lines)
