"""Command-line interface.

Installed as ``repro-sim`` (see pyproject). Subcommands mirror the paper's
evaluation workflow:

* ``repro-sim survey`` — build the testbed, survey latencies, print the
  §III-A3 bound derivation.
* ``repro-sim cyber`` — run the §III-B attack experiment (Fig. 3a/3b).
* ``repro-sim faults`` — run the §III-C fault injection (Fig. 4/5).
* ``repro-sim baselines`` — run the baseline comparison.
* ``repro-sim chaos`` — run a declarative chaos plan (packet loss, link
  flaps, attacks) under the online invariant monitor.
* ``repro-sim campaign`` — run an adversary campaign (a coordinated,
  staged attack schedule) under the monitor; ``--colluders K`` is the
  worst-case in-window colluding-GM shortcut.
* ``repro-sim vulnerabilities`` — query the kernel/CVE database.
* ``repro-sim scenarios`` — list/show the named scenario registry.

Every experiment subcommand accepts ``--scenario NAME|path.json`` to run on
a registered or file-based :class:`repro.scenarios.ScenarioSpec` instead of
the paper's default mesh4 testbed.

All numeric output is plain text; ``--json`` emits machine-readable results
for downstream plotting.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

# Each subcommand imports what it runs, so ``--help``, ``study status`` and
# ``cache`` load no simulation code.


def _emit(args: argparse.Namespace, text: str, payload: Dict[str, Any]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text)


def _scenario_of(args: argparse.Namespace):
    """The resolved :class:`ScenarioSpec` of ``--scenario``, or ``None``."""
    ref = getattr(args, "scenario", None)
    if not ref:
        return None
    from repro.scenarios import resolve_scenario

    return resolve_scenario(ref)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_survey(args: argparse.Namespace) -> int:
    from repro.experiments.testbed import Testbed, resolve_testbed_config
    from repro.sim.timebase import SECONDS

    testbed = Testbed(resolve_testbed_config(_scenario_of(args), args.seed))
    testbed.run_until(round(args.warmup * SECONDS))
    bounds = testbed.derive_bounds()
    payload = {
        "d_min_ns": bounds.d_min,
        "d_max_ns": bounds.d_max,
        "reading_error_ns": bounds.reading_error,
        "drift_offset_ns": bounds.drift_offset,
        "precision_bound_ns": bounds.precision_bound,
        "measurement_error_ns": bounds.measurement_error,
    }
    _emit(args, bounds.describe(), payload)
    return 0


def cmd_cyber(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_series
    from repro.experiments.cyber import (
        CyberExperimentConfig,
        run_cyber_experiment,
    )

    config = CyberExperimentConfig(
        kernel_policy=args.policy, seed=args.seed
    ).scaled(args.scale)
    result = run_cyber_experiment(config, scenario=_scenario_of(args))
    payload = {
        "policy": args.policy,
        "compromised": result.compromised,
        "bound_ns": result.bounds.precision_bound,
        "max_between_attacks_ns": result.max_between_attacks,
        "max_after_second_ns": result.max_after_second,
        "first_attack_masked": result.first_attack_masked,
        "second_attack_violates": result.second_attack_violates,
    }
    text = result.to_text()
    if args.series:
        text += "\n" + render_series(
            result.buckets,
            bound=result.bounds.precision_bound,
            bound_with_error=result.bounds.bound_with_error,
        )
    _emit(args, text, payload)
    return 0 if (args.policy == "identical") == result.second_attack_violates else 1


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.analysis.report import (
        render_histogram,
        render_series,
        render_timeline,
    )
    from repro.experiments.fault_injection import (
        run_fault_injection_experiment,
    )
    from repro.parallel import config_fingerprint

    config = _faults_config(args)
    spec = config.scenario
    result = _run_recorded(
        args,
        lambda registry: run_fault_injection_experiment(config,
                                                        metrics=registry),
        lambda result: dict(
            experiment="fault_injection",
            config_fingerprint=config_fingerprint("faults", config),
            seeds=[args.seed],
            sim_duration_ns=config.duration,
            scenario=spec,
            verdict=result.verdict.status,
            verdict_detail=result.verdict.to_dict(),
            bounds=result.bounds,
            extra={"hours": args.hours, "compress": bool(args.compress)},
        ),
    )
    payload = {
        "hours": args.hours,
        "verdict": result.verdict.to_dict(),
        "bounded": result.bounded,
        "violations": result.violations,
        "avg_ns": result.distribution.mean,
        "std_ns": result.distribution.std,
        "min_ns": result.distribution.minimum,
        "max_ns": result.distribution.maximum,
        "injections": result.injections,
        "takeovers": result.takeovers,
        "tx_timeouts": result.tx_timeouts,
        "deadline_misses": result.deadline_misses,
    }
    text = result.to_text()
    if args.series:
        text += "\n" + render_series(
            result.buckets,
            bound=result.bounds.precision_bound,
            bound_with_error=result.bounds.bound_with_error,
        )
    if args.histogram:
        text += "\n" + render_histogram(result.distribution)
    if args.timeline:
        text += "\n" + render_timeline(result.timeline)
    _emit(args, text, payload)
    return 0 if result.bounded else 1


def cmd_baselines(args: argparse.Namespace) -> int:
    from repro.experiments.baselines import (
        run_client_only_baseline,
        run_full_architecture,
        run_single_domain_baseline,
    )
    from repro.sim.timebase import MINUTES

    duration = round(args.minutes * MINUTES)
    spec = _scenario_of(args)
    results = [
        run_full_architecture(duration=duration, seed=args.seed, scenario=spec),
        run_client_only_baseline(duration=duration, seed=args.seed,
                                 scenario=spec),
        run_single_domain_baseline(
            duration=duration, seed=args.seed, gm_fails_at=duration // 2,
            scenario=spec,
        ),
    ]
    text = "\n\n".join(r.to_text() for r in results)
    payload = {
        r.label: {
            "max_precision_ns": r.max_precision,
            "final_gm_spread_ns": r.final_gm_spread,
        }
        for r in results
    }
    _emit(args, text, payload)
    return 0


def _faults_config(args: argparse.Namespace):
    """The §III-C run of ``faults`` and ``export``: ``--hours`` simulated
    hours of the paper's fault schedule, or of the schedule compressed
    into them with ``--compress``."""
    from repro.experiments.fault_injection import (
        FaultInjectionExperimentConfig,
    )

    return FaultInjectionExperimentConfig(
        seed=args.seed, scenario=_scenario_of(args)
    ).for_hours(args.hours, args.compress)


def cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import write_experiment_bundle
    from repro.experiments.fault_injection import (
        run_fault_injection_experiment,
    )

    result = run_fault_injection_experiment(_faults_config(args))
    written = write_experiment_bundle(args.output, result)
    payload = {"output": args.output, "files": written,
               "bounded": result.bounded,
               "verdict": result.verdict.status}
    _emit(args, "wrote " + ", ".join(f"{k} ({v} rows)" for k, v in written.items()),
          payload)
    return 0 if result.bounded else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import load_plan, single_loss_plan
    from repro.sim.timebase import SECONDS

    if args.plan and args.loss is not None:
        print("use --plan or --loss, not both", file=sys.stderr)
        return 2
    plan = None
    if args.plan:
        plan = load_plan(args.plan)
    elif args.loss is not None:
        plan = single_loss_plan(
            args.loss,
            start=round(args.loss_start * SECONDS),
            end=(round(args.loss_end * SECONDS)
                 if args.loss_end is not None else None),
        )
    return _chaos_run(args, _scenario_of(args), "chaos", plan=plan)


def _design_budget(spec) -> Dict[str, int]:
    """The fault budget a run is judged against: ``design_f``, the
    ``domains`` M and the ``floor_m`` 3f+1 that M must reach.

    Runs without ``--scenario`` use the paper's mesh4 testbed, whose
    design point is the registered ``paper-mesh4`` spec.
    """
    if spec is None:
        from repro.scenarios import get_scenario

        spec = get_scenario("paper-mesh4")
    return {"design_f": spec.f, "domains": spec.effective_domains,
            "floor_m": 3 * spec.f + 1}


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.testbed import resolve_testbed_config
    from repro.security.campaigns import colluder_campaign, load_campaign
    from repro.sim.timebase import SECONDS

    if (args.file is None) == (args.colluders is None):
        print("use exactly one of --file or --colluders", file=sys.stderr)
        return 2
    if args.colluders is not None and args.colluders < 1:
        print("--colluders must be >= 1", file=sys.stderr)
        return 2
    spec = _scenario_of(args)
    if args.file is not None:
        campaign = load_campaign(args.file)
    else:
        campaign = colluder_campaign(
            args.colluders,
            resolve_testbed_config(spec).gm_names(),
            margin=args.margin,
            start=round(args.start * SECONDS),
            stop=(round(args.stop * SECONDS)
                  if args.stop is not None else None),
        )
    info = {
        "campaign": campaign.name,
        "stages": len(campaign.stages),
        "colluders": args.colluders,
        **_design_budget(spec),
    }
    return _chaos_run(args, spec, "campaign", campaign=campaign, info=info)


def _chaos_run(args: argparse.Namespace, spec, experiment: str, plan=None,
               campaign=None, info: Optional[Dict[str, Any]] = None) -> int:
    """One run under the monitor for ``chaos`` (a ``plan``) or
    ``campaign`` (a ``campaign``, described by ``info``); the exit code
    grades the verdict."""
    from repro.experiments.chaos import (
        ChaosExperimentConfig,
        run_chaos_experiment,
    )
    from repro.monitoring import FAIL, PASS
    from repro.parallel import config_fingerprint
    from repro.sim.timebase import SECONDS

    config = ChaosExperimentConfig(
        duration=round(args.duration * SECONDS),
        seed=args.seed,
        scenario=spec,
        plan=plan,
        campaign=campaign,
        fidelity=args.fidelity,
    )
    result = _run_recorded(
        args,
        lambda registry: run_chaos_experiment(config, metrics=registry),
        lambda result: dict(
            experiment=experiment,
            config_fingerprint=config_fingerprint(experiment, config),
            seeds=[args.seed],
            sim_duration_ns=config.duration,
            scenario=spec,
            verdict=result.verdict.status,
            verdict_detail=result.verdict.to_dict(),
            bounds=result.bounds,
            extra=dict(
                info or {"plan": result.chaos_summary.get("plan")},
                violations=[v.to_dict() for v in result.violations],
                **({"fidelity": args.fidelity,
                    "fastforward": result.fastforward}
                   if result.fastforward else {}),
            ),
        ),
    )
    payload = result.to_dict()
    text = result.to_text()
    if info is not None:
        payload["campaign"] = info
        text = (
            f"adversary campaign {info['campaign']!r}: {info['stages']} "
            f"stage(s) against design f={info['design_f']} "
            f"(M={info['domains']} >= 3f+1={info['floor_m']})\n" + text
        )
    _emit(args, text, payload)
    if result.verdict.status == FAIL:
        return 2
    return 0 if result.verdict.status == PASS else 1


def cmd_linkfail(args: argparse.Namespace) -> int:
    from repro.experiments.link_failure import (
        LinkFailureConfig,
        run_link_failure_experiment,
    )

    try:
        result = run_link_failure_experiment(
            LinkFailureConfig(
                seed=args.seed,
                trunk=tuple(args.trunk) if args.trunk else None,
            ),
            scenario=_scenario_of(args),
        )
    except ValueError as exc:
        print(f"linkfail: {exc}", file=sys.stderr)
        return 2
    payload = {
        "trunk": list(result.config.trunk),
        "silenced": {vm: sorted(d) for vm, d in result.silenced.items() if d},
        "max_during_outage_ns": result.max_precision_during_outage,
        "violations": result.violations,
        "recovered": result.recovered,
        "verdict": result.verdict.to_dict(),
    }
    _emit(args, result.to_text(), payload)
    return 0 if result.violations == 0 and result.recovered else 1


def _metrics_registry(args: argparse.Namespace):
    """A fresh registry when ``--metrics PATH`` was given, else ``None``."""
    if not getattr(args, "metrics", None):
        return None
    from repro.metrics import MetricsRegistry

    return MetricsRegistry()


def _write_metrics(args: argparse.Namespace, registry, manifest=None) -> None:
    if registry is None:
        return
    from repro.metrics import write_metrics_csv, write_metrics_json

    if args.metrics.endswith(".csv"):
        write_metrics_csv(args.metrics, registry, manifest)
    else:
        write_metrics_json(args.metrics, registry, manifest)
    print(f"metrics written to {args.metrics}", file=sys.stderr)


def _run_recorded(args: argparse.Namespace, run: Callable[[Any], Any],
                  record: Callable[[Any], Dict[str, Any]]) -> Any:
    """``run(registry)`` timed; under ``--metrics PATH``, its run record.

    The registry is ``None`` without ``--metrics``. ``record(outcome)``
    gives the :func:`repro.metrics.manifest.run_manifest` fields of the
    command's record, whose wall time is the time ``run`` took.
    """
    registry = _metrics_registry(args)
    wall_start = time.perf_counter()
    outcome = run(registry)
    if registry is not None:
        from repro.metrics.manifest import run_manifest

        _write_metrics(args, registry, run_manifest(
            registry, wall_time_s=time.perf_counter() - wall_start,
            **record(outcome),
        ))
    return outcome


class _SweepStudies:
    """``sweep`` study names: the canned axes, then ``envelope``.

    Read from :data:`repro.experiments.sweeps.SWEEP_AXES` only when
    argparse checks a value or renders ``sweep --help``, so building the
    parser loads no simulation code.
    """

    def __iter__(self):
        from repro.experiments.sweeps import SWEEP_AXES

        return iter([*SWEEP_AXES, "envelope"])

    def __contains__(self, name: object) -> bool:
        return name in list(self)


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _executor_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    """Map the shared ``--workers``/``--no-cache`` flags to study kwargs."""
    from repro.parallel import ResultsCache

    workers = getattr(args, "workers", 0)
    kwargs: Dict[str, Any] = {
        "executor": "process" if workers and workers > 1 else "serial",
        "max_workers": workers if workers and workers > 1 else None,
    }
    if not getattr(args, "no_cache", False):
        kwargs["cache"] = ResultsCache(args.cache_dir)
    return kwargs


def _cmd_sweep_envelope(args: argparse.Namespace) -> int:
    """The ``sweep envelope`` study: margin vs. the closed-form prediction.

    Unlike the other studies this one varies the *scenario* itself (one
    clean arm per registry shape, graded against its predicted envelope)
    plus an adversarial arm replaying the PR-6 colluder campaign, so it
    bypasses the generic single-axis runner table.
    """
    from repro.analysis.report import render_envelope
    from repro.experiments.sweeps import envelope_verdict, sweep_envelope
    from repro.parallel import config_fingerprint
    from repro.sim.timebase import SECONDS

    duration = round((args.duration if args.duration is not None else 120.0)
                     * SECONDS)
    kwargs = _executor_kwargs(args)
    # --fidelity full (the flag's global default) keeps the study's auto
    # tiering (adaptive at >= 64 devices, full below); --fidelity adaptive
    # forces adaptive everywhere.
    if args.fidelity == "adaptive":
        kwargs["fidelity"] = "adaptive"
    if getattr(args, "scenario", None):
        # A single named arm (the CI smoke path): no adversarial arm.
        kwargs["scenarios"] = (args.scenario,)
        kwargs["attack_check"] = False
    rows = _run_recorded(
        args,
        lambda registry: sweep_envelope(
            seed=args.seed, duration=duration, metrics=registry, **kwargs
        ),
        lambda rows: dict(
            experiment="sweep:envelope",
            config_fingerprint=config_fingerprint(
                "sweep-cli", "envelope", args.seed, duration,
                getattr(args, "scenario", None),
            ),
            seeds=[args.seed],
            sim_duration_ns=duration,
            scenario=_scenario_of(args),
            verdict=envelope_verdict(rows),
            verdict_detail={
                "rows": {
                    (f"{r.scenario}+{r.attack}" if r.attack else r.scenario):
                        r.verdict
                    for r in rows
                },
            },
            extra={
                "points": len(rows),
                "min_margin_ns": min(
                    (r.margin_ns for r in rows if not r.attack),
                    default=None,
                ),
                "cache_disabled": bool(
                    kwargs.get("cache") is not None
                    and kwargs["cache"].disabled
                ),
            },
        ),
    )
    verdict = envelope_verdict(rows)
    payload = {
        "study": "envelope",
        "verdict": verdict,
        "rows": [r.as_dict() for r in rows],
    }
    clean = [r for r in rows if not r.attack]
    text = render_envelope(rows)
    text += (
        f"\nenvelope verdict: {verdict} "
        f"({sum(r.within for r in clean)}/{len(clean)} clean arms within "
        "the predicted envelope"
        + (
            f"; adversarial arm {'flagged' if not rows[-1].within else 'MISSED'}"
            if any(r.attack for r in rows) else ""
        )
        + ")"
    )
    _emit(args, text, payload)
    return 0 if verdict != "FAIL" else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.study == "envelope":
        return _cmd_sweep_envelope(args)
    from repro.experiments.sweeps import (
        SWEEP_AXES,
        breaking_point,
        render_rows,
        sweep_axis,
    )
    from repro.monitoring import worst_status
    from repro.parallel import config_fingerprint
    from repro.sim.timebase import SECONDS

    spec = _scenario_of(args)
    run_kwargs = _executor_kwargs(args)
    if args.duration is not None:
        run_kwargs["duration"] = round(args.duration * SECONDS)
    duration = run_kwargs.get("duration", SWEEP_AXES[args.study].duration)

    def budget_of(rows) -> Optional[Dict[str, Any]]:
        if args.study != "attackbudget":
            return None
        return {**breaking_point(rows), **_design_budget(spec)}

    def record(rows) -> Dict[str, Any]:
        extra: Dict[str, Any] = {"points": len(rows)}
        budget = budget_of(rows)
        if budget is not None:
            budget["first_fail_colluders"] = budget.pop("first_fail")
            extra.update(budget)
        extra["cache_disabled"] = bool(
            run_kwargs.get("cache") is not None
            and run_kwargs["cache"].disabled
        )
        if args.fidelity != "full":
            extra["fidelity"] = args.fidelity
        return dict(
            experiment=f"sweep:{args.study}",
            config_fingerprint=config_fingerprint(
                "sweep-cli", args.study, args.seed, duration,
                spec.fingerprint() if spec else None,
            ),
            seeds=[args.seed],
            sim_duration_ns=duration,
            scenario=spec,
            verdict=worst_status(r.verdict for r in rows),
            verdict_detail={
                "rows": {f"{r.parameter}={r.value}": r.verdict for r in rows},
            },
            extra=extra,
        )

    rows = _run_recorded(
        args,
        lambda registry: sweep_axis(
            args.study, seed=args.seed, scenario=spec, metrics=registry,
            fidelity=args.fidelity, **run_kwargs,
        ),
        record,
    )
    budget = budget_of(rows)
    payload = {
        "study": args.study,
        "verdict": worst_status(r.verdict for r in rows),
        "rows": [r.as_dict() for r in rows],
    }
    text = render_rows(rows)
    if budget is not None:
        payload["breaking_point"] = budget
        held = (budget["f_actual"] is not None
                and budget["f_actual"] >= budget["design_f"])
        text += (
            f"\nbreaking point: f_actual={budget['f_actual']} vs design "
            f"f={budget['design_f']} (M={budget['domains']} >= "
            f"3f+1={budget['floor_m']}), first FAIL at "
            f"k={budget['first_fail']} colluders -> "
            f"{'floor holds' if held else 'FLOOR VIOLATED'}"
        )
    _emit(args, text, payload)
    return 0


def _progress_printer():
    """Streaming per-job progress lines on stderr for study runs."""

    def emit(event: Dict[str, Any]) -> None:
        info = event.get("info") or {}
        verdict = f" verdict={info['verdict']}" if "verdict" in info else ""
        wall = (f" {event['wall_s']:.1f}s"
                if event.get("wall_s") is not None else "")
        error = f" error={event['error']}" if event.get("error") else ""
        print(
            f"[{event['index']}/{event['total']}] "
            f"{event['status']:>6} {event['label']} "
            f"({event['source']}){verdict}{wall}{error}",
            file=sys.stderr, flush=True,
        )

    return emit


def _fault_injector(args):
    """Build a FaultInjector from ``--fault-plan`` (None when absent)."""
    plan_path = getattr(args, "fault_plan", None)
    if not plan_path:
        return None
    from repro.resilience import FaultInjector, load_fault_plan

    return FaultInjector(load_fault_plan(plan_path),
                         salt=getattr(args, "fault_salt", 0))


def _retry_policy(args):
    """Build a RetryPolicy from ``--retries``/``--retry-backoff``."""
    retries = getattr(args, "retries", None)
    backoff = getattr(args, "retry_backoff", None)
    if retries is None and backoff is None:
        return None
    from repro.resilience import RetryPolicy

    return RetryPolicy(
        max_attempts=(retries if retries is not None else 1) + 1,
        backoff_s=backoff or 0.0,
        jitter=0.1 if backoff else 0.0,
    )


def cmd_study(args: argparse.Namespace) -> int:
    from repro.studies import LedgerCorruptError, StudyLedger

    if args.action == "status":
        try:
            ledger = StudyLedger.load(args.ledger)
        except LedgerCorruptError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        _emit(args, ledger.describe(), ledger.to_dict())
        return 0 if ledger.complete else 1

    from repro.resilience import InjectedCrash
    from repro.studies import StudyInterrupted, run_study
    from repro.studies.specs import (
        load_spec,
        plan_from_spec,
        render_run,
        run_payload,
        spec_name,
        validate_spec,
    )

    faults = _fault_injector(args)
    salvaged = False
    if args.action == "run":
        spec = load_spec(args.spec)
        base = (args.spec[:-len(".json")]
                if args.spec.endswith(".json") else args.spec)
        ledger_path = args.ledger or base + ".ledger.json"
        ledger = None
    else:  # resume
        ledger_path = args.ledger
        ledger = None
        try:
            loaded = StudyLedger.load(args.ledger, faults=faults)
        except LedgerCorruptError as exc:
            if not getattr(args, "salvage", False):
                print(str(exc), file=sys.stderr)
                return 2
            from repro.resilience.salvage import (
                LedgerSalvageError,
                rebuild_ledger,
                salvage_study,
            )

            try:
                recovered = salvage_study(args.ledger)
                spec = validate_spec(recovered["spec"])
                plan = plan_from_spec(spec)
                ledger = rebuild_ledger(
                    args.ledger,
                    plan.study,
                    spec=spec,
                    cache_dir=recovered.get("cache_dir"),
                    recovered_fingerprint=recovered.get("fingerprint"),
                )
            except (LedgerSalvageError, ValueError) as salvage_exc:
                print(f"salvage failed: {salvage_exc}", file=sys.stderr)
                return 2
            loaded = ledger
            salvaged = True
            print(
                f"salvaged corrupt ledger (backup at {args.ledger}.corrupt); "
                "finished jobs will be restored from the result store",
                file=sys.stderr,
            )
        if loaded.spec is None:
            print(f"ledger {args.ledger!r} carries no study spec; "
                  "re-run 'study run' against the original spec file",
                  file=sys.stderr)
            return 2
        spec = validate_spec(loaded.spec)
        if loaded.cache_dir and args.cache_dir == ".repro_cache":
            args.cache_dir = loaded.cache_dir
    plan = plan_from_spec(spec)
    if ledger is None:
        try:
            ledger = StudyLedger.for_study(
                plan.study, path=ledger_path, spec=spec,
                cache_dir=args.cache_dir
            )
        except LedgerCorruptError as exc:
            # 'study run' pointed at a ledger a previous faulted run tore
            # mid-flush: the error already names the salvage command.
            print(str(exc), file=sys.stderr)
            return 2
    exec_kwargs = _executor_kwargs(args)
    cache = exec_kwargs.get("cache")
    if args.fail_fast:
        on_error = "raise"
    elif getattr(args, "quarantine", False):
        on_error = "quarantine"
    else:
        on_error = "continue"

    def run_plan(registry):
        try:
            return run_study(
                plan.study,
                metrics=registry,
                ledger=ledger,
                progress=_progress_printer(),
                max_jobs=args.max_jobs,
                on_error=on_error,
                faults=faults,
                retry_policy=_retry_policy(args),
                **exec_kwargs,
            )
        except StudyInterrupted as exc:
            return exc.run

    try:
        run = _run_recorded(args, run_plan, lambda run: dict(
            experiment=f"study:{spec_name(spec)}",
            config_fingerprint=plan.study.fingerprint(),
            seeds=sorted({j.seed for j in plan.study.jobs
                          if j.seed is not None}),
            extra={
                "ledger": ledger_path,
                "executed": len(run.executed),
                "cached": len(run.cached),
                "failed": len(run.failed),
                "quarantined": len(run.quarantined),
                "retries": run.retries,
                "backoff_s": run.backoff_s,
                "pool_degraded": run.pool_degraded,
                "interrupted": run.interrupted,
                "cache_disabled": bool(cache is not None and cache.disabled),
                "cache_quarantined": int(getattr(cache, "quarantined", 0)
                                         if cache is not None else 0),
                "fault_plan": (faults.plan.name
                               if faults is not None else None),
                "fault_fires": (faults.fire_count
                                if faults is not None else 0),
                "salvaged": salvaged,
            },
        ))
    except InjectedCrash as exc:
        # A --fault-plan simulated the process dying. The ledger on disk
        # is the resumable state a real kill would leave behind.
        print(f"study killed by injected fault: {exc}", file=sys.stderr)
        print(f"resume with: study resume {ledger_path}", file=sys.stderr)
        return 4
    payload = run_payload(spec, plan, run)
    payload["ledger"] = ledger_path
    payload["cache_quarantined"] = int(getattr(cache, "quarantined", 0)
                                       if cache is not None else 0)
    if faults is not None:
        payload["faults"] = faults.summary()
    if salvaged:
        payload["salvaged"] = True
    _emit(args, render_run(spec, plan, run), payload)
    if run.failed or run.quarantined:
        return 1
    return 3 if not run.complete else 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.parallel import cache_stats, prune_cache, verify_store

    if args.action == "verify":
        summary = verify_store(args.cache_dir)
        _emit(
            args,
            f"verified {summary['scanned']} entries at {args.cache_dir!r}: "
            f"{summary['ok']} ok, {summary['quarantined']} quarantined",
            dict(summary, root=args.cache_dir),
        )
        return 1 if summary["quarantined"] else 0

    if args.action == "stats":
        stats = cache_stats(args.cache_dir)
        lines = [
            f"job-result store at {stats['root']!r}: "
            f"{stats['entries']} entries, {stats['bytes']} bytes"
            + (f", {stats['quarantined']} quarantined"
               if stats.get("quarantined") else ""),
        ]
        last = stats.get("last_run")
        if last:
            lines.append(
                f"last run: {last.get('hits', 0)} hits / "
                f"{last.get('misses', 0)} misses "
                f"(hit rate {last.get('hit_rate', 0.0):.0%}"
                + (", DISABLED mid-run" if last.get("disabled") else "")
                + ")"
            )
        else:
            lines.append("last run: no stats recorded yet")
        _emit(args, "\n".join(lines), stats)
        return 0
    # action == "prune"
    if args.older_than is None and args.max_bytes is None:
        print("prune needs --older-than DAYS and/or --max-bytes N",
              file=sys.stderr)
        return 2
    summary = prune_cache(
        args.cache_dir,
        older_than_s=(args.older_than * 86400.0
                      if args.older_than is not None else None),
        max_bytes=args.max_bytes,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    _emit(
        args,
        f"{verb} {summary['removed']}/{summary['scanned']} entries "
        f"({summary['bytes_removed']} bytes), "
        f"{summary['bytes_kept']} bytes kept",
        dict(summary, dry_run=args.dry_run),
    )
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    from repro.experiments.fault_injection import (
        FaultInjectionExperimentConfig as _FIConfig,
    )
    from repro.experiments.montecarlo import run_monte_carlo

    spec = _scenario_of(args)
    seeds = list(range(args.base_seed, args.base_seed + args.runs))
    registry = _metrics_registry(args)
    study = run_monte_carlo(seeds=seeds, hours=args.hours,
                            base_config=(
                                _FIConfig(scenario=spec) if spec else None
                            ),
                            metrics=registry, **_executor_kwargs(args))
    _write_metrics(args, registry, study.manifest)
    payload = {
        "seeds": seeds,
        "bounded_rate": study.bounded_rate,
        "verdict": study.verdict,
        "mean_of_means_ns": study.mean_of_means(),
        "worst_max_ns": study.worst_max(),
        "outcomes": [
            {
                "seed": o.seed,
                "violations": o.violations,
                "mean_ns": o.mean_ns,
                "max_ns": o.max_ns,
                "verdict": o.verdict,
            }
            for o in study.outcomes
        ],
    }
    _emit(args, study.to_text(), payload)
    return 0 if study.bounded_rate == 1.0 else 1


def cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import list_scenarios, resolve_scenario

    if args.action == "list":
        specs = list_scenarios()
        lines = [
            f"{spec.name:<12} {spec.topology:<5} N={spec.n_devices} "
            f"M={spec.effective_domains} f={spec.f} "
            f"fp={spec.fingerprint()[:12]}  {spec.description}"
            for spec in specs
        ]
        payload = {
            spec.name: {
                "topology": spec.topology,
                "n_devices": spec.n_devices,
                "n_domains": spec.effective_domains,
                "f": spec.f,
                "fingerprint": spec.fingerprint(),
                "description": spec.description,
            }
            for spec in specs
        }
        _emit(args, "\n".join(lines), payload)
        return 0
    # action == "show"
    spec = resolve_scenario(args.name)
    doc = spec.to_dict()
    doc["fingerprint"] = spec.fingerprint()
    try:
        doc["trunks"] = [list(pair) for pair in spec.trunk_pairs()]
    except ValueError:
        pass  # seed-dependent trunks (random_geometric) need a built topology
    _emit(args, json.dumps(doc, indent=2, sort_keys=True), doc)
    return 0


def cmd_vulnerabilities(args: argparse.Namespace) -> int:
    from repro.security.diversity import (
        shared_vulnerabilities,
        vulnerabilities_of,
    )
    from repro.security.kernels import VULNERABILITY_DB

    if args.compare:
        a, b = args.compare
        shared = shared_vulnerabilities(a, b)
        text = (
            f"{a}: {vulnerabilities_of(a)}\n"
            f"{b}: {vulnerabilities_of(b)}\n"
            f"shared: {shared or 'none'}"
        )
        payload = {
            a: vulnerabilities_of(a),
            b: vulnerabilities_of(b),
            "shared": shared,
        }
    elif args.kernel:
        cves = vulnerabilities_of(args.kernel)
        text = f"{args.kernel}: {cves or 'no known CVEs in database'}"
        payload = {args.kernel: cves}
    else:
        text = "\n".join(
            f"{cve}: {v.description}" for cve, v in sorted(VULNERABILITY_DB.items())
        )
        payload = {
            cve: v.description for cve, v in VULNERABILITY_DB.items()
        }
    _emit(args, text, payload)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Reproduction toolkit for 'IEEE 802.1AS Multi-Domain "
        "Aggregation for Virtualized Distributed Real-Time Systems' "
        "(DSN-S 2023).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", metavar="NAME|PATH",
                       help="run on a registered scenario or a JSON spec "
                            "file instead of the paper's mesh4 testbed "
                            "(see 'repro-sim scenarios list')")

    def add_fidelity_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fidelity", choices=["full", "adaptive"],
                       default="full",
                       help="simulation tier: 'full' replays every event "
                            "(byte-identical, the default); 'adaptive' "
                            "fast-forwards provably quiescent stretches "
                            "under a documented tolerance (see "
                            "EXPERIMENTS.md, 'Scaling and fidelity tiers')")

    p = sub.add_parser("survey", help="latency survey + §III-A3 bound derivation")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--warmup", type=float, default=30.0, help="seconds")
    add_scenario_flag(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("cyber", help="§III-B cyber-resilience experiment")
    p.add_argument("--policy", choices=["identical", "diverse"],
                   default="identical")
    p.add_argument("--scale", type=float, default=0.2,
                   help="timeline compression (1.0 = the paper's hour)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--series", action="store_true")
    add_scenario_flag(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cyber)

    p = sub.add_parser("faults", help="§III-C fault injection experiment")
    p.add_argument("--hours", type=float, default=0.5)
    p.add_argument("--compress", action="store_true",
                   help="compress the 24h schedule into --hours")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--series", action="store_true")
    p.add_argument("--histogram", action="store_true")
    p.add_argument("--timeline", action="store_true")
    p.add_argument("--metrics", metavar="PATH",
                   help="record run metrics and write them to PATH "
                        "(.csv → CSV, anything else → JSON)")
    add_scenario_flag(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("baselines", help="architecture vs baselines")
    p.add_argument("--minutes", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=1)
    add_scenario_flag(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_baselines)

    p = sub.add_parser("export", help="run fault injection and dump CSV bundle")
    p.add_argument("output", help="output directory")
    p.add_argument("--hours", type=float, default=0.25)
    p.add_argument("--compress", action="store_true",
                   help="compress the 24h schedule into --hours")
    p.add_argument("--seed", type=int, default=1)
    add_scenario_flag(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_export)

    def add_chaos_run_flags(p: argparse.ArgumentParser) -> None:
        """The flags of the one run ``chaos`` and ``campaign`` share."""
        p.add_argument("--duration", type=float, default=480.0,
                       help="seconds of simulated time (default: %(default)s)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--metrics", metavar="PATH",
                       help="record run metrics and write them to PATH "
                            "(.csv → CSV, anything else → JSON)")
        add_scenario_flag(p)
        add_fidelity_flag(p)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("chaos", help="chaos plan under the invariant monitor")
    p.add_argument("--plan", metavar="PATH",
                   help="declarative chaos plan JSON "
                        "(see repro.chaos.dump_plan)")
    p.add_argument("--loss", type=float, default=None, metavar="P",
                   help="shortcut: impair every trunk with Bernoulli "
                        "loss rate P instead of loading a plan")
    p.add_argument("--loss-start", type=float, default=60.0,
                   help="seconds before the --loss impairment attaches "
                        "(default: %(default)s)")
    p.add_argument("--loss-end", type=float, default=None,
                   help="seconds at which the --loss impairment clears "
                        "(default: never)")
    add_chaos_run_flags(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("campaign",
                       help="adversary campaign under the invariant monitor")
    p.add_argument("--file", metavar="PATH", default=None,
                   help="campaign JSON (see repro.security.dump_campaign)")
    p.add_argument("--colluders", type=_nonnegative_int, default=None,
                   metavar="K",
                   help="shortcut: K colluding in-window grandmasters "
                        "instead of loading a campaign file")
    p.add_argument("--margin", type=float, default=0.8,
                   help="colluder shift as a fraction of the validity "
                        "window (default: %(default)s)")
    p.add_argument("--start", type=float, default=60.0,
                   help="seconds before the colluders turn (default: "
                        "%(default)s)")
    p.add_argument("--stop", type=float, default=None,
                   help="seconds at which the colluders stop (default: "
                        "never)")
    add_chaos_run_flags(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("linkfail", help="trunk-failure experiment")
    p.add_argument("--trunk", nargs=2, default=None,
                   metavar=("A", "B"),
                   help="victim trunk (default: first trunk not touching "
                        "the measurement switch — sw1 sw3 on the mesh)")
    p.add_argument("--seed", type=int, default=1)
    add_scenario_flag(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_linkfail)

    def add_executor_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=_nonnegative_int, default=0,
                       metavar="N",
                       help="shard arms across N worker processes "
                            "(0/1 = serial, the default)")
        p.add_argument("--no-cache", action="store_true",
                       help="recompute every arm instead of reusing "
                            "cached per-arm results")
        p.add_argument("--cache-dir", default=".repro_cache",
                       help="results cache location "
                            "(default: %(default)s)")
        p.add_argument("--metrics", metavar="PATH",
                       help="record run metrics and write them to PATH "
                            "(.csv → CSV, anything else → JSON)")

    def add_resilience_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fault-plan", metavar="PATH", default=None,
                       help="inject deterministic harness faults from a "
                            "fault-plan JSON (see repro.resilience; "
                            "examples/faultplans/)")
        p.add_argument("--fault-salt", type=_nonnegative_int, default=0,
                       metavar="N",
                       help="salt mixed into the fault plan's RNG streams "
                            "(vary per resume round for fresh but "
                            "deterministic draws)")
        p.add_argument("--retries", type=_nonnegative_int, default=None,
                       metavar="N",
                       help="extra attempts per job after a crash, timeout, "
                            "or (serial) task exception")
        p.add_argument("--retry-backoff", type=float, default=None,
                       metavar="S",
                       help="base seconds of exponential backoff between "
                            "attempts (deterministic seeded jitter)")
        p.add_argument("--quarantine", action="store_true",
                       help="park jobs that fail every attempt as "
                            "'quarantined' in the ledger and finish the "
                            "study with a partial verdict")

    p = sub.add_parser("sweep", help="design-space parameter sweeps")
    p.add_argument("study", metavar="STUDY", choices=_SweepStudies(),
                   help="one of: %(choices)s")
    p.add_argument("--seed", type=int, default=9)
    p.add_argument("--duration", type=float, default=None,
                   help="seconds of simulated time per point (default: the "
                        "study's own, see EXPERIMENTS.md; for 'envelope' "
                        "this sets the clean arms only, the adversarial arm "
                        "keeps the attackbudget arms' duration)")
    add_scenario_flag(p)
    add_fidelity_flag(p)
    add_executor_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("montecarlo", help="multi-seed fault-injection study")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--base-seed", type=int, default=100)
    p.add_argument("--hours", type=float, default=0.1,
                   help="compressed simulated hours per run")
    add_scenario_flag(p)
    add_executor_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("study",
                       help="resumable spec-driven studies "
                            "(submit → schedule → collect pipeline)")
    study_sub = p.add_subparsers(dest="action", required=True)
    pr = study_sub.add_parser(
        "run", help="run a study spec JSON through the pipeline")
    pr.add_argument("spec", help="study spec JSON "
                                 "(see repro.studies.specs)")
    pr.add_argument("--ledger", metavar="PATH", default=None,
                    help="ledger journal location (default: SPEC with "
                         ".ledger.json suffix)")
    pr.add_argument("--max-jobs", type=_nonnegative_int, default=None,
                    metavar="N",
                    help="stop after N fresh jobs (cache hits are free); "
                         "the run exits 3 and resumes from the ledger")
    pr.add_argument("--fail-fast", action="store_true",
                    help="abort on the first failed job instead of "
                         "marking it failed and continuing")
    add_resilience_flags(pr)
    add_executor_flags(pr)
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=cmd_study)
    pst = study_sub.add_parser("status", help="print a study ledger")
    pst.add_argument("ledger", help="ledger JSON written by 'study run'")
    pst.add_argument("--json", action="store_true")
    pst.set_defaults(func=cmd_study)
    prs = study_sub.add_parser(
        "resume", help="re-submit only the unfinished jobs of a ledger")
    prs.add_argument("ledger", help="ledger JSON written by 'study run'")
    prs.add_argument("--max-jobs", type=_nonnegative_int, default=None,
                     metavar="N",
                     help="stop again after N fresh jobs")
    prs.add_argument("--fail-fast", action="store_true",
                     help="abort on the first failed job")
    prs.add_argument("--salvage", action="store_true",
                     help="rebuild a torn/corrupt ledger from its embedded "
                          "spec (finished jobs come back from the result "
                          "store); the corrupt file is kept as "
                          "LEDGER.corrupt")
    add_resilience_flags(prs)
    add_executor_flags(prs)
    prs.add_argument("--json", action="store_true")
    prs.set_defaults(func=cmd_study)

    p = sub.add_parser("cache", help="job-result store maintenance")
    cache_sub = p.add_subparsers(dest="action", required=True)
    pcs = cache_sub.add_parser("stats", help="entry/byte counts and the "
                                             "last run's hit rate")
    pcs.add_argument("--cache-dir", default=".repro_cache",
                     help="store location (default: %(default)s)")
    pcs.add_argument("--json", action="store_true")
    pcs.set_defaults(func=cmd_cache)
    pcv = cache_sub.add_parser(
        "verify", help="checksum-sweep the store; quarantine corrupt "
                       "entries (exit 1 if any)")
    pcv.add_argument("--cache-dir", default=".repro_cache",
                     help="store location (default: %(default)s)")
    pcv.add_argument("--json", action="store_true")
    pcv.set_defaults(func=cmd_cache)
    pcp = cache_sub.add_parser("prune", help="garbage-collect the store")
    pcp.add_argument("--cache-dir", default=".repro_cache",
                     help="store location (default: %(default)s)")
    pcp.add_argument("--older-than", type=float, default=None,
                     metavar="DAYS",
                     help="remove entries older than DAYS")
    pcp.add_argument("--max-bytes", type=int, default=None, metavar="N",
                     help="evict oldest-first until the store fits N bytes")
    pcp.add_argument("--dry-run", action="store_true",
                     help="report what would be removed without removing")
    pcp.add_argument("--json", action="store_true")
    pcp.set_defaults(func=cmd_cache)

    p = sub.add_parser("scenarios", help="named scenario registry")
    scen_sub = p.add_subparsers(dest="action", required=True)
    pl = scen_sub.add_parser("list", help="list registered scenarios")
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(func=cmd_scenarios)
    ps = scen_sub.add_parser("show", help="dump one scenario as JSON")
    ps.add_argument("name", help="registered name or path to a spec file")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("vulnerabilities", help="kernel/CVE database queries")
    p.add_argument("--kernel", help="list CVEs affecting one kernel")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="shared CVEs between two kernels")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_vulnerabilities)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (console script)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
