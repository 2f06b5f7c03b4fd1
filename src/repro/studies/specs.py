"""JSON study specs: declarative inputs for ``repro-sim study run``.

A spec is a small JSON document naming a study *kind* plus its knobs; it
compiles into a :class:`repro.studies.StudyPlan` through the kind's one
compiler — ``compile_monte_carlo``, ``compile_axis``, ``compile_envelope``
or ``compile_chaos_study`` — which the library entry points and the CLI
use too, so a spec-driven CLI study is byte-identical to the equivalent
``run_monte_carlo`` / ``sweep_axis`` / ``sweep_envelope`` call or chaos
study. A field the spec leaves out takes the compiler's default, except
``montecarlo``'s ``hours``, which defaults to 0.1 here. The spec is
embedded in the study ledger verbatim, which is what makes ``repro study
resume LEDGER`` self-contained: the ledger alone recompiles the job set,
and the fingerprint check proves it is the *same* job set.

Kinds and their fields (all durations in seconds of simulated time):

``montecarlo``
    ``seeds`` (list) or ``base_seed``+``runs``; ``hours``; ``scenario``.
``sweep``
    ``study`` (a key of :data:`repro.experiments.sweeps.SWEEP_AXES`);
    ``values`` (optional axis override, in the axis's units); ``seed``;
    ``duration_s`` (default: the axis's own); ``warmup_records``;
    ``fidelity``; ``scenario``.
``envelope``
    ``scenarios`` (list); ``seed``; ``duration_s``; ``attack_check``;
    ``attack_colluders``; ``fidelity``.
``chaos``
    ``seeds`` (list); ``duration_s``; ``scenario``; ``fidelity``; and the
    impairment — ``loss`` (+ ``loss_start_s``) and/or ``colluders``
    (+ ``margin``, ``attack_start_s``).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.sim.timebase import SECONDS
from repro.studies.core import StudyPlan

SPEC_SCHEMA_VERSION = 1

KINDS = ("montecarlo", "sweep", "envelope", "chaos")


def load_spec(path: str) -> Dict[str, Any]:
    """Read and validate a study-spec JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return validate_spec(spec)


def validate_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Shape-check a spec document; returns it unchanged on success."""
    if not isinstance(spec, dict):
        raise ValueError("study spec must be a JSON object")
    version = spec.get("schema_version", SPEC_SCHEMA_VERSION)
    if version != SPEC_SCHEMA_VERSION:
        raise ValueError(
            f"study spec schema {version!r} unsupported "
            f"(expected {SPEC_SCHEMA_VERSION})"
        )
    kind = spec.get("kind")
    if kind not in KINDS:
        raise ValueError(
            f"unknown study kind {kind!r} (expected one of {', '.join(KINDS)})"
        )
    return spec


def spec_name(spec: Dict[str, Any]) -> str:
    """Display name: explicit ``name`` or a kind-derived default."""
    if spec.get("name"):
        return str(spec["name"])
    if spec["kind"] == "sweep":
        return f"sweep:{spec.get('study', '?')}"
    return str(spec["kind"])


def _ns(seconds) -> int:
    return round(float(seconds) * SECONDS)


def _same(value: Any) -> Any:
    return value


def _given(spec: Dict[str, Any], fields) -> Dict[str, Any]:
    """Keyword arguments from the ``fields`` that ``spec`` sets: each maps
    a spec field to its keyword and a converter, so a field left out keeps
    the compiler's own default."""
    return {keyword: convert(spec[name])
            for name, (keyword, convert) in fields.items() if name in spec}


def _plan_montecarlo(spec: Dict[str, Any]) -> StudyPlan:
    from repro.experiments.fault_injection import (
        FaultInjectionExperimentConfig,
    )
    from repro.experiments.montecarlo import compile_monte_carlo

    seeds = spec.get("seeds")
    if seeds is None:
        base_seed = int(spec.get("base_seed", 100))
        seeds = list(range(base_seed, base_seed + int(spec.get("runs", 5))))
    base_config = None
    if spec.get("scenario"):
        from repro.scenarios import resolve_scenario

        base_config = FaultInjectionExperimentConfig(
            scenario=resolve_scenario(spec["scenario"])
        )
    return compile_monte_carlo(
        [int(seed) for seed in seeds],
        base_config=base_config,
        hours=float(spec.get("hours", 0.1)),
    )


def _plan_sweep(spec: Dict[str, Any]) -> StudyPlan:
    from repro.experiments.sweeps import compile_axis

    return compile_axis(spec.get("study"), **_given(spec, {
        "values": ("values", _same),
        "seed": ("seed", int),
        "scenario": ("scenario", _same),
        "duration_s": ("duration", _ns),
        "warmup_records": ("warmup_records", int),
        "fidelity": ("fidelity", _same),
    }))


def _plan_envelope(spec: Dict[str, Any]) -> StudyPlan:
    from repro.experiments.sweeps import compile_envelope

    return compile_envelope(**_given(spec, {
        "scenarios": ("scenarios", tuple),
        "seed": ("seed", int),
        "duration_s": ("duration", _ns),
        "warmup_records": ("warmup_records", int),
        "attack_check": ("attack_check", bool),
        "attack_colluders": ("attack_colluders", int),
        "fidelity": ("fidelity", _same),
    }))


def _plan_chaos(spec: Dict[str, Any]) -> StudyPlan:
    from repro.experiments.chaos import (
        ChaosExperimentConfig,
        compile_chaos_study,
    )

    scenario = None
    if spec.get("scenario"):
        from repro.scenarios import resolve_scenario

        scenario = resolve_scenario(spec["scenario"])
    plan = None
    if spec.get("loss") is not None:
        from repro.chaos.plan import single_loss_plan

        plan = single_loss_plan(
            float(spec["loss"]),
            **_given(spec, {"loss_start_s": ("start", _ns)}),
        )
    campaign = None
    if spec.get("colluders"):
        from repro.experiments.testbed import resolve_testbed_config
        from repro.security.campaigns import colluder_campaign

        campaign = colluder_campaign(
            int(spec["colluders"]),
            resolve_testbed_config(scenario).gm_names(),
            **_given(spec, {"margin": ("margin", float),
                            "attack_start_s": ("start", _ns)}),
        )
    run = _given(spec, {"duration_s": ("duration", _ns),
                        "fidelity": ("fidelity", _same)})
    return compile_chaos_study([
        ChaosExperimentConfig(seed=int(seed), scenario=scenario, plan=plan,
                              campaign=campaign, **run)
        for seed in spec.get("seeds", [1])
    ])


_PLANNERS = {
    "montecarlo": _plan_montecarlo,
    "sweep": _plan_sweep,
    "envelope": _plan_envelope,
    "chaos": _plan_chaos,
}


def plan_from_spec(spec: Dict[str, Any]) -> StudyPlan:
    """Compile a validated spec into its :class:`StudyPlan`."""
    spec = validate_spec(spec)
    return _PLANNERS[spec["kind"]](spec)


def run_payload(spec: Dict[str, Any], plan: StudyPlan, run) -> Dict[str, Any]:
    """JSON-able outcome of a (possibly partial) spec-driven run.

    A complete run collects through the compiler — the rows/outcomes are
    exactly what the library entry point would have returned — while a
    partial or failed run degrades to per-job ledger-style statuses, so
    ``study run`` output is always well-formed.
    """
    study = plan.study
    payload: Dict[str, Any] = {
        "kind": spec["kind"],
        "name": spec_name(spec),
        "fingerprint": study.fingerprint(),
        "jobs": len(study.jobs),
        "executed": len(run.executed),
        "cached": len(run.cached),
        "failed": len(run.failed),
        "quarantined": len(run.quarantined),
        "retries": run.retries,
        "backoff_s": run.backoff_s,
        "interrupted": run.interrupted,
        "complete": run.complete,
    }
    if run.quarantined and run.results and plan.study.summarize:
        # The partial verdict a quarantined study still delivers: the
        # worst per-job verdict over the jobs that did finish.
        verdicts = [
            (plan.study.summarize(result) or {}).get("verdict")
            for result in run.results.values()
        ]
        verdicts = [v for v in verdicts if v]
        if verdicts:
            order = {"FAIL": 0, "DEGRADED": 1, "PASS": 2}
            payload["partial_verdict"] = min(
                verdicts, key=lambda v: order.get(v, 0)
            )
            payload["partial_over_jobs"] = len(run.results)
    if run.complete:
        result = plan.collect(run)
        if spec["kind"] == "montecarlo":
            payload["result"] = {
                "bounded_rate": result.bounded_rate,
                "verdict": result.verdict,
                "mean_of_means_ns": result.mean_of_means(),
                "worst_max_ns": result.worst_max(),
                "outcomes": [
                    study.encode(outcome) for outcome in result.outcomes
                ],
            }
        else:
            payload["result"] = {"rows": [row.as_dict() for row in result]}
            if spec["kind"] == "envelope":
                from repro.experiments.sweeps import envelope_verdict

                payload["result"]["verdict"] = envelope_verdict(result)
    else:
        payload["errors"] = {
            key: f"{type(exc).__name__}: {exc}"
            for key, exc in run.errors.items()
        }
    return payload


def render_run(spec: Dict[str, Any], plan: StudyPlan, run) -> str:
    """Human-readable outcome block for ``study run`` / ``resume``."""
    study = plan.study
    quarantined = (f", {len(run.quarantined)} quarantined"
                   if run.quarantined else "")
    retried = f", {run.retries} retries" if run.retries else ""
    head = (
        f"study {spec_name(spec)!r} ({study.fingerprint()[:12]}): "
        f"{len(run.results)}/{len(study.jobs)} done "
        f"({len(run.executed)} executed, {len(run.cached)} cached, "
        f"{len(run.failed)} failed{quarantined}{retried})"
    )
    if not run.complete:
        if run.quarantined:
            state = (f"{len(run.quarantined)} jobs quarantined "
                     "(poisoned; errors in the ledger)")
        elif run.interrupted:
            state = "interrupted"
        else:
            state = "incomplete"
        return f"{head} — {state}; resume with 'study resume LEDGER'"
    result = plan.collect(run)
    if spec["kind"] == "montecarlo":
        return head + "\n" + result.to_text()
    if spec["kind"] == "sweep":
        from repro.experiments.sweeps import render_rows

        return head + "\n" + render_rows(result)
    if spec["kind"] == "envelope":
        from repro.analysis.report import render_envelope
        from repro.experiments.sweeps import envelope_verdict

        return (head + "\n" + render_envelope(result)
                + f"\nenvelope verdict: {envelope_verdict(result)}")
    lines = [head]
    for row in result:
        lines.append(
            f"  {row.label}: verdict={row.verdict} probes={row.probes} "
            f"max={row.max_precision_ns:.0f}ns "
            f"({'within' if row.bounded else 'VIOLATES'} "
            f"bound={row.bound_ns:.0f}ns)"
        )
    return "\n".join(lines)
