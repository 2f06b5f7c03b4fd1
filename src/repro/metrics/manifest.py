"""Per-run manifest: what ran, with which knobs, how fast.

A manifest travels next to the metric series in every export so a results
file is self-describing: the configuration fingerprint ties it back to the
exact experiment arms (the same SHA-256 the results cache keys on), the
seed list makes the run reproducible, and the wall-time/throughput figures
let regressions in the harness itself show up in dashboards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: Bump when the exported metrics document shape changes.
#: v3: optional ``bounds`` / ``predicted_bounds`` blocks (measured §III-A3
#: figures and the closed-form prediction from analysis.bounds_theory).
METRICS_SCHEMA_VERSION = 3


@dataclass
class RunManifest:
    """Provenance record for one experiment run."""

    experiment: str
    config_fingerprint: str
    seeds: List[int] = field(default_factory=list)
    sim_duration_ns: Optional[int] = None
    wall_time_s: Optional[float] = None
    events_dispatched: Optional[int] = None
    #: Scenario identity (name + canonical-JSON SHA-256) when the run was
    #: driven by a :class:`repro.scenarios.ScenarioSpec`.
    scenario: Optional[str] = None
    scenario_fingerprint: Optional[str] = None
    #: Online invariant-monitor outcome: PASS / DEGRADED / FAIL (None for
    #: runs that attached no monitor).
    verdict: Optional[str] = None
    #: Structured verdict context (first violation, per-invariant counts,
    #: status timeline) — :meth:`repro.monitoring.Verdict.to_dict`.
    verdict_detail: Optional[Dict[str, object]] = None
    #: Measured §III-A3 bound figures for the run's testbed
    #: (:meth:`repro.measurement.bounds.ExperimentBounds.to_dict`) and the
    #: closed-form prediction for the same scenario
    #: (:meth:`repro.analysis.bounds_theory.TheoreticalBounds.to_dict`).
    #: None for runs that derived no bounds.
    bounds: Optional[Dict[str, object]] = None
    predicted_bounds: Optional[Dict[str, object]] = None
    schema_version: int = METRICS_SCHEMA_VERSION
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> Optional[float]:
        if not self.wall_time_s or self.events_dispatched is None:
            return None
        return self.events_dispatched / self.wall_time_s

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config_fingerprint": self.config_fingerprint,
            "seeds": list(self.seeds),
            "sim_duration_ns": self.sim_duration_ns,
            "wall_time_s": self.wall_time_s,
            "events_dispatched": self.events_dispatched,
            "events_per_sec": self.events_per_sec,
            "scenario": self.scenario,
            "scenario_fingerprint": self.scenario_fingerprint,
            "verdict": self.verdict,
            "verdict_detail": self.verdict_detail,
            "bounds": self.bounds,
            "predicted_bounds": self.predicted_bounds,
            "schema_version": self.schema_version,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "RunManifest":
        """Rebuild from :meth:`to_dict` output (round-trip pinned in tests)."""
        return cls(
            experiment=str(doc["experiment"]),
            config_fingerprint=str(doc["config_fingerprint"]),
            seeds=[int(s) for s in doc.get("seeds", [])],  # type: ignore[union-attr]
            sim_duration_ns=doc.get("sim_duration_ns"),  # type: ignore[arg-type]
            wall_time_s=doc.get("wall_time_s"),  # type: ignore[arg-type]
            events_dispatched=doc.get("events_dispatched"),  # type: ignore[arg-type]
            scenario=doc.get("scenario"),  # type: ignore[arg-type]
            scenario_fingerprint=doc.get("scenario_fingerprint"),  # type: ignore[arg-type]
            verdict=doc.get("verdict"),  # type: ignore[arg-type]
            verdict_detail=doc.get("verdict_detail"),  # type: ignore[arg-type]
            bounds=doc.get("bounds"),  # type: ignore[arg-type]
            predicted_bounds=doc.get("predicted_bounds"),  # type: ignore[arg-type]
            schema_version=int(doc.get("schema_version", METRICS_SCHEMA_VERSION)),  # type: ignore[arg-type]
            extra=dict(doc.get("extra", {})),  # type: ignore[arg-type]
        )


def run_manifest(
    registry,
    experiment: str,
    config_fingerprint: str,
    wall_time_s: Optional[float],
    seeds: Iterable[int] = (),
    sim_duration_ns: Optional[int] = None,
    scenario=None,
    verdict: Optional[str] = None,
    verdict_detail: Optional[Dict[str, object]] = None,
    bounds=None,
    extra: Optional[Dict[str, Any]] = None,
) -> RunManifest:
    """The :class:`RunManifest` of a run that recorded into ``registry``.

    ``events_dispatched`` is the registry's ``experiment.events_dispatched``
    counter (``None`` when no run fed it). ``scenario`` is the run's
    :class:`repro.scenarios.ScenarioSpec`, or ``None``. ``bounds`` is the
    run's :class:`repro.measurement.bounds.ExperimentBounds`, or ``None``:
    its measured figures become ``bounds`` and its closed-form prediction
    ``predicted_bounds``.
    """
    events = registry.counters.get("experiment.events_dispatched")
    measured = predicted = None
    if bounds is not None:
        measured = bounds.to_dict()
        predicted = measured.pop("predicted", None)
    return RunManifest(
        experiment=experiment,
        config_fingerprint=config_fingerprint,
        seeds=list(seeds),
        sim_duration_ns=sim_duration_ns,
        wall_time_s=wall_time_s,
        events_dispatched=events.value if events is not None else None,
        scenario=scenario.name if scenario is not None else None,
        scenario_fingerprint=(
            scenario.fingerprint() if scenario is not None else None
        ),
        verdict=verdict,
        verdict_detail=verdict_detail,
        bounds=measured,
        predicted_bounds=predicted,
        extra=dict(extra or {}),
    )
