"""Declarative, schema-versioned adversary campaigns.

An :class:`AttackCampaign` is the attack-side sibling of
:class:`~repro.chaos.plan.ChaosPlan`: a named, serializable schedule of
:class:`AttackStage` entries — each one attack primitive from
:mod:`repro.security.attacks` with a start time, an optional stop time, and
declarative targets (victim VM names for the GM-side attacks; the chaos
plan's link selector grammar for the on-path taps).

Campaigns do not execute themselves. :meth:`AttackCampaign.compile` lowers
a campaign to plain chaos-plan ``attack`` / ``attack_stop`` stages, which
the existing :class:`~repro.chaos.orchestrator.ChaosOrchestrator` runs —
so campaigns compose with impairment schedules (via
:func:`~repro.chaos.plan.merge_plans`), ride on
:class:`~repro.scenarios.spec.ScenarioSpec` (entering the scenario
fingerprint and every cache key), and are graded by the same invariant
monitor as everything else.

:func:`colluder_campaign` builds the worst-case adversary of the
``attackbudget`` breaking-point sweep: ``k`` grandmasters steering a
common constant shift chosen *inside* the FTA/validity drop window, so
they are never invalidated and only the trim can mask them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.chaos.plan import (
    ATTACK_KINDS,
    GM_ATTACK_KINDS,
    ChaosPlan,
    ChaosStage,
    _check_vm_names,
)
from repro.core.validity import ValidityConfig
from repro.sim.timebase import SECONDS

CAMPAIGN_SCHEMA_VERSION = 1

#: Stage parameters that stay out of the serialized form at their default
#: value, keeping campaign JSON (and fingerprints) minimal and stable.
_STAGE_DEFAULTS: Dict[str, Any] = {
    "stop": None,
    "victims": (),
    "links": (),
    "label": None,
    "step_per_update": -100,
    "amplitude": 10_000,
    "period_updates": 16,
    "shift": -4_000,
    "observer": None,
    "domains": (),
    "drop_prob": 1.0,
    "extra_delay": 20_000,
    "tunnel_delay": 0,
    "dest": None,
}


@dataclass(frozen=True)
class AttackStage:
    """One attack of a campaign: a primitive, a window, and its targets.

    Attributes
    ----------
    start:
        Simulation time (ns) the attack launches.
    stop:
        Optional time the attack is stopped (``None`` = runs to the end).
    kind:
        One of :data:`~repro.chaos.plan.ATTACK_KINDS`.
    victims:
        Clock-sync VM names to compromise (GM-side kinds).
    links:
        Link selectors to tap (on-path kinds; chaos-plan grammar).
    label:
        Handle used to stop exactly this attack; defaults to
        ``"<kind>@<index>"`` at compile time.
    step_per_update / amplitude / period_updates:
        Ramp / oscillation steering parameters.
    shift:
        Constant origin shift of collude/adaptive, ns (default 80% of the
        validity window — in-window by construction).
    observer:
        Foothold VM of the adaptive attack (default: first victim).
    domains:
        gPTP domains an on-path tap targets (empty = all).
    drop_prob:
        Suppression probability of the ``suppress`` kind.
    extra_delay:
        Added Sync/Follow_Up latency of the ``delay`` kind, ns.
    tunnel_delay / dest:
        Replay latency and destination link selector of the ``wormhole``.
    """

    start: int
    kind: str
    stop: Optional[int] = None
    victims: Tuple[str, ...] = ()
    links: Tuple[str, ...] = ()
    label: Optional[str] = None
    step_per_update: int = -100
    amplitude: int = 10_000
    period_updates: int = 16
    shift: int = -4_000
    observer: Optional[str] = None
    domains: Tuple[int, ...] = ()
    drop_prob: float = 1.0
    extra_delay: int = 20_000
    tunnel_delay: int = 0
    dest: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("victims", "links", "domains"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if self.start < 0:
            raise ValueError(
                f"stage start must be nonnegative, got {self.start}"
            )
        if self.stop is not None and self.stop <= self.start:
            raise ValueError(
                f"stage stop ({self.stop}) must come after start "
                f"({self.start})"
            )
        if self.kind not in ATTACK_KINDS:
            raise ValueError(
                f"unknown attack kind {self.kind!r}; "
                f"expected one of {ATTACK_KINDS}"
            )
        # Delegate parameter validation to the chaos-stage schema so the
        # campaign and plan layers can never drift apart; this also
        # validates victim/observer names at load time.
        self._chaos_stage(self.label)

    def _chaos_stage(self, label: Optional[str]) -> ChaosStage:
        """The ``attack`` chaos stage this campaign stage lowers to."""
        return ChaosStage(
            at=self.start,
            action="attack",
            attack=self.kind,
            victims=self.victims,
            links=self.links,
            label=label,
            step_per_update=self.step_per_update,
            amplitude=self.amplitude,
            period_updates=self.period_updates,
            shift=self.shift,
            observer=self.observer,
            domains=self.domains,
            drop_prob=self.drop_prob,
            extra_delay=self.extra_delay if self.kind == "delay" else 0,
            tunnel_delay=self.tunnel_delay,
            dest=self.dest,
        )

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"start": self.start, "kind": self.kind}
        for name, default in _STAGE_DEFAULTS.items():
            value = getattr(self, name)
            if value != default:
                doc[name] = list(value) if isinstance(value, tuple) else value
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "AttackStage":
        doc = dict(doc)
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown attack stage keys: {sorted(unknown)}")
        for name in ("victims", "links", "domains"):
            if name in doc:
                doc[name] = tuple(doc[name])
        return cls(**doc)


@dataclass(frozen=True)
class AttackCampaign:
    """A named, ordered, serializable schedule of attack stages."""

    name: str
    stages: Tuple[AttackStage, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attack campaign needs a name")
        if not isinstance(self.stages, tuple):
            object.__setattr__(self, "stages", tuple(self.stages))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "name": self.name,
            "stages": [s.to_dict() for s in self.stages],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "AttackCampaign":
        doc = dict(doc)
        version = doc.pop("schema_version", CAMPAIGN_SCHEMA_VERSION)
        if version != CAMPAIGN_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported attack campaign schema_version {version} "
                f"(this build reads {CAMPAIGN_SCHEMA_VERSION})"
            )
        unknown = set(doc) - {"name", "stages"}
        if unknown:
            raise ValueError(f"unknown attack campaign keys: {sorted(unknown)}")
        stages = tuple(
            AttackStage.from_dict(s) if isinstance(s, dict) else s
            for s in doc.get("stages", ())
        )
        return cls(name=doc["name"], stages=stages)

    def compile(self) -> ChaosPlan:
        """Lower to a chaos plan the orchestrator can execute.

        Each stage becomes a labelled ``attack`` stage at its start time
        plus, when it has a stop time, a matching labelled ``attack_stop``.
        Stages come out time-ordered (stable on ties), so merging the
        result with an impairment plan keeps both deterministic.
        """
        lowered: List[ChaosStage] = []
        for i, stage in enumerate(self.stages):
            label = stage.label or f"{stage.kind}@{i}"
            lowered.append(stage._chaos_stage(label))
            if stage.stop is not None:
                lowered.append(
                    ChaosStage(at=stage.stop, action="attack_stop",
                               label=label)
                )
        lowered.sort(key=lambda s: s.at)
        return ChaosPlan(name=f"campaign:{self.name}", stages=tuple(lowered))


def load_campaign(path: Union[str, Path]) -> AttackCampaign:
    """Read an attack campaign from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return AttackCampaign.from_dict(json.load(fh))


def dump_campaign(campaign: AttackCampaign, path: Union[str, Path]) -> None:
    """Write an attack campaign to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(campaign.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def colluder_campaign(
    colluders: int,
    gm_names: List[str],
    margin: float = 0.8,
    start: int = 60 * SECONDS,
    stop: Optional[int] = None,
    threshold: Optional[int] = None,
    name: Optional[str] = None,
) -> AttackCampaign:
    """The worst-case adversary: ``colluders`` GMs steering in-window.

    The common shift is ``-round(margin * threshold)`` — strictly inside
    the validity window for ``margin < 1``, so the colluding bloc keeps
    vouching for itself and is never excluded; only the FTA trim stands
    between it and the aggregate. Victims are taken from the *end* of
    ``gm_names``, the GMs in domain order
    (:meth:`repro.experiments.testbed.TestbedConfig.gm_names`), mirroring
    the paper's §III-B, which compromises ``c4_1`` first.
    """
    if threshold is None:
        threshold = ValidityConfig().threshold
    if not 0 < margin < 1:
        raise ValueError(f"margin must be in (0, 1), got {margin}")
    if not 1 <= colluders <= len(gm_names):
        raise ValueError(
            f"need 1 <= colluders <= {len(gm_names)} GMs, got {colluders}"
        )
    victims = tuple(gm_names[-colluders:])
    _check_vm_names("colluder campaign", "victim", victims)
    return AttackCampaign(
        name=name or f"colluders-{colluders}",
        stages=(
            AttackStage(
                start=start, stop=stop, kind="collude", victims=victims,
                shift=-round(margin * threshold),
            ),
        ),
    )
