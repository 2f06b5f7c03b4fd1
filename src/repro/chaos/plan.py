"""Declarative chaos plans.

A :class:`ChaosPlan` is a serializable schedule of timed stages that
degrade a running testbed: attach/detach link impairments, flap links,
launch the steered attacks from :mod:`repro.security.attacks`, run the
§III-B kernel exploit against VMs, or stop VMs fail-silent. Plans ride
on :class:`~repro.scenarios.spec.ScenarioSpec` next to the fault plan, are
part of the scenario fingerprint (and hence every results-cache key), and
are executed by :class:`~repro.chaos.orchestrator.ChaosOrchestrator`.

Link selectors
--------------
Each stage names its target links declaratively; the orchestrator resolves
the selectors against the built topology at run time:

``"*"``
    every inter-switch trunk
``"sw1-sw3"``
    one trunk, either endpoint order
``"nic:c2_1"``
    the access link of that NIC
``"device:3"``
    every link incident to switch ``sw3`` — its trunks plus the access
    links of all NICs attached to it
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.network.impairments import ImpairmentSpec
from repro.sim.timebase import SECONDS

#: Stage actions understood by the orchestrator.
CHAOS_ACTIONS = (
    "impair", "clear", "link_down", "link_up", "attack", "attack_stop",
    "exploit", "vm_stop",
)

#: Actions applied to each VM named in ``victims``: ``exploit`` runs
#: CVE-2018-18955 (root, and a malicious ptp4l shifting by ``shift``, iff
#: the VM runs and its kernel is affected); ``vm_stop`` stops the VM
#: fail-silent without a reboot.
VM_ACTIONS = ("exploit", "vm_stop")

#: GM-side steered attack kinds (see :mod:`repro.security.attacks`); these
#: compromise victim VMs and steer ``malicious_origin_shift``.
GM_ATTACK_KINDS = ("ramp", "oscillate", "collude", "adaptive")

#: On-path link-tap attack kinds; these occupy link impairment slots.
LINK_ATTACK_KINDS = ("suppress", "delay", "wormhole")

#: Every attack kind an ``attack`` stage accepts.
ATTACK_KINDS = GM_ATTACK_KINDS + LINK_ATTACK_KINDS

CHAOS_SCHEMA_VERSION = 1

#: Names that can denote a clock-sync VM (``c<device>_<index>``); attack
#: victims and observers are checked against this at plan-load time so a
#: typo fails when the plan is built, not minutes into a run.
_VM_NAME_RE = re.compile(r"^c\d+_\d+$")


def _check_vm_names(stage_desc: str, role: str, names) -> None:
    for name in names:
        if not _VM_NAME_RE.match(name):
            raise ValueError(
                f"{stage_desc}: {role} {name!r} is not a clock-sync VM name "
                f"(expected the c<device>_<index> form, e.g. 'c4_1')"
            )


@dataclass(frozen=True)
class ChaosStage:
    """One timed action of a chaos plan.

    Attributes
    ----------
    at:
        Simulation time (ns) the action fires.
    action:
        One of :data:`CHAOS_ACTIONS`.
    links:
        Link selectors (see module docstring); required for the link
        actions, ignored for attack actions.
    impairment:
        The spec to attach (``impair`` only).
    attack:
        One of :data:`ATTACK_KINDS` (``attack`` only).
    victims:
        VM names to compromise (GM attack kinds, ``exploit``) or stop
        (``vm_stop``).
    step_per_update / amplitude / period_updates:
        Steering parameters of the ramp/oscillate attacks.
    label:
        Optional handle; a labelled ``attack_stop`` stops only the attack
        launched with the same label (an unlabelled stop stops everything).
        A ``vm_stop`` records it as the reason of the stop.
    shift:
        Constant origin shift of the collude/adaptive attacks and of the
        malicious ptp4l a successful ``exploit`` installs, ns.
    observer:
        Foothold VM of the adaptive attack (defaults to the first victim).
    domains:
        gPTP domains a link-tap attack targets (empty = every domain).
    drop_prob:
        Per-frame suppression probability of the ``suppress`` kind.
    extra_delay:
        Added one-way Sync/Follow_Up latency of the ``delay`` kind, ns.
    tunnel_delay / dest:
        Replay latency and destination link selector of the ``wormhole``.
    """

    at: int
    action: str
    links: Tuple[str, ...] = ()
    impairment: Optional[ImpairmentSpec] = None
    attack: Optional[str] = None
    victims: Tuple[str, ...] = ()
    step_per_update: int = -100
    amplitude: int = 10_000
    period_updates: int = 16
    label: Optional[str] = None
    shift: int = -4_000
    observer: Optional[str] = None
    domains: Tuple[int, ...] = ()
    drop_prob: float = 1.0
    extra_delay: int = 0
    tunnel_delay: int = 0
    dest: Optional[str] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"stage time must be nonnegative, got {self.at}")
        if self.action not in CHAOS_ACTIONS:
            raise ValueError(
                f"unknown chaos action {self.action!r}; "
                f"expected one of {CHAOS_ACTIONS}"
            )
        if not isinstance(self.links, tuple):
            object.__setattr__(self, "links", tuple(self.links))
        if not isinstance(self.victims, tuple):
            object.__setattr__(self, "victims", tuple(self.victims))
        if not isinstance(self.domains, tuple):
            object.__setattr__(self, "domains", tuple(self.domains))
        if self.action in ("impair", "clear", "link_down", "link_up"):
            if not self.links:
                raise ValueError(f"{self.action} stage needs link selectors")
        if self.action == "impair":
            if self.impairment is None:
                raise ValueError("impair stage needs an impairment spec")
        if self.action == "attack":
            self._validate_attack()
        if self.action in VM_ACTIONS:
            if not self.victims:
                raise ValueError(f"{self.action} stage needs victim VM names")
            _check_vm_names(
                f"{self.action} stage at={self.at}", "victim", self.victims
            )

    def _validate_attack(self) -> None:
        desc = f"attack stage at={self.at}"
        if self.attack not in ATTACK_KINDS:
            raise ValueError(
                f"attack stage needs kind in {ATTACK_KINDS}, "
                f"got {self.attack!r}"
            )
        if self.attack in GM_ATTACK_KINDS:
            if not self.victims:
                raise ValueError("attack stage needs victim VM names")
            _check_vm_names(desc, "victim", self.victims)
            if self.observer is not None:
                _check_vm_names(desc, "observer", (self.observer,))
        else:
            if not self.links:
                raise ValueError(
                    f"{self.attack} attack stage needs link selectors"
                )
        if self.attack == "suppress" and not 0.0 < self.drop_prob <= 1.0:
            raise ValueError(
                f"{desc}: drop_prob must be in (0, 1], got {self.drop_prob}"
            )
        if self.attack == "delay" and self.extra_delay <= 0:
            raise ValueError(
                f"{desc}: delay attack needs a positive extra_delay"
            )
        if self.attack == "wormhole":
            if self.dest is None:
                raise ValueError(
                    f"{desc}: wormhole attack needs a dest link selector"
                )
            if self.tunnel_delay < 0:
                raise ValueError(
                    f"{desc}: tunnel_delay must be >= 0, got {self.tunnel_delay}"
                )

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"at": self.at, "action": self.action}
        if self.links:
            doc["links"] = list(self.links)
        if self.impairment is not None:
            doc["impairment"] = self.impairment.to_dict()
        if self.attack is not None:
            doc["attack"] = self.attack
            doc["victims"] = list(self.victims)
            doc["step_per_update"] = self.step_per_update
            doc["amplitude"] = self.amplitude
            doc["period_updates"] = self.period_updates
        elif self.action in VM_ACTIONS:
            doc["victims"] = list(self.victims)
        # Campaign-era fields ride along only when they differ from the
        # defaults: pre-campaign plans keep their byte-identical serialized
        # form (and hence their scenario fingerprints).
        if self.label is not None:
            doc["label"] = self.label
        if self.shift != -4_000:
            doc["shift"] = self.shift
        if self.observer is not None:
            doc["observer"] = self.observer
        if self.domains:
            doc["domains"] = list(self.domains)
        if self.drop_prob != 1.0:
            doc["drop_prob"] = self.drop_prob
        if self.extra_delay:
            doc["extra_delay"] = self.extra_delay
        if self.tunnel_delay:
            doc["tunnel_delay"] = self.tunnel_delay
        if self.dest is not None:
            doc["dest"] = self.dest
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ChaosStage":
        doc = dict(doc)
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown chaos stage keys: {sorted(unknown)}")
        imp = doc.get("impairment")
        if isinstance(imp, dict):
            doc["impairment"] = ImpairmentSpec.from_dict(imp)
        if "links" in doc:
            doc["links"] = tuple(doc["links"])
        if "victims" in doc:
            doc["victims"] = tuple(doc["victims"])
        if "domains" in doc:
            doc["domains"] = tuple(doc["domains"])
        return cls(**doc)


@dataclass(frozen=True)
class ChaosPlan:
    """A named, ordered schedule of chaos stages."""

    name: str
    stages: Tuple[ChaosStage, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("chaos plan needs a name")
        if not isinstance(self.stages, tuple):
            object.__setattr__(self, "stages", tuple(self.stages))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": CHAOS_SCHEMA_VERSION,
            "name": self.name,
            "stages": [s.to_dict() for s in self.stages],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ChaosPlan":
        doc = dict(doc)
        version = doc.pop("schema_version", CHAOS_SCHEMA_VERSION)
        if version != CHAOS_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported chaos plan schema_version {version} "
                f"(this build reads {CHAOS_SCHEMA_VERSION})"
            )
        unknown = set(doc) - {"name", "stages"}
        if unknown:
            raise ValueError(f"unknown chaos plan keys: {sorted(unknown)}")
        stages = tuple(
            ChaosStage.from_dict(s) if isinstance(s, dict) else s
            for s in doc.get("stages", ())
        )
        return cls(name=doc["name"], stages=stages)


def load_plan(path: Union[str, Path]) -> ChaosPlan:
    """Read a chaos plan from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return ChaosPlan.from_dict(json.load(fh))


def dump_plan(plan: ChaosPlan, path: Union[str, Path]) -> None:
    """Write a chaos plan to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def merge_plans(a: ChaosPlan, b: ChaosPlan) -> ChaosPlan:
    """Combine two plans into one time-ordered schedule.

    The sort is stable, so stages sharing a fire time keep their original
    relative order (``a``'s before ``b``'s) — merging is deterministic.
    """
    stages = sorted(a.stages + b.stages, key=lambda s: s.at)
    return ChaosPlan(name=f"{a.name}+{b.name}", stages=tuple(stages))


def single_loss_plan(
    loss: float,
    start: int = 60 * SECONDS,
    end: Optional[int] = None,
    links: Tuple[str, ...] = ("*",),
    name: Optional[str] = None,
) -> ChaosPlan:
    """Canned plan: Bernoulli loss on ``links`` from ``start`` (to ``end``).

    The ``sweep lossrate`` arm and the CLI ``--loss`` shortcut both build
    this shape; keeping it a library function makes the sweep's cache key
    depend only on (loss, window, links).
    """
    stages = [
        ChaosStage(at=start, action="impair", links=links,
                   impairment=ImpairmentSpec(loss=loss)),
    ]
    if end is not None:
        stages.append(ChaosStage(at=end, action="clear", links=links))
    return ChaosPlan(
        name=name or f"loss-{loss:g}",
        stages=tuple(stages),
    )
