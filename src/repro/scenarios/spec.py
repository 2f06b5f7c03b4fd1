"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a frozen, fingerprintable description of one
experimental setup: topology shape and size N, number of gPTP domains M,
fault hypothesis f, GM placement, link/NIC model parameters, the kernel
diversification policy, and an optional transient-fault plan. Experiments
consume specs instead of hand-built testbeds, so "new workload" means "write
a spec" — and because the spec is a frozen dataclass, its repr (and its
canonical-JSON SHA-256 :meth:`ScenarioSpec.fingerprint`) keys the results
cache and the run manifest, making cached results scenario-addressed.

Specs round-trip through JSON (:meth:`to_dict`/:meth:`from_dict`,
:func:`load_scenario`/:func:`dump_scenario`), so scenarios can live in
files next to the experiments they parameterize.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.network.topology import (
    TOPOLOGY_BUILDERS,
    fat_tree_trunk_indices,
    normalize_topology_kind,
    ring_of_rings_trunk_indices,
    torus_trunk_indices,
)
from repro.sim.timebase import MILLISECONDS

if TYPE_CHECKING:
    from repro.chaos.plan import ChaosPlan
    from repro.security.campaigns import AttackCampaign

#: Bump when the JSON document shape changes; old files fail loudly.
SCENARIO_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LinkSpec:
    """Link/NIC model parameter ranges (ns), shared by every shape.

    Defaults match the paper's calibration: trunks (external cabling) are
    longer than access links (internal wiring), and switches add a
    store-and-forward residence delay.
    """

    trunk_base_range: Tuple[int, int] = (1_600, 2_000)
    trunk_jitter_range: Tuple[int, int] = (200, 400)
    access_base_range: Tuple[int, int] = (1_300, 1_700)
    access_jitter_range: Tuple[int, int] = (150, 300)
    residence_base: int = 700
    residence_jitter: int = 300

    def __post_init__(self) -> None:
        for name in ("trunk_base_range", "trunk_jitter_range",
                     "access_base_range", "access_jitter_range"):
            lo, hi = getattr(self, name)
            if not 0 <= lo <= hi:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi, got {lo, hi}")
        if self.residence_base < 0 or self.residence_jitter < 0:
            raise ValueError("residence parameters must be nonnegative")


@dataclass(frozen=True)
class FaultPlanSpec:
    """Optional transient software-fault pressure (per-event probabilities).

    ``None`` on a scenario means "use the paper's calibrated pressure" in
    fault-injection experiments and no transients elsewhere — matching the
    historical per-experiment defaults.
    """

    tx_timestamp_fail_prob: float = 0.0
    deadline_miss_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("tx_timestamp_fail_prob", "deadline_miss_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, named experimental setup.

    Attributes
    ----------
    name:
        Registry/display name.
    topology:
        Shape key (``mesh``/``ring``/``line``/``star``).
    n_devices:
        N — edge devices, each with an integrated TSN switch.
    n_domains:
        M — gPTP domains (``None`` → one per device).
    f:
        Fault hypothesis of the FTA; needs M ≥ 3f + 1 (the Byzantine
        resilience condition of ``u_factor``).
    vms_per_node:
        Clock synchronization VMs per device (2 = fail-silent pairs).
    gm_placement:
        ``spread`` (domain x's GM on device x) or ``reversed``.
    hub_device:
        Star center (ignored for other shapes).
    measurement_device:
        Index m of the device hosting the measurement VM ``c{m}_2``.
    sync_interval:
        S in ns.
    kernel_policy:
        ``diverse`` / ``identical`` / ``unikernel`` diversification.
    links:
        Link/NIC/switch timing parameter ranges.
    fault_plan:
        Optional transient-fault pressure (see :class:`FaultPlanSpec`).
    chaos_plan:
        Optional declarative chaos schedule (impairments, link flaps,
        steered attacks); see :class:`repro.chaos.plan.ChaosPlan`. Omitted
        from the serialized form when ``None`` so pre-chaos fingerprints
        are unchanged.
    attack_campaign:
        Optional adversary campaign
        (:class:`repro.security.campaigns.AttackCampaign`), compiled into
        the materialized chaos plan — merged with ``chaos_plan`` when both
        are set. Omitted from the serialized form when ``None`` so
        pre-campaign fingerprints are unchanged.
    description:
        One line for ``repro-sim scenarios list``.
    """

    name: str
    topology: str = "mesh"
    n_devices: int = 4
    n_domains: Optional[int] = None
    f: int = 1
    vms_per_node: int = 2
    gm_placement: str = "spread"
    hub_device: int = 1
    measurement_device: int = 2
    sync_interval: int = 125 * MILLISECONDS
    kernel_policy: str = "diverse"
    links: LinkSpec = LinkSpec()
    fault_plan: Optional[FaultPlanSpec] = None
    chaos_plan: Optional[ChaosPlan] = None
    attack_campaign: Optional[AttackCampaign] = None
    topology_params: Tuple[Tuple[str, Any], ...] = ()
    description: str = ""

    #: Builder kwargs each shape accepts via ``topology_params``.
    _SHAPE_PARAMS = {
        "fat_tree": ("arity",),
        "torus": ("rows",),
        "ring_of_rings": ("groups",),
        "random_geometric": ("radius",),
    }

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.topology not in TOPOLOGY_BUILDERS:
            # Accept aliases/case variants but store the canonical key so
            # fingerprints don't depend on spelling.
            object.__setattr__(
                self, "topology", normalize_topology_kind(self.topology)
            )
        if isinstance(self.topology_params, dict):
            object.__setattr__(
                self,
                "topology_params",
                tuple(sorted(self.topology_params.items())),
            )
        else:
            object.__setattr__(
                self,
                "topology_params",
                tuple(sorted((str(k), v) for k, v in self.topology_params)),
            )
        allowed = self._SHAPE_PARAMS.get(self.topology, ())
        unknown = [k for k, _ in self.topology_params if k not in allowed]
        if unknown:
            raise ValueError(
                f"topology {self.topology!r} does not accept params "
                f"{sorted(unknown)}; allowed: {sorted(allowed)}"
            )
        if self.n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        if self.topology == "ring" and self.n_devices < 3:
            raise ValueError("a ring needs at least 3 devices")
        if self.topology in ("line", "star") and self.n_devices < 2:
            raise ValueError(f"a {self.topology} needs at least 2 devices")
        if self.topology == "random_geometric":
            if self.n_devices < 2:
                raise ValueError(
                    "a random geometric graph needs at least 2 devices"
                )
            radius = self.params.get("radius")
            if radius is not None and not (
                isinstance(radius, (int, float)) and radius > 0
            ):
                raise ValueError(
                    f"random_geometric radius must be > 0, got {radius!r}"
                )
        elif self.topology in self._SHAPE_PARAMS:
            # Delegate shape/parameter validation to the shared construction
            # plans — exactly what the builder will do.
            self._shape_trunk_indices()
        m = self.effective_domains
        if not 1 <= m <= self.n_devices:
            raise ValueError(
                f"n_domains={m} must be in [1, {self.n_devices}]"
            )
        if self.f < 0:
            raise ValueError("f must be nonnegative")
        if self.f > 0 and m < 3 * self.f + 1:
            # Matches repro.core.convergence.u_factor's Byzantine
            # resilience condition.
            raise ValueError(
                f"FTA with f={self.f} needs M >= {3 * self.f + 1} domains, "
                f"got M={m}"
            )
        if not 1 <= self.measurement_device <= self.n_devices:
            raise ValueError(
                f"measurement_device={self.measurement_device} outside "
                f"1..{self.n_devices}"
            )
        if not 1 <= self.hub_device <= self.n_devices:
            raise ValueError(
                f"hub_device={self.hub_device} outside 1..{self.n_devices}"
            )
        if self.vms_per_node < 1:
            raise ValueError("vms_per_node must be >= 1")
        if self.sync_interval <= 0:
            raise ValueError("sync_interval must be positive")
        if self.gm_placement not in ("spread", "reversed"):
            raise ValueError(
                f"unknown gm_placement {self.gm_placement!r}"
            )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def effective_domains(self) -> int:
        """M with the one-per-device default resolved."""
        return self.n_domains if self.n_domains is not None else self.n_devices

    @property
    def params(self) -> Dict[str, Any]:
        """``topology_params`` as a plain dict (builder kwargs)."""
        return dict(self.topology_params)

    def _shape_trunk_indices(self) -> List[Tuple[int, int]]:
        """0-based trunk index pairs of a generated shape (validates params)."""
        p = self.params
        if self.topology == "fat_tree":
            return fat_tree_trunk_indices(self.n_devices, p.get("arity", 2))
        if self.topology == "torus":
            return torus_trunk_indices(self.n_devices, p.get("rows"))
        if self.topology == "ring_of_rings":
            return ring_of_rings_trunk_indices(self.n_devices, p.get("groups"))
        raise ValueError(f"no static construction plan for {self.topology!r}")

    def trunk_pairs(self) -> List[Tuple[str, str]]:
        """The static trunk list of this shape, without building anything.

        Mirrors the builders in :mod:`repro.network.topology`; used to pick
        default trunks for link-failure runs and by the property tests.
        Raises for ``random_geometric``, whose edge set is seed-dependent —
        build the topology to enumerate its trunks.
        """
        names = [f"sw{i + 1}" for i in range(self.n_devices)]
        if self.topology == "mesh":
            return [
                (a, b) for i, a in enumerate(names) for b in names[i + 1:]
            ]
        if self.topology == "ring":
            return [
                (a, names[(i + 1) % len(names)]) for i, a in enumerate(names)
            ]
        if self.topology == "line":
            return list(zip(names, names[1:]))
        if self.topology == "star":
            hub = names[self.hub_device - 1]
            return [(hub, name) for name in names if name != hub]
        if self.topology in ("fat_tree", "torus", "ring_of_rings"):
            return [
                (names[i], names[j]) for i, j in self._shape_trunk_indices()
            ]
        if self.topology == "random_geometric":
            raise ValueError(
                "random_geometric trunks are seed-dependent; build the "
                "topology to enumerate them"
            )
        raise ValueError(f"unknown topology {self.topology!r}")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict, schema-versioned."""
        doc = dataclasses.asdict(self)
        doc["links"] = dataclasses.asdict(self.links)
        doc["fault_plan"] = (
            dataclasses.asdict(self.fault_plan)
            if self.fault_plan is not None else None
        )
        # Omitted entirely when unset: scenarios that predate the chaos
        # layer keep their historical fingerprints.
        doc.pop("chaos_plan", None)
        if self.chaos_plan is not None:
            doc["chaos_plan"] = self.chaos_plan.to_dict()
        # Same deal for the adversary campaign (pre-campaign fingerprints).
        doc.pop("attack_campaign", None)
        if self.attack_campaign is not None:
            doc["attack_campaign"] = self.attack_campaign.to_dict()
        # And for topology parameters (pre-generated-shape fingerprints);
        # serialized as a plain mapping when present.
        doc.pop("topology_params", None)
        if self.topology_params:
            doc["topology_params"] = dict(self.topology_params)
        doc["schema_version"] = SCENARIO_SCHEMA_VERSION
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        doc = dict(doc)
        version = doc.pop("schema_version", SCENARIO_SCHEMA_VERSION)
        if version != SCENARIO_SCHEMA_VERSION:
            raise ValueError(
                f"scenario schema v{version} not supported "
                f"(this build reads v{SCENARIO_SCHEMA_VERSION})"
            )
        # ``scenarios show --json`` annotates the document with derived
        # keys; tolerate them so a shown document can be edited and passed
        # straight back via ``--scenario path.json``.
        for derived in ("fingerprint", "trunks"):
            doc.pop(derived, None)
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        links = doc.get("links")
        if isinstance(links, dict):
            links = {
                k: tuple(v) if isinstance(v, list) else v
                for k, v in links.items()
            }
            doc["links"] = LinkSpec(**links)
        plan = doc.get("fault_plan")
        if isinstance(plan, dict):
            doc["fault_plan"] = FaultPlanSpec(**plan)
        chaos = doc.get("chaos_plan")
        if isinstance(chaos, dict):
            from repro.chaos.plan import ChaosPlan

            doc["chaos_plan"] = ChaosPlan.from_dict(chaos)
        campaign = doc.get("attack_campaign")
        if isinstance(campaign, dict):
            from repro.security.campaigns import AttackCampaign

            doc["attack_campaign"] = AttackCampaign.from_dict(campaign)
        return cls(**doc)

    def fingerprint(self) -> str:
        """SHA-256 of the canonical JSON form — the scenario's identity.

        Stable across processes and Python versions (sorted keys, no
        whitespace); joins :class:`repro.metrics.RunManifest` and the
        results-cache key so runs are scenario-addressed.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def testbed_config(self, seed: int = 1, **overrides: Any):
        """Materialize a :class:`repro.experiments.testbed.TestbedConfig`.

        ``overrides`` replace testbed fields after the mapping (e.g.
        ``kernel_policy=...`` from a CLI flag, ``transients=...`` from an
        experiment's calibration). For ``paper-mesh4`` the result is
        field-identical to ``TestbedConfig(seed=seed)``, which the golden
        tests pin byte-for-byte.
        """
        from repro.core.aggregator import AggregatorConfig
        from repro.experiments.testbed import TestbedConfig
        from repro.faults.transient import TransientFaultPlan
        from repro.network.topology import MeshModel
        from repro.network.switch import SwitchModel

        chaos = self.chaos_plan
        if self.attack_campaign is not None:
            from repro.chaos.plan import merge_plans

            compiled = self.attack_campaign.compile()
            chaos = compiled if chaos is None else merge_plans(chaos, compiled)
        transients = None
        if self.fault_plan is not None:
            # Expected-rate fields are informational; per-event
            # probabilities are what the NIC model consumes.
            transients = TransientFaultPlan(
                tx_timestamp_fail_prob=self.fault_plan.tx_timestamp_fail_prob,
                deadline_miss_prob=self.fault_plan.deadline_miss_prob,
                expected_tx_timeouts_per_hour=0.0,
                expected_deadline_misses_per_hour=0.0,
            )
        config = TestbedConfig(
            seed=seed,
            n_devices=self.n_devices,
            topology=self.topology,
            topology_params=self.topology_params,
            hub_device=self.hub_device,
            gm_placement=self.gm_placement,
            n_domains=self.n_domains,
            vms_per_node=self.vms_per_node,
            sync_interval=self.sync_interval,
            kernel_policy=self.kernel_policy,
            measurement_device=self.measurement_device,
            transients=transients,
            chaos=chaos,
            aggregator=AggregatorConfig(
                f=self.f, sync_interval=self.sync_interval
            ),
            mesh=MeshModel(
                n_devices=self.n_devices,
                trunk_base_range=self.links.trunk_base_range,
                trunk_jitter_range=self.links.trunk_jitter_range,
                access_base_range=self.links.access_base_range,
                access_jitter_range=self.links.access_jitter_range,
                switch=SwitchModel(
                    residence_base=self.links.residence_base,
                    residence_jitter=self.links.residence_jitter,
                ),
            ),
        )
        if overrides:
            config = dataclasses.replace(config, **overrides)
            # An aggregator override must keep the spec's fault hypothesis:
            # the monitor grades the valid floor with the scenario's f, so
            # a divergent aggregator f would run one hypothesis and grade
            # another. Caught here, at config build time.
            if config.aggregator.f != self.f:
                raise ValueError(
                    f"fault hypothesis mismatch: scenario {self.name!r} "
                    f"declares f={self.f} but the aggregator override "
                    f"carries f={config.aggregator.f}"
                )
        return config


# ----------------------------------------------------------------------
# File round-trip
# ----------------------------------------------------------------------
def load_scenario(path: str) -> ScenarioSpec:
    """Read a :class:`ScenarioSpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return ScenarioSpec.from_dict(doc)


def dump_scenario(spec: ScenarioSpec, path: str) -> None:
    """Write a spec as indented JSON (round-trips via :func:`load_scenario`)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
