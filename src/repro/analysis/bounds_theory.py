"""Closed-form resilience bounds predicted from topology and drift alone.

The paper derives Π + γ *empirically* per testbed (§III-A3): survey the
built network, read off d_min/d_max, instantiate the Kopetz–Ochsenreiter
bound. The Resilience-Bounds line of work (Jiang, Tan, Easwaran) shows the
same worst-case sync error is *predictable* before anything runs — it is a
closed-form function of the topology's hop structure, the configured link
parameter ranges, the oscillator drift budget, the sync interval, and the
fault hypothesis f. This module computes that prediction.

The predicted envelope is constructed to dominate every measured quantity
for the same scenario:

* every drawn link delay lies inside the model ranges, so the per-hop
  closed form ``2·acc + h·trunk + (h+1)·res`` evaluated at the range
  extremes brackets any surveyed path;
* the hop extremes come from the memoized BFS machinery in
  :mod:`repro.network.topology` (``spanning_tree`` / ``max_switch_path``),
  so the prediction uses exactly the paths the testbed routes over;
* adversarial *delay* — constant per-direction link asymmetry from an
  :class:`~repro.network.impairments.ImpairmentSpec` or the extra one-way
  latency of a ``DelayAttack``/wormhole stage — shifts time transfer and
  therefore widens the envelope.  Pure loss, duplication, and reordering
  only suppress or repeat frames; they never move a timestamp, so they do
  not widen it.  Byzantine collusion is part of the fault hypothesis: up to
  f colluders are already paid for by u(M, f), and more than f is outside
  the hypothesis — exactly the case the predicted bound is meant to flag.

Grading runs against the *prediction* (``bound_source="predicted"`` on the
invariant monitor) turns the monitor into genuine correctness tooling: the
threshold exists before the run, and no measured-then-hardcoded constant
needs retuning per topology.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.core.convergence import drift_offset, precision_bound, u_factor
from repro.network.topology import Topology, _switch_key, build_topology
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.timebase import MILLISECONDS

#: Bump when the serialized TheoreticalBounds shape changes.
BOUNDS_THEORY_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TheoreticalBounds:
    """Worst-case sync-error envelope predicted without running anything.

    All latency figures are ns. ``d_min``/``d_max`` bracket every possible
    one-way path latency the surveyed network can exhibit (closed form over
    the model ranges at the topology's hop extremes), ``gamma`` brackets
    the probe-path measurement error, and ``attack_allowance`` is the
    additional reading shift a scheduled delay-type adversary can inject.
    """

    topology: str
    n_devices: int
    n_domains: int
    f: int
    min_hops: int
    max_hops: int
    d_min: int
    d_max: int
    drift_offset: float  # Γ
    gamma: float  # worst-case probe-path asymmetry
    attack_allowance: float
    max_drift_ppm: float = 5.0
    sync_interval: int = 125 * MILLISECONDS
    schema_version: int = BOUNDS_THEORY_SCHEMA_VERSION

    @property
    def reading_error(self) -> float:
        """E* = d_max − d_min, the predicted worst-case reading error."""
        return float(self.d_max - self.d_min)

    @property
    def u(self) -> float:
        """u(M, f) = (M − 2f) / (M − 3f)."""
        return u_factor(self.n_domains, self.f)

    @property
    def precision_bound(self) -> float:
        """Π* = u(M, f)·(E* + Γ) — the clean-network predicted precision."""
        return precision_bound(
            self.n_domains, self.f, self.reading_error, self.drift_offset
        )

    @property
    def envelope(self) -> float:
        """The grading threshold: u·(E* + A + Γ) + γ*.

        ``A`` (``attack_allowance``) folds scheduled delay-type adversarial
        shift into the reading error — a delayed Sync is indistinguishable
        from a long cable — and γ* pays for the probe star's asymmetry just
        as the measured Π + γ threshold does.
        """
        widened = u_factor(self.n_domains, self.f) * (
            self.reading_error + self.attack_allowance + self.drift_offset
        )
        return widened + self.gamma

    def describe(self) -> str:
        """One-line summary in the paper's notation, starred for 'predicted'."""
        return (
            f"hops∈[{self.min_hops},{self.max_hops}] "
            f"d*∈[{self.d_min},{self.d_max}]ns E*={self.reading_error:.0f}ns "
            f"Γ={self.drift_offset:.0f}ns Π*={self.precision_bound / 1000:.3f}µs "
            f"γ*={self.gamma:.0f}ns A={self.attack_allowance:.0f}ns "
            f"envelope={self.envelope / 1000:.3f}µs"
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "topology": self.topology,
            "n_devices": self.n_devices,
            "n_domains": self.n_domains,
            "f": self.f,
            "min_hops": self.min_hops,
            "max_hops": self.max_hops,
            "d_min_ns": self.d_min,
            "d_max_ns": self.d_max,
            "reading_error_ns": self.reading_error,
            "drift_offset_ns": self.drift_offset,
            "gamma_ns": self.gamma,
            "attack_allowance_ns": self.attack_allowance,
            "max_drift_ppm": self.max_drift_ppm,
            "sync_interval_ns": self.sync_interval,
            "precision_bound_ns": self.precision_bound,
            "envelope_ns": self.envelope,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "TheoreticalBounds":
        version = doc.get("schema_version")
        if version != BOUNDS_THEORY_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported TheoreticalBounds schema_version {version!r} "
                f"(expected {BOUNDS_THEORY_SCHEMA_VERSION})"
            )
        return cls(
            topology=str(doc["topology"]),
            n_devices=int(doc["n_devices"]),  # type: ignore[arg-type]
            n_domains=int(doc["n_domains"]),  # type: ignore[arg-type]
            f=int(doc["f"]),  # type: ignore[arg-type]
            min_hops=int(doc["min_hops"]),  # type: ignore[arg-type]
            max_hops=int(doc["max_hops"]),  # type: ignore[arg-type]
            d_min=int(doc["d_min_ns"]),  # type: ignore[arg-type]
            d_max=int(doc["d_max_ns"]),  # type: ignore[arg-type]
            drift_offset=float(doc["drift_offset_ns"]),  # type: ignore[arg-type]
            gamma=float(doc["gamma_ns"]),  # type: ignore[arg-type]
            attack_allowance=float(doc["attack_allowance_ns"]),  # type: ignore[arg-type]
            max_drift_ppm=float(doc["max_drift_ppm"]),  # type: ignore[arg-type]
            sync_interval=int(doc["sync_interval_ns"]),  # type: ignore[arg-type]
        )


# ----------------------------------------------------------------------
# Adversarial widening
# ----------------------------------------------------------------------
def attack_allowance(chaos_plan: Optional[object], max_links_per_path: int) -> float:
    """Total delay-type adversarial shift a chaos plan can inject, ns.

    Per stage:

    * ``impair`` with per-direction delay asymmetry δ = max(a→b, b→a):
      a worst-case sync path crosses every impaired link, so the stage
      contributes δ per link on the longest path (``max_links_per_path``);
    * ``attack delay`` shifts the victim's readings by ``extra_delay``;
    * ``attack wormhole`` replays sync late by ``tunnel_delay``.

    Loss (Bernoulli or Gilbert–Elliott), duplication, reordering, and
    congestion jitter move no timestamps and contribute nothing; collusion
    is covered by the fault hypothesis (see module docstring). Stage
    contributions sum — conservative for non-overlapping windows, exact
    for stacked ones.
    """
    if chaos_plan is None:
        return 0.0
    total = 0.0
    for stage in getattr(chaos_plan, "stages", ()):
        if stage.action == "impair" and stage.impairment is not None:
            asym = max(stage.impairment.delay_a_to_b, stage.impairment.delay_b_to_a)
            if asym > 0:
                total += float(asym) * max_links_per_path
        elif stage.action == "attack" and stage.attack == "delay":
            total += float(stage.extra_delay)
        elif stage.action == "attack" and stage.attack == "wormhole":
            total += float(stage.tunnel_delay)
    return total


# ----------------------------------------------------------------------
# Core closed-form computation
# ----------------------------------------------------------------------
def _range_extremes(model) -> Tuple[int, int, int, int, int, int]:
    """(acc_lo, acc_hi, trunk_lo, trunk_hi, res_lo, res_hi) from a MeshModel."""
    acc_lo = model.access_base_range[0]
    acc_hi = model.access_base_range[1] + model.access_jitter_range[1]
    trunk_lo = model.trunk_base_range[0]
    trunk_hi = model.trunk_base_range[1] + model.trunk_jitter_range[1]
    res_lo = model.switch.residence_base
    res_hi = model.switch.residence_base + model.switch.residence_jitter
    return acc_lo, acc_hi, trunk_lo, trunk_hi, res_lo, res_hi


def _min_pair_depth(topology: Topology, nic_counts: Dict[str, int]) -> int:
    """Shortest tree depth between two NIC-hosting switches (0 if co-hosted)."""
    hosts = [sw for sw, count in nic_counts.items() if count > 0]
    if any(nic_counts[sw] >= 2 for sw in hosts):
        return 0
    if len(hosts) < 2:
        raise ValueError("prediction needs at least two attached NICs")
    best: Optional[int] = None
    for root in sorted(hosts, key=_switch_key):
        depth = topology.spanning_tree(root).depth
        for other in hosts:
            if other != root:
                d = depth[other]
                if best is None or d < best:
                    best = d
        if best == 1:
            break
    assert best is not None
    return best


def predict_topology_bounds(
    topology: Topology,
    nic_counts: Dict[str, int],
    n_domains: int,
    f: int,
    measurement_switch: str,
    sync_interval: int = 125 * MILLISECONDS,
    max_drift_ppm: float = 5.0,
    chaos_plan: Optional[object] = None,
    colocated_receiver: bool = False,
) -> TheoreticalBounds:
    """Closed-form envelope over a built (or shape-only) switch graph.

    ``nic_counts`` maps switch name → number of attached NICs; the graph
    itself only contributes hop counts, so a shape-only build (no NICs, no
    VMs) predicts identically to a full testbed. ``colocated_receiver``
    marks whether a probe receiver shares the measurement switch (true when
    more than the excluded VM pair lives there).
    """
    acc_lo, acc_hi, trunk_lo, trunk_hi, res_lo, res_hi = _range_extremes(
        topology.model
    )
    depth_max = topology.max_switch_path() - 1
    depth_min = _min_pair_depth(topology, nic_counts)
    d_min = 2 * acc_lo + depth_min * trunk_lo + (depth_min + 1) * res_lo
    d_max = 2 * acc_hi + depth_max * trunk_hi + (depth_max + 1) * res_hi

    # Probe star: worst receiver sits at the measurement switch's
    # eccentricity; the best sits either on the same switch (extra
    # co-located VM) or one trunk away.
    ecc = max(topology.spanning_tree(measurement_switch).depth.values())
    near = 0 if colocated_receiver else min(1, ecc)
    star_hi = 2 * acc_hi + ecc * trunk_hi + (ecc + 1) * res_hi
    star_lo = 2 * acc_lo + near * trunk_lo + (near + 1) * res_lo
    gamma = float(star_hi - star_lo)

    allowance = attack_allowance(chaos_plan, depth_max + 2)
    return TheoreticalBounds(
        topology=topology.kind,
        n_devices=len(topology.switches),
        n_domains=n_domains,
        f=f,
        min_hops=depth_min + 2,
        max_hops=depth_max + 2,
        d_min=d_min,
        d_max=d_max,
        drift_offset=drift_offset(max_drift_ppm, sync_interval),
        gamma=gamma,
        attack_allowance=allowance,
        max_drift_ppm=max_drift_ppm,
        sync_interval=sync_interval,
    )


def predict_testbed_bounds(testbed) -> TheoreticalBounds:
    """Predict from a built :class:`~repro.experiments.testbed.Testbed`."""
    cfg = testbed.config
    nic_counts: Dict[str, int] = {}
    for sw in testbed.topology.nic_switch.values():
        nic_counts[sw] = nic_counts.get(sw, 0) + 1
    sw_m = f"sw{cfg.measurement_device}"
    return predict_topology_bounds(
        testbed.topology,
        nic_counts,
        n_domains=len(testbed.domains),
        f=cfg.aggregator.f,
        measurement_switch=sw_m,
        sync_interval=cfg.sync_interval,
        chaos_plan=cfg.chaos,
        colocated_receiver=nic_counts.get(sw_m, 0) > 2,
    )


def switch_graph(cfg) -> Topology:
    """The switch graph of a testbed built from ``cfg``, built on its own.

    No VMs, NICs or clocks are built. The graph draws from the stream a
    testbed built from ``cfg`` draws its topology from, so the two have the
    same trunks in the same order; that matters for generated shapes whose
    edge set is seed-dependent (``random_geometric``).
    """
    mesh = replace(cfg.mesh, n_devices=cfg.n_devices)
    kwargs = {"hub_device": cfg.hub_device} if cfg.topology == "star" else {}
    kwargs.update(dict(cfg.topology_params))
    return build_topology(
        cfg.topology,
        Simulator(),
        RngRegistry(cfg.seed).stream("topology"),
        mesh,
        **kwargs,
    )


def predict_bounds(spec, seed: int = 1, max_drift_ppm: float = 5.0) -> TheoreticalBounds:
    """Predict a scenario's envelope without building a testbed.

    ``spec`` is a :class:`~repro.scenarios.ScenarioSpec`, a registered
    scenario name, or a spec-file path. Only the switch graph is built
    (:func:`switch_graph`); ``seed`` matters solely for generated shapes
    whose edge set is seed-dependent.
    """
    from repro.scenarios.registry import resolve_scenario

    spec = resolve_scenario(spec)
    cfg = spec.testbed_config(seed=seed)
    topo = switch_graph(cfg)
    nic_counts = {sw: cfg.vms_per_node for sw in topo.switches}
    sw_m = f"sw{cfg.measurement_device}"
    return predict_topology_bounds(
        topo,
        nic_counts,
        n_domains=spec.effective_domains,
        f=spec.f,
        measurement_switch=sw_m,
        sync_interval=spec.sync_interval,
        max_drift_ppm=max_drift_ppm,
        chaos_plan=cfg.chaos,
        colocated_receiver=cfg.vms_per_node > 2,
    )
