"""Builder for the experimental virtualized distributed real-time system.

Reproduces the §III-A1 setup (Fig. 2):

* N = 4 edge devices ``dev1..dev4``, each with an integrated TSN switch;
  the switches form a full mesh.
* Each device hosts two clock synchronization VMs ``c{x}_1`` and ``c{x}_2``
  with passthrough NICs attached to the device switch; ``c{x}_1`` is the
  grandmaster of gPTP domain x (spatially separated GMs).
* External port configuration: per domain x, the static spanning tree is
  rooted at ``c{x}_1`` — on ``sw{x}`` the slave port faces the GM VM and
  all other ports are masters; on every other switch the slave port faces
  ``sw{x}`` directly (full mesh ⇒ one trunk hop) and the local VM ports are
  masters. No BMCA runs anywhere.
* The measurement VLAN spans ``c{m}_2`` → ``sw{m}`` → every other switch →
  that switch's local VM ports, giving every measured path the same hop
  count (the paper's γ-minimizing configuration); ``c{m}_1`` and the
  measurement VM itself are excluded from the receiver set per eq. 3.1.
* Kernel versions are assigned to the GM VMs per the diversification policy
  under test (identical = everyone on the exploitable v4.19.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.bounds_theory import predict_testbed_bounds
from repro.core.aggregator import AggregatorConfig
from repro.faults.transient import TransientFaultPlan
from repro.gptp.bridge import TimeAwareBridge
from repro.gptp.domain import DomainConfig
from repro.hypervisor.clock_sync_vm import ClockSyncVm, ClockSyncVmConfig
from repro.hypervisor.node import EcdNode
from repro.measurement.bounds import ExperimentBounds, derive_bounds
from repro.measurement.precision import PrecisionSeries
from repro.measurement.probe import (
    MEASUREMENT_VLAN,
    PrecisionProbeService,
    ProbeResponder,
)
from repro.network.nic import NicModel
from repro.network.switch import MAX_HOPS
from repro.network.topology import MeshModel, Topology, build_topology
from repro.security.diversity import (
    UNIKERNEL_STACK,
    assign_kernels,
    boot_delay_of,
)
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.timebase import MICROSECONDS, MILLISECONDS, SECONDS
from repro.sim.trace import TraceLog

if TYPE_CHECKING:
    from repro.chaos.orchestrator import ChaosOrchestrator
    from repro.chaos.plan import ChaosPlan


@dataclass(frozen=True)
class TestbedConfig:
    """Knobs of the full testbed.

    Attributes
    ----------
    seed:
        Master seed for every random stream.
    n_devices:
        Devices/domains (the paper's 4).
    sync_interval:
        S, ns.
    kernel_policy:
        ``"diverse"`` (Fig. 3b) or ``"identical"`` (Fig. 3a).
    measurement_device:
        Index m of the device hosting the measurement VM ``c{m}_2``
        ("chosen arbitrarily" in the paper).
    measurement_start:
        When the 1 Hz probes begin (lets initial synchronization settle).
    initial_offset_spread:
        Initial PHC offsets are drawn uniformly in ±spread, ns — what the
        startup synchronization has to pull in.
    transients:
        Optional transient-fault plan (tx timeouts / deadline misses).
    aggregator:
        Base aggregation config; domains/initial domain are filled in.
    mesh:
        Link/switch parameter ranges.
    boot_delay:
        VM reboot latency after fail-silent faults.
    aggregate_on_gms:
        When ``False``, GM VMs free-run (the Kyriakakis-style baseline).
    exploitable_gm:
        Under the ``diverse`` policy, which GM keeps the exploitable kernel
        (the paper leaves v4.19.1 on ``c4_1``). Default: the last GM.
    n_domains:
        Number of gPTP domains (default: one per device). ``1`` yields the
        single-domain no-FTA baseline: only ``c1_1`` is a grandmaster.
    vms_per_node:
        Clock synchronization VMs per device. The paper's testbed has 2
        (fail-silent, f+1); 3 enables the fail-consistent 2f+1 voting mode
        of §II-A, which needs one passthrough NIC per VM ("it is
        straightforward to realize fail-consistent behavior by adding more
        NICs").
    topology:
        Shape of the switch graph (``"mesh"``, ``"ring"``, ``"line"``,
        ``"star"``, or a generated shape — see
        :data:`repro.network.topology.TOPOLOGY_BUILDERS`). Per-domain
        spanning trees and the measurement VLAN are derived from the shape;
        the paper's setup is the default full mesh.
    topology_params:
        Extra builder kwargs for generated shapes, as a sorted tuple of
        ``(name, value)`` pairs (hashable, so the config stays frozen):
        ``arity`` for ``fat_tree``, ``rows`` for ``torus``, ``groups`` for
        ``ring_of_rings``, ``radius`` for ``random_geometric``.
    hub_device:
        Center device of the ``star`` topology (ignored elsewhere).
    gm_placement:
        Where domain x's GM lives: ``"spread"`` (device x, the paper's
        spatially separated GMs) or ``"reversed"`` (device N+1−x).
    """

    # Keep pytest from trying to collect this config class.
    __test__ = False

    seed: int = 1
    n_devices: int = 4
    topology: str = "mesh"
    topology_params: Tuple[Tuple[str, object], ...] = ()
    hub_device: int = 1
    gm_placement: str = "spread"
    n_domains: Optional[int] = None
    vms_per_node: int = 2
    sync_interval: int = 125 * MILLISECONDS
    kernel_policy: str = "diverse"
    measurement_device: int = 2
    measurement_start: int = 30 * SECONDS
    initial_offset_spread: int = 100 * MICROSECONDS
    transients: Optional[TransientFaultPlan] = None
    #: Optional declarative chaos schedule; an orchestrator is built and
    #: started with the testbed. Part of the frozen config (and thus every
    #: cache fingerprint) because chaos changes what the run computes.
    chaos: Optional[ChaosPlan] = None
    aggregator: AggregatorConfig = AggregatorConfig()
    mesh: MeshModel = MeshModel()
    boot_delay: int = 30 * SECONDS
    aggregate_on_gms: bool = True
    exploitable_gm: Optional[str] = None
    phc2sys_mode: str = "feedback"
    #: Keep per-VM probe readings for spike attribution (a few floats per
    #: probe; see PrecisionRecord.extreme_pair).
    keep_probe_readings: bool = False

    def gm_devices(self) -> Dict[int, int]:
        """Domain number → the device whose ``c<device>_1`` is its GM.

        ``"spread"`` puts domain x on device x (the paper's spatially
        separated GMs), ``"reversed"`` on device N+1−x.
        """
        n_domains = (self.n_domains if self.n_domains is not None
                     else self.n_devices)
        if self.gm_placement == "spread":
            return {x: x for x in range(1, n_domains + 1)}
        if self.gm_placement == "reversed":
            return {x: self.n_devices + 1 - x for x in range(1, n_domains + 1)}
        raise ValueError(
            f"unknown gm_placement {self.gm_placement!r} "
            "(expected 'spread' or 'reversed')"
        )

    def gm_names(self) -> List[str]:
        """The grandmaster VM names, in domain order."""
        return [f"c{device}_1" for device in self.gm_devices().values()]

    def with_chaos(self, plan: ChaosPlan) -> "TestbedConfig":
        """This config with ``plan`` merged onto its own chaos plan.

        The merge is :func:`~repro.chaos.plan.merge_plans`, so at equal
        times this config's own stages run first.
        """
        if self.chaos is None:
            return replace(self, chaos=plan)
        from repro.chaos.plan import merge_plans

        return replace(self, chaos=merge_plans(self.chaos, plan))


def resolve_testbed_config(scenario=None, seed: int = 1,
                           **overrides) -> TestbedConfig:
    """The testbed of ``scenario`` at ``seed``, else the paper's mesh4.

    ``scenario`` is a :class:`repro.scenarios.ScenarioSpec`, a registered
    name or a JSON path; ``overrides`` replace testbed fields (see
    :meth:`repro.scenarios.ScenarioSpec.testbed_config`).
    """
    if scenario is None:
        return TestbedConfig(seed=seed, **overrides)
    from repro.scenarios import resolve_scenario

    return resolve_scenario(scenario).testbed_config(seed=seed, **overrides)


class Testbed:
    """The built system, ready to run."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        config: Optional[TestbedConfig] = None,
        metrics=None,
        fidelity: str = "full",
    ) -> None:
        # The default is constructed lazily so import order can never
        # freeze a stale class-level TestbedConfig instance.
        config = config if config is not None else TestbedConfig()
        # Metrics are a constructor argument, not a TestbedConfig field:
        # the frozen config is the cache fingerprint, and attaching an
        # observer must never change what an arm's results hash to.
        # Fidelity is likewise an execution-tier knob, not part of the
        # scenario identity: "full" (byte-identical event-level default)
        # or "adaptive" (analytic fast-forward through locked quiescence).
        if fidelity not in ("full", "adaptive"):
            raise ValueError(
                f"unknown fidelity {fidelity!r} (expected 'full' or 'adaptive')"
            )
        self.config = config
        self.metrics = metrics
        self.fidelity = fidelity
        self._engine = None
        self.sim = Simulator()
        if metrics is not None:
            self.sim.attach_metrics(metrics)
        self.trace = TraceLog()
        self.rng = RngRegistry(config.seed)
        self.topology: Topology
        self.nodes: Dict[str, EcdNode] = {}
        self.vms: Dict[str, ClockSyncVm] = {}
        self.bridges: Dict[str, TimeAwareBridge] = {}
        self.domains: List[DomainConfig] = []
        self.series = PrecisionSeries(keep_readings=config.keep_probe_readings)
        self.probe_service: PrecisionProbeService
        self.responders: Dict[str, ProbeResponder] = {}
        self.kernel_of: Dict[str, str] = {}
        self.node_of_vm: Dict[str, EcdNode] = {}
        self.chaos: Optional[ChaosOrchestrator] = None
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        cfg = self.config
        n_domains = cfg.n_domains if cfg.n_domains is not None else cfg.n_devices
        if not 1 <= n_domains <= cfg.n_devices:
            raise ValueError(
                f"n_domains={n_domains} must be in [1, {cfg.n_devices}]"
            )
        # Byzantine floor: the FTA masks f faults only with M >= 3f + 1
        # aggregated domains. Scenario specs validate this at spec level;
        # raw configs (and post-hoc aggregator overrides) used to slip
        # through until u_factor blew up mid-derivation — fail at build.
        if cfg.aggregator.f < 0:
            raise ValueError(f"aggregator f={cfg.aggregator.f} must be >= 0")
        if cfg.aggregator.f > 0 and n_domains < 3 * cfg.aggregator.f + 1:
            raise ValueError(
                f"fault hypothesis f={cfg.aggregator.f} needs at least "
                f"{3 * cfg.aggregator.f + 1} domains (M >= 3f + 1); "
                f"got n_domains={n_domains}"
            )
        self._gm_device = cfg.gm_devices()
        self._domain_of_device = {
            dev: dom for dom, dev in self._gm_device.items()
        }
        self.domains = [
            DomainConfig(
                number=x,
                gm_identity=f"c{self._gm_device[x]}_1",
                sync_interval=cfg.sync_interval,
            )
            for x in range(1, n_domains + 1)
        ]
        self._build_network()
        self._build_nodes()
        self._configure_domain_trees()
        self._configure_measurement()
        self._start()

    def _build_network(self) -> None:
        cfg = self.config
        switch_rngs = {
            f"sw{i + 1}": self.rng.stream(f"switch.sw{i + 1}")
            for i in range(cfg.n_devices)
        }
        # The testbed's device count governs the topology size; other link
        # parameters come from the configured model.
        mesh = MeshModel(
            n_devices=cfg.n_devices,
            trunk_base_range=cfg.mesh.trunk_base_range,
            trunk_jitter_range=cfg.mesh.trunk_jitter_range,
            access_base_range=cfg.mesh.access_base_range,
            access_jitter_range=cfg.mesh.access_jitter_range,
            switch=cfg.mesh.switch,
        )
        kwargs = {"hub_device": cfg.hub_device} if cfg.topology == "star" else {}
        kwargs.update(dict(cfg.topology_params))
        self.topology = build_topology(
            cfg.topology,
            self.sim,
            self.rng.stream("topology"),
            mesh,
            trace=self.trace,
            switch_rngs=switch_rngs,
            **kwargs,
        )
        # Long switch paths (line/ring at scale) must clear the defensive
        # per-switch traversal cap; the mesh never exceeds the default.
        needed_hops = self.topology.max_switch_path() + 1
        if needed_hops > MAX_HOPS:
            for sw in self.topology.switches.values():
                sw.hop_limit = needed_hops

    def _nic_model(self) -> NicModel:
        cfg = self.config
        if cfg.transients is None:
            return NicModel()
        return NicModel(
            tx_timestamp_fail_prob=cfg.transients.tx_timestamp_fail_prob,
            deadline_miss_prob=cfg.transients.deadline_miss_prob,
        )

    def _build_nodes(self) -> None:
        cfg = self.config
        # Only devices actually hosting a domain GM need diversified
        # kernels; with M < N (fleet-scale scenarios) the remaining c{x}_1
        # VMs are ordinary receivers on the default stack. Sorted device
        # order keeps the historical assignment for every M = N setup.
        gm_names = [f"c{x}_1" for x in sorted(self._gm_device.values())]
        # Under diversification the exploitable kernel (pool[0]) goes to one
        # designated GM — c4_1 in the paper's Fig. 3b setup.
        exploitable = cfg.exploitable_gm or gm_names[-1]
        if exploitable not in gm_names:
            raise ValueError(f"exploitable_gm {exploitable!r} is not a GM")
        ordered = [exploitable] + [g for g in gm_names if g != exploitable]
        self.kernel_of = assign_kernels(ordered, cfg.kernel_policy)
        nic_model = self._nic_model()
        for x in range(1, cfg.n_devices + 1):
            node = EcdNode(
                self.sim,
                f"dev{x}",
                self.rng.stream(f"node.dev{x}.tsc"),
                trace=self.trace,
                metrics=self.metrics,
            )
            self.nodes[node.name] = node
            for i in range(1, cfg.vms_per_node + 1):
                vm_name = f"c{x}_{i}"
                gm_domain = self._domain_of_device.get(x) if i == 1 else None
                is_gm = gm_domain is not None
                default_stack = (
                    UNIKERNEL_STACK
                    if cfg.kernel_policy == "unikernel"
                    else "linux-5.15.0"
                )
                kernel = self.kernel_of.get(vm_name, default_stack)
                boot_delay = (
                    boot_delay_of(kernel)
                    if cfg.kernel_policy == "unikernel"
                    else cfg.boot_delay
                )
                agg = AggregatorConfig(
                    domains=tuple(d.number for d in self.domains),
                    f=cfg.aggregator.f,
                    sync_interval=cfg.sync_interval,
                    validity=cfg.aggregator.validity,
                    startup_threshold=cfg.aggregator.startup_threshold,
                    startup_confirmations=cfg.aggregator.startup_confirmations,
                    initial_domain=cfg.aggregator.initial_domain,
                    own_domain=gm_domain,
                    aggregation=cfg.aggregator.aggregation,
                    servo=cfg.aggregator.servo,
                    apply_corrections=(
                        cfg.aggregator.apply_corrections
                        and (cfg.aggregate_on_gms or not is_gm)
                    ),
                    validity_mode=cfg.aggregator.validity_mode,
                )
                vm_config = ClockSyncVmConfig(
                    gm_domain=gm_domain,
                    kernel_version=kernel,
                    domains=tuple(self.domains),
                    aggregator=agg,
                    nic=nic_model,
                    boot_delay=boot_delay,
                    phc2sys_mode=cfg.phc2sys_mode,
                )
                vm = node.add_clock_sync_vm(
                    vm_name, vm_config, self.rng.stream(f"vm.{vm_name}")
                )
                self.vms[vm_name] = vm
                self.node_of_vm[vm_name] = node
                self.topology.attach_nic(
                    vm.nic, f"sw{x}", self.rng.stream("topology")
                )
                spread = cfg.initial_offset_spread
                if spread > 0:
                    vm.nic.clock.step(
                        self.rng.stream(f"init.{vm_name}").randint(-spread, spread)
                    )

    def _configure_domain_trees(self) -> None:
        cfg = self.config
        for sw_name in self.topology.switch_names():
            bridge = TimeAwareBridge(
                self.sim,
                self.topology.switch(sw_name),
                self.rng.stream(f"bridge.{sw_name}"),
                trace=self.trace,
            )
            self.bridges[sw_name] = bridge
        # Per domain, the static spanning tree is rooted at the GM's switch:
        # towards the root every bridge has its one slave port (facing the
        # tree parent; on the root, facing the GM VM itself), and masters
        # are the trunk ports to tree children plus the local VM ports.
        # On the full mesh every non-root switch is a direct child of the
        # root, which reduces to the paper's one-trunk-hop configuration.
        vm_range = range(1, self.config.vms_per_node + 1)
        for domain in self.domains:
            root_sw = f"sw{self._gm_device[domain.number]}"
            tree = self.topology.spanning_tree(root_sw)
            for sw_name, bridge in self.bridges.items():
                y = int(sw_name[2:])
                local_vm_ports = [f"vm_c{y}_{i}" for i in vm_range]
                child_trunks = [f"to_{c}" for c in tree.children[sw_name]]
                if sw_name == root_sw:
                    slave = f"vm_{domain.gm_identity}"
                    masters = child_trunks + [
                        p for p in local_vm_ports if p != slave
                    ]
                else:
                    slave = f"to_{tree.parent[sw_name]}"
                    masters = child_trunks + local_vm_ports
                bridge.configure_domain(domain.number, slave, masters)

    def _configure_measurement(self) -> None:
        cfg = self.config
        m = cfg.measurement_device
        sw_m = f"sw{m}"
        # Measurement VLAN: the shortest-path tree rooted at sw_m — parent
        # trunk, child trunks, then local VM ports. Loop-free on any shape;
        # on the full mesh this is the paper's hop-symmetric star over
        # direct trunks (§III-A2).
        tree = self.topology.spanning_tree(sw_m)
        vm_range = range(1, cfg.vms_per_node + 1)
        for sw_name in self.topology.switch_names():
            sw = self.topology.switch(sw_name)
            y = int(sw_name[2:])
            local_vm_ports = [sw.ports[f"vm_c{y}_{i}"] for i in vm_range]
            members = []
            parent = tree.parent[sw_name]
            if parent is not None:
                members.append(sw.ports[f"to_{parent}"])
            members += [sw.ports[f"to_{c}"] for c in tree.children[sw_name]]
            members += local_vm_ports
            sw.set_vlan_members(MEASUREMENT_VLAN, members)
        measurement_vm = self.vms[self.measurement_vm_name]
        self.probe_service = PrecisionProbeService(
            self.sim, measurement_vm, series=self.series
        )
        for vm_name in self.receiver_names:
            vm = self.vms[vm_name]
            self.responders[vm_name] = ProbeResponder(
                vm, self.node_of_vm[vm_name], self.series
            )

    def _start(self) -> None:
        for node in self.nodes.values():
            node.start()
        for bridge in self.bridges.values():
            bridge.start()
        self.sim.schedule_at(
            max(self.sim.now, self.config.measurement_start),
            self.probe_service.start,
        )
        if self.config.chaos is not None:
            from repro.chaos.orchestrator import ChaosOrchestrator

            self.chaos = ChaosOrchestrator(
                self.sim,
                self.topology,
                self.config.chaos,
                self.rng,
                self.vms,
                trace=self.trace,
                metrics=self.metrics,
            )
            self.chaos.start()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def measurement_vm_name(self) -> str:
        """``c{m}_2`` — the VM sending the probes."""
        return f"c{self.config.measurement_device}_2"

    @property
    def excluded_vm_name(self) -> str:
        """``c{m}_1`` — excluded from measurement for path symmetry."""
        return f"c{self.config.measurement_device}_1"

    @property
    def receiver_names(self) -> List[str]:
        """CS := C \\ {c_m1, c_m2} — the measured set of eq. 3.1."""
        excluded = {self.measurement_vm_name, self.excluded_vm_name}
        return sorted(name for name in self.vms if name not in excluded)

    @property
    def gm_names(self) -> List[str]:
        """The virtual grandmasters, one per configured domain."""
        return [d.gm_identity for d in self.domains]

    def gm_domain_of(self) -> Dict[str, int]:
        """GM VM name → domain number (for Fig. 5 color coding)."""
        return {d.gm_identity: d.number for d in self.domains}

    def derive_bounds(self) -> ExperimentBounds:
        """Run the §III-A3 bound derivation against this testbed.

        The measured figures carry the closed-form prediction for the same
        setup (``.predicted``) so every consumer — monitor, manifests, the
        envelope sweep — sees measured and theoretical side by side.
        """
        measured = derive_bounds(
            self.topology,
            self.measurement_vm_name,
            self.receiver_names,
            n_domains=len(self.domains),
            f=self.config.aggregator.f,
            sync_interval=self.config.sync_interval,
        )
        return replace(measured, predicted=predict_testbed_bounds(self))

    def run_until(self, time: int) -> None:
        """Advance the simulation (via the adaptive engine when enabled)."""
        if self.fidelity == "adaptive":
            if self._engine is None:
                from repro.experiments.fidelity import AdaptiveEngine

                self._engine = AdaptiveEngine(self)
            self._engine.run_until(time)
        else:
            self.sim.run_until(time)

    def fastforward_summary(self) -> Dict[str, int]:
        """Fast-forward statistics of this run (empty under full fidelity)."""
        if self._engine is None:
            return {}
        return self._engine.summary()

    def publish_metrics(self) -> None:
        """Flush post-hoc gauges into the attached registry (if any)."""
        if self.metrics is None:
            return
        self.sim.publish_metrics()
        self.metrics.gauge("testbed.probes_recorded").set(len(self.series.records))
        self.metrics.gauge("testbed.trace_records").set(len(self.trace))

    def gm_clock_spread(self) -> float:
        """Max pairwise PHC difference across running GMs (diagnostics)."""
        values = [
            self.vms[name].nic.clock.time()
            for name in self.gm_names
            if self.vms[name].running
        ]
        if len(values) < 2:
            return 0.0
        return float(max(values) - min(values))
