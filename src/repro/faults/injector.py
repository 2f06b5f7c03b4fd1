"""The fault injection tool.

One :class:`FaultInjector` drives the whole testbed (the per-node tools of
the paper coordinate their GM schedule; modelling them as one scheduler with
per-node state is observably identical).

Grandmaster shutdowns rotate dev1 → dev2 → … with a configurable period;
redundant (non-GM) VM shutdowns are a per-node Poisson process clamped to
the paper's "at most one per five minutes per node". Every injection honours
the fail-silent budget: a VM is only killed if its node sibling is running,
otherwise the injection is skipped and traced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set

from repro.hypervisor.clock_sync_vm import ClockSyncVm
from repro.hypervisor.node import EcdNode
from repro.sim.kernel import Simulator
from repro.sim.timebase import HOURS, MINUTES, SECONDS
from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class FaultInjectionConfig:
    """Schedule parameters (§III-C).

    Attributes
    ----------
    gm_shutdown_period:
        Gap between consecutive GM shutdowns (rotating across devices).
        30 min yields the paper's 48 GM failures over 24 h.
    redundant_rate_per_hour:
        Mean random shutdowns per hour per node for non-GM VMs; the paper
        bounds the realized frequency to [1, 12] per hour per node.
    min_gap:
        Paper's hard floor between redundant shutdowns of one node (5 min).
    exclude:
        VM names never injected (the measurement VM, so the 1 Hz probe
        stream is continuous).
    initial_delay:
        Quiet period before the first injection (lets startup finish).
    require_sibling_synchronized:
        Only inject when the surviving sibling has re-entered fault-
        tolerant operation (the implicit consequence of the paper's sparse
        schedule). Disable for schedule-only tests without a network.
    """

    gm_shutdown_period: int = 30 * MINUTES
    redundant_rate_per_hour: float = 2.0
    min_gap: int = 5 * MINUTES
    exclude: tuple = ()
    initial_delay: int = 5 * MINUTES
    require_sibling_synchronized: bool = True


@dataclass
class InjectionRecord:
    """One performed (or skipped) injection."""

    time: int
    vm: str
    kind: str  # "gm" | "redundant"
    skipped: bool = False
    reason: str = ""


class FaultInjector:
    """Drives fail-silent injections over a set of nodes."""

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[EcdNode],
        config: FaultInjectionConfig,
        rng: random.Random,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.nodes = list(nodes)
        self.config = config
        self.rng = rng
        self.trace = trace
        self.records: List[InjectionRecord] = []
        self._gm_cursor = 0
        self._armed = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the schedule."""
        if self._armed:
            raise RuntimeError("injector already started")
        self._armed = True
        self.sim.schedule(
            self.config.initial_delay + self.config.gm_shutdown_period,
            self._gm_tick,
        )
        for node in self.nodes:
            self._schedule_redundant(node)

    # ------------------------------------------------------------------
    # Grandmaster rotation
    # ------------------------------------------------------------------
    def _gm_tick(self) -> None:
        node = self.nodes[self._gm_cursor % len(self.nodes)]
        self._gm_cursor += 1
        gm = self._gm_of(node)
        if gm is None:
            self._record(node.name, "gm", skipped=True, reason="no GM VM")
        else:
            self._inject(gm, node, kind="gm")
        self.sim.schedule(self.config.gm_shutdown_period, self._gm_tick)

    # ------------------------------------------------------------------
    # Random redundant shutdowns
    # ------------------------------------------------------------------
    def _schedule_redundant(self, node: EcdNode) -> None:
        rate = self.config.redundant_rate_per_hour
        if rate <= 0:
            return
        mean_gap = HOURS / rate
        gap = max(
            self.config.min_gap,
            round(self.rng.expovariate(1.0 / mean_gap)),
        )
        # The quiet period holds back only the first shutdown; after it,
        # consecutive shutdowns of a node are ``gap`` apart.
        self.sim.schedule_at(
            max(self.sim.now + gap, self.config.initial_delay),
            self._redundant_tick,
            node,
        )

    def _redundant_tick(self, node: EcdNode) -> None:
        candidates = [
            vm
            for vm in node.clock_sync_vms
            if not vm.is_gm and vm.name not in self.config.exclude
        ]
        if candidates:
            victim = self.rng.choice(candidates)
            self._inject(victim, node, kind="redundant")
        self._schedule_redundant(node)

    # ------------------------------------------------------------------
    def _inject(self, vm: ClockSyncVm, node: EcdNode, kind: str) -> None:
        if not vm.running:
            self._record(vm.name, kind, skipped=True, reason="already down")
            return
        if not self._sibling_operational(vm, node):
            # Would violate the fail-silent hypothesis: the paper's tool
            # never takes both VMs of a node down "simultaneously", which
            # with its sparse schedule (>= 5 min gaps, short boots) also
            # means the surviving sibling is always fully re-synchronized.
            self._record(vm.name, kind, skipped=True, reason="sibling not ready")
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "injector.skipped", vm.name, kind=kind,
                    reason="sibling not ready",
                )
            return
        self._record(vm.name, kind)
        if self.trace is not None:
            self.trace.emit(self.sim.now, "injector.shutdown", vm.name, kind=kind)
        vm.fail_silent(reason=f"injected-{kind}")

    def _sibling_operational(self, vm: ClockSyncVm, node: EcdNode) -> bool:
        """Sibling up *and* re-synchronized (a valid fail-silent backup)."""
        from repro.core.aggregator import AggregatorMode

        for other in node.clock_sync_vms:
            if other is vm or not other.running:
                continue
            if not self.config.require_sibling_synchronized:
                return True
            aggregator = getattr(other, "aggregator", None)
            if aggregator is None or aggregator.mode is AggregatorMode.FAULT_TOLERANT:
                return True
        return False

    def _gm_of(self, node: EcdNode) -> Optional[ClockSyncVm]:
        for vm in node.clock_sync_vms:
            if vm.is_gm:
                return vm
        return None

    def _record(self, vm: str, kind: str, skipped: bool = False, reason: str = "") -> None:
        self.records.append(
            InjectionRecord(
                time=self.sim.now, vm=vm, kind=kind, skipped=skipped, reason=reason
            )
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def performed(self, kind: Optional[str] = None) -> List[InjectionRecord]:
        """Injections that actually happened."""
        return [
            r
            for r in self.records
            if not r.skipped and (kind is None or r.kind == kind)
        ]

    def summary(self) -> dict:
        """Counts in the shape the paper reports (§III-C)."""
        gm = len(self.performed("gm"))
        redundant = len(self.performed("redundant"))
        return {
            "fail_silent_total": gm + redundant,
            "gm_failures": gm,
            "redundant_failures": redundant,
            "skipped": sum(1 for r in self.records if r.skipped),
        }
