"""Runtime execution of chaos plans.

The orchestrator is the chaos-side sibling of
:class:`~repro.faults.injector.FaultInjector`: built by the testbed when a
:class:`~repro.chaos.plan.ChaosPlan` is configured, it schedules every
stage at its absolute simulation time and applies the action — attaching
:class:`~repro.network.impairments.LinkImpairment` runtimes (each with its
own named RNG stream, so chaos never perturbs link jitter or any other
component's draws), flapping links, launching steered attacks from
:mod:`repro.security.attacks`, stopping VMs, or running the §III-B
exploit: an attempt **succeeds iff the victim runs a kernel affected by
CVE-2018-18955**, and then installs a malicious ptp4l (one
:class:`ExploitAttempt` is kept per attempt).

Every executed stage emits a ``chaos.stage`` trace record, giving the
invariant monitor and post-hoc analysis an exact timeline of what was done
to the network and when.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.chaos.plan import GM_ATTACK_KINDS, VM_ACTIONS, ChaosPlan, ChaosStage
from repro.network.impairments import LinkImpairment
from repro.security.attacks import (
    AdaptiveAttack,
    CollusionAttack,
    DelayAttack,
    OscillatingAttack,
    RampAttack,
    SyncSuppressionAttack,
    WormholeAttack,
    _SteeredAttack,
)
from repro.security.kernels import CVE_2018_18955, is_vulnerable

if TYPE_CHECKING:
    from repro.hypervisor.clock_sync_vm import ClockSyncVm
    from repro.network.link import Link
    from repro.network.topology import Topology
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry
    from repro.sim.trace import TraceLog


@dataclass
class ExploitAttempt:
    """Outcome record of one exploit attempt."""

    time: int
    target: str
    kernel: str
    succeeded: bool


class ChaosOrchestrator:
    """Schedules and applies the stages of one chaos plan."""

    def __init__(
        self,
        sim: "Simulator",
        topology: "Topology",
        plan: ChaosPlan,
        rng: "RngRegistry",
        vms: Dict[str, "ClockSyncVm"],
        trace: Optional["TraceLog"] = None,
        metrics=None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.plan = plan
        self.rng = rng
        self.vms = vms
        self.trace = trace
        self.metrics = metrics
        self.stages_executed = 0
        self.impairments: Dict[str, LinkImpairment] = {}
        self.attacks: List[_SteeredAttack] = []
        self.exploits: List[ExploitAttempt] = []
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule every stage at its absolute simulation time."""
        if self._started:
            raise RuntimeError("chaos orchestrator already started")
        self._started = True
        self._check_targets()
        for stage in self.plan.stages:
            self.sim.schedule_at(stage.at, self._run_stage, stage)

    def _check_targets(self) -> None:
        """Reject stages naming VMs or links absent from this testbed.

        The plan schema already rejects names that cannot be clock-sync
        VMs or link selectors; this catches the well-formed-but-missing
        case (e.g. ``c9_9`` or ``sw1-sw9`` on a four-device topology) when
        the testbed is built, instead of a bare ``KeyError`` when the
        stage eventually fires.
        """
        for stage in self.plan.stages:
            where = (f"chaos plan {self.plan.name!r}, {stage.action} stage "
                     f"at t={stage.at}")
            selectors = stage.links + (
                (stage.dest,) if stage.dest is not None else ())
            for selector in selectors:
                try:
                    self.resolve_links((selector,))
                except KeyError:
                    trunks = ", ".join(
                        f"{a}-{b}" for a, b in sorted(self.topology.trunks))
                    raise ValueError(
                        f"{where}: link selector {selector!r} matches no "
                        f"link of this testbed; trunks: {trunks}"
                    ) from None
            if stage.action not in VM_ACTIONS and (
                stage.action != "attack" or stage.attack not in GM_ATTACK_KINDS
            ):
                continue
            wanted = set(stage.victims)
            if stage.observer is not None:
                wanted.add(stage.observer)
            missing = sorted(wanted - set(self.vms))
            if missing:
                raise ValueError(
                    f"{where}: {', '.join(missing)} not in this "
                    f"testbed; known VMs: {', '.join(sorted(self.vms))}"
                )

    # ------------------------------------------------------------------
    def resolve_links(self, selectors) -> List["Link"]:
        """Expand link selectors against the topology (see plan docstring)."""
        topo = self.topology
        seen: Dict[int, "Link"] = {}

        def add(link: "Link") -> None:
            seen.setdefault(id(link), link)

        for sel in selectors:
            if sel == "*":
                for key in sorted(topo.trunks):
                    add(topo.trunks[key])
            elif sel.startswith("nic:"):
                add(topo.access_links[sel[4:]])
            elif sel.startswith("device:"):
                sw = f"sw{sel[7:]}" if not sel[7:].startswith("sw") else sel[7:]
                found = False
                for (a, b) in sorted(topo.trunks):
                    if sw in (a, b):
                        add(topo.trunks[(a, b)])
                        found = True
                for nic_name in sorted(topo.nic_switch):
                    if topo.nic_switch[nic_name] == sw:
                        add(topo.access_links[nic_name])
                        found = True
                if not found:
                    raise KeyError(f"selector {sel!r}: no links touch {sw}")
            elif "-" in sel:
                a, b = sel.split("-", 1)
                add(topo.trunk(a, b))
            else:
                raise KeyError(f"unrecognized link selector {sel!r}")
        return list(seen.values())

    # ------------------------------------------------------------------
    def _run_stage(self, stage: ChaosStage) -> None:
        self.stages_executed += 1
        if stage.action == "impair":
            for link in self.resolve_links(stage.links):
                imp = self.impairments.get(link.name)
                if imp is None or imp.spec != stage.impairment:
                    imp = LinkImpairment(
                        stage.impairment,
                        self.rng.stream(f"impairment.{link.name}"),
                        link_name=link.name,
                        trace=self.trace,
                        metrics=self.metrics,
                    )
                    self.impairments[link.name] = imp
                link.attach_impairment(imp)
        elif stage.action == "clear":
            for link in self.resolve_links(stage.links):
                link.detach_impairment()
        elif stage.action == "link_down":
            for link in self.resolve_links(stage.links):
                link.set_up(False)
        elif stage.action == "link_up":
            for link in self.resolve_links(stage.links):
                link.set_up(True)
        elif stage.action == "attack":
            attack = self._build_attack(stage)
            attack.launch()
            self.attacks.append(attack)
        elif stage.action == "attack_stop":
            for attack in self.attacks:
                if stage.label is None or attack.label == stage.label:
                    attack.stop()
        elif stage.action == "exploit":
            for name in stage.victims:
                self._exploit(name, stage.shift)
        elif stage.action == "vm_stop":
            for name in stage.victims:
                self.vms[name].fail_silent(
                    reboot=False, reason=stage.label or "vm_stop"
                )
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, "chaos.stage", self.plan.name,
                action=stage.action,
                links=",".join(stage.links),
                attack=stage.attack or "",
            )

    def _exploit(self, name: str, shift: int) -> None:
        """Run CVE-2018-18955 against VM ``name``; on root, shift its GM."""
        vm = self.vms[name]
        kernel = vm.config.kernel_version
        succeeded = vm.running and is_vulnerable(kernel, CVE_2018_18955.cve)
        self.exploits.append(ExploitAttempt(
            time=self.sim.now, target=name, kernel=kernel, succeeded=succeeded
        ))
        if self.trace is not None:
            outcome = "success" if succeeded else "failed"
            self.trace.emit(self.sim.now, f"attack.exploit_{outcome}", name,
                            cve=CVE_2018_18955.cve, kernel=kernel)
        if succeeded:
            vm.compromise(shift)

    def _build_attack(self, stage: ChaosStage):
        """Instantiate the attack an ``attack`` stage describes."""
        kind = stage.attack
        if kind in GM_ATTACK_KINDS:
            victims = [self.vms[name] for name in stage.victims]
            if kind == "ramp":
                return RampAttack(
                    self.sim, victims, trace=self.trace, label=stage.label,
                    step_per_update=stage.step_per_update,
                )
            if kind == "oscillate":
                return OscillatingAttack(
                    self.sim, victims, trace=self.trace, label=stage.label,
                    amplitude=stage.amplitude,
                    period_updates=stage.period_updates,
                )
            if kind == "collude":
                return CollusionAttack(
                    self.sim, victims, trace=self.trace, label=stage.label,
                    shift=stage.shift,
                )
            observer = self.vms[stage.observer or stage.victims[0]]
            return AdaptiveAttack(
                self.sim, victims, trace=self.trace, label=stage.label,
                observer=observer, shift=stage.shift,
            )
        links = self.resolve_links(stage.links)
        label = stage.label or f"{kind}@{stage.at}"
        if kind == "suppress":
            return SyncSuppressionAttack(
                self.sim, links, self.rng.stream(f"attack.{label}"),
                drop_prob=stage.drop_prob, domains=stage.domains,
                trace=self.trace, label=stage.label,
            )
        if kind == "delay":
            return DelayAttack(
                self.sim, links, extra_delay=stage.extra_delay,
                domains=stage.domains, trace=self.trace, label=stage.label,
            )
        (dest,) = self.resolve_links((stage.dest,))
        return WormholeAttack(
            self.sim, links, dest=dest, tunnel_delay=stage.tunnel_delay,
            domains=stage.domains, trace=self.trace, label=stage.label,
        )

    # ------------------------------------------------------------------
    def link_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-link impairment counter snapshot (for result reporting)."""
        return {
            name: imp.stats() for name, imp in sorted(self.impairments.items())
        }

    def summary(self) -> Dict[str, object]:
        """Aggregate counters for manifests and text reports."""
        totals = {"seen": 0, "dropped": 0, "duplicated": 0, "reordered": 0,
                  "congestion_delayed": 0}
        for imp in self.impairments.values():
            for key, value in imp.stats().items():
                totals[key] += value
        return {
            "plan": self.plan.name,
            "stages_executed": self.stages_executed,
            "links_impaired": len(self.impairments),
            "attacks_launched": len(self.attacks),
            **totals,
            "packets_suppressed": sum(
                getattr(a, "packets_suppressed", 0) for a in self.attacks
            ),
            "packets_delayed": sum(
                getattr(a, "packets_delayed", 0) for a in self.attacks
            ),
            "packets_tunneled": sum(
                getattr(a, "packets_tunneled", 0) for a in self.attacks
            ),
        }
