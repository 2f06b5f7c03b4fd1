"""Attack variants beyond the paper's static −24 µs shift.

The §III-B malicious ptp4l applies a constant preciseOriginTimestamp
offset — blunt, and (with one compromised GM) cleanly masked. Smarter
adversaries exist and a security evaluation should include them:

* :class:`RampAttack` — the classic *slow time-walk* attempt: the shift
  grows by a small increment per sync interval, staying inside the validity
  threshold at every step. A single ramping GM is bounded by the FTA (its
  reading is trimmed whenever it strays to an extreme). A *colluding pair*
  does **not** achieve a stealthy walk in this architecture: because the
  grandmasters themselves are disciplined toward the mutual FTA, the pull
  compounds — the ensemble accelerates until the servos saturate and the
  measured precision Π* visibly violates the bound. Pull attacks are thus
  converted into detectable divergence (the same signature as Fig. 3a), an
  emergent property of the paper's GM-side aggregation that the
  client-only design (Kyriakakis) lacks.
* :class:`OscillatingAttack` — alternates the shift sign to stress the
  servo; mostly useful to show the PI loop's low-pass behaviour absorbs it.
* :class:`CollusionAttack` — the worst-case adversary of the
  Resilience-Bounds line of work: ``k`` grandmasters apply the *same*
  constant shift chosen just inside the validity window, so the colluders
  keep vouching for each other and are never invalidated. For ``k <= f``
  the FTA trims the whole bloc; for ``k > f`` one colluder always survives
  the trim, the aggregate is biased every gate, the PI integrators have no
  equilibrium and ramp until they saturate — the breaking point the
  ``attackbudget`` sweep measures.
* :class:`AdaptiveAttack` — observes, through a foothold VM, which domains
  the ensemble currently deems valid, and retargets each epoch: victims
  whose domain got invalidated back off to zero shift (to regain trust)
  while the rest keep pushing.

The above drive the hook the paper's attack uses
(:attr:`Ptp4lInstance.malicious_origin_shift`), updated per interval by a
simulated process — exactly what a compromised ptp4l binary could do.

On-path adversaries (a compromised switch or bump-in-the-wire) are modelled
as *link taps* that slot into the link's impairment hook, wrapping whatever
impairment is already attached:

* :class:`SyncSuppressionAttack` — selectively drops Sync/Follow_Up frames
  (optionally per domain) while letting everything else through: the
  starved domain goes stale and is excluded, consuming resilience margin
  without ever forging a timestamp.
* :class:`DelayAttack` — adds a fixed extra latency to Sync/Follow_Up only,
  leaving the pdelay exchange untouched: the asymmetry defeats the delay
  mechanism and shifts the victim domain's readings by the injected amount.
* :class:`WormholeAttack` — copies gPTP frames from one link and replays
  them onto another after a tunnel delay (an out-of-band channel), planting
  stale timestamps on a far network segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Sequence

from repro.gptp.messages import FollowUp, Sync
from repro.hypervisor.clock_sync_vm import ClockSyncVm
from repro.network.link import Link
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTask
from repro.sim.timebase import MILLISECONDS
from repro.sim.trace import TraceLog


class _SteeredAttack:
    """Base: periodically recompute the origin shift on compromised VMs."""

    def __init__(
        self,
        sim: Simulator,
        victims: List[ClockSyncVm],
        update_interval: int = 125 * MILLISECONDS,
        trace: Optional[TraceLog] = None,
        label: Optional[str] = None,
    ) -> None:
        if not victims:
            raise ValueError("attack needs at least one compromised VM")
        self.sim = sim
        self.victims = list(victims)
        self.trace = trace
        self.label = label
        self.ticks = 0
        self._task = PeriodicTask(
            sim, period=update_interval, action=self._tick, name=type(self).__name__
        )

    def launch(self) -> None:
        """Compromise the victims and start steering the shift."""
        for vm in self.victims:
            vm.compromise(origin_shift=0)
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, "attack.steered_launch",
                ",".join(vm.name for vm in self.victims),
                kind=type(self).__name__,
            )
        self._task.start()

    def stop(self) -> None:
        """Stop steering (shift freezes at its last value)."""
        self._task.stop()

    def _tick(self) -> None:
        self.ticks += 1
        shift = self.current_shift()
        for vm in self.victims:
            if vm.running and vm.config.gm_domain is not None:
                vm.stack.instances[vm.config.gm_domain].malicious_origin_shift = shift

    def current_shift(self) -> int:
        """Shift to apply this interval (subclass hook)."""
        raise NotImplementedError


class RampAttack(_SteeredAttack):
    """Slow time-walk: shift grows by ``step_per_update`` each interval."""

    def __init__(self, *args, step_per_update: int = -100, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.step_per_update = step_per_update

    def current_shift(self) -> int:
        return self.ticks * self.step_per_update


class OscillatingAttack(_SteeredAttack):
    """Alternating shift of fixed amplitude (servo stress)."""

    def __init__(self, *args, amplitude: int = 10_000, period_updates: int = 16,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.amplitude = amplitude
        self.period_updates = period_updates

    def current_shift(self) -> int:
        half = self.period_updates // 2
        positive = (self.ticks // half) % 2 == 0
        return self.amplitude if positive else -self.amplitude


class CollusionAttack(_SteeredAttack):
    """Constant in-window shift on every colluder (worst-case adversary).

    ``shift`` should satisfy ``abs(shift) < ValidityConfig().threshold`` so
    the colluding bloc keeps vouching for itself; the default sits at 80%
    of the 5 µs window.
    """

    def __init__(self, *args, shift: int = -4_000, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.shift = shift

    def current_shift(self) -> int:
        return self.shift


class AdaptiveAttack(_SteeredAttack):
    """Colluders that watch the ensemble and retarget each epoch.

    ``observer`` is any clock-sync VM the adversary has a foothold on; its
    aggregator's per-gate validity flags are the attacker's view of which
    domains the ensemble currently trusts. A victim whose domain has been
    invalidated backs off to zero shift (to look honest again and regain
    its vouchers) while the still-trusted victims keep pushing.
    """

    def __init__(self, *args, observer: ClockSyncVm, shift: int = -4_000,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.observer = observer
        self.shift = shift
        self.retargets = 0
        self._applied: Dict[str, int] = {}

    def _tick(self) -> None:
        self.ticks += 1
        flags = self.observer.aggregator.last_valid_flags
        for vm in self.victims:
            domain = vm.config.gm_domain
            if not (vm.running and domain is not None):
                continue
            shift = self.shift if flags.get(domain, True) else 0
            if self._applied.get(vm.name, self.shift) != shift:
                self.retargets += 1
                if self.trace is not None:
                    self.trace.emit(
                        self.sim.now, "attack.retarget", vm.name,
                        domain=domain, shift=shift,
                    )
            self._applied[vm.name] = shift
            vm.stack.instances[domain].malicious_origin_shift = shift


# ----------------------------------------------------------------------
# On-path (link tap) attacks
# ----------------------------------------------------------------------
class _LinkTapAttack:
    """Base: an on-path adversary occupying the links' impairment slot.

    Implements the ``LinkImpairment`` carry protocol directly. Whatever
    impairment was attached when the tap launches keeps operating *behind*
    the tap (the tap delegates forwarded packets to it), and is restored
    when the tap stops — so a chaos plan's loss model and an attack can
    coexist on the same link.
    """

    def __init__(
        self,
        sim: Simulator,
        links: Sequence[Link],
        domains: Sequence[int] = (),
        trace: Optional[TraceLog] = None,
        label: Optional[str] = None,
    ) -> None:
        if not links:
            raise ValueError("attack needs at least one tapped link")
        self.sim = sim
        self.links = list(links)
        self.domains = tuple(domains)
        self.trace = trace
        self.label = label
        self._inner: Dict[int, object] = {}
        self._launched = False

    def launch(self) -> None:
        """Insert the tap in front of each link's current impairment."""
        if self._launched:
            raise RuntimeError("attack already launched")
        self._launched = True
        for link in self.links:
            self._inner[id(link)] = link.detach_impairment()
            link.attach_impairment(self)
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, "attack.tap_launch",
                ",".join(link.name for link in self.links),
                kind=type(self).__name__,
            )

    def stop(self) -> None:
        """Remove the tap, restoring the wrapped impairments."""
        for link in self.links:
            if link.impairment is self:
                link.detach_impairment()
                inner = self._inner.get(id(link))
                if inner is not None:
                    link.attach_impairment(inner)
        self._inner.clear()

    # -- LinkImpairment protocol --------------------------------------
    def carry(self, link: Link, from_port, packet, delay: int) -> None:
        raise NotImplementedError

    def _forward(self, link: Link, from_port, packet, delay: int) -> None:
        """Pass a packet on unchanged, through the wrapped impairment."""
        inner = self._inner.get(id(link))
        if inner is not None:
            inner.carry(link, from_port, packet, delay)
        else:
            link.deliver_after(delay, packet, from_port is link.a)

    def _targets(self, packet) -> bool:
        """Whether this frame is a Sync/Follow_Up of a targeted domain."""
        payload = packet.payload
        if not isinstance(payload, (Sync, FollowUp)):
            return False
        return not self.domains or payload.domain in self.domains


class SyncSuppressionAttack(_LinkTapAttack):
    """Selectively drop Sync/Follow_Up frames of the targeted domains."""

    def __init__(
        self,
        sim: Simulator,
        links: Sequence[Link],
        rng: Random,
        drop_prob: float = 1.0,
        domains: Sequence[int] = (),
        trace: Optional[TraceLog] = None,
        label: Optional[str] = None,
    ) -> None:
        if not 0.0 < drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in (0, 1], got {drop_prob}")
        super().__init__(sim, links, domains=domains, trace=trace, label=label)
        self.rng = rng
        self.drop_prob = drop_prob
        self.packets_suppressed = 0

    def carry(self, link: Link, from_port, packet, delay: int) -> None:
        if self._targets(packet):
            # Deterministic suppression draws nothing from the stream, so
            # an all-drop attack perturbs no other RNG consumer.
            if self.drop_prob >= 1.0 or self.rng.random() < self.drop_prob:
                self.packets_suppressed += 1
                return
        self._forward(link, from_port, packet, delay)


class DelayAttack(_LinkTapAttack):
    """Add ``extra_delay`` to Sync/Follow_Up only (asymmetric latency).

    The pdelay exchange still measures the unimpaired link, so the slaves'
    link-delay correction cannot see the detour: every stored reading for
    the victim domain shifts by ≈ ``extra_delay``.
    """

    def __init__(
        self,
        sim: Simulator,
        links: Sequence[Link],
        extra_delay: int,
        domains: Sequence[int] = (),
        trace: Optional[TraceLog] = None,
        label: Optional[str] = None,
    ) -> None:
        if extra_delay <= 0:
            raise ValueError(f"extra_delay must be positive, got {extra_delay}")
        super().__init__(sim, links, domains=domains, trace=trace, label=label)
        self.extra_delay = extra_delay
        self.packets_delayed = 0

    def carry(self, link: Link, from_port, packet, delay: int) -> None:
        if self._targets(packet):
            self.packets_delayed += 1
            delay += self.extra_delay
        self._forward(link, from_port, packet, delay)


class WormholeAttack(_LinkTapAttack):
    """Copy gPTP frames off tapped links and replay them elsewhere.

    Tapped traffic is forwarded untouched; matching Sync/Follow_Up frames
    are additionally cloned onto ``dest`` (both directions) after
    ``tunnel_delay`` — stale timestamps surface on a segment they were
    never sent to.

    To have any effect, ``dest`` must lie on the victim domain's
    distribution tree: 802.1AS bridges terminate and regenerate Sync
    rather than forwarding it, accepting ingress only on the domain's
    configured slave port, so off-tree injection is silently dropped by
    the relay (a defence the architecture gets from the standard itself).
    """

    def __init__(
        self,
        sim: Simulator,
        links: Sequence[Link],
        dest: Link,
        tunnel_delay: int = 0,
        domains: Sequence[int] = (),
        trace: Optional[TraceLog] = None,
        label: Optional[str] = None,
    ) -> None:
        if tunnel_delay < 0:
            raise ValueError(f"tunnel_delay must be >= 0, got {tunnel_delay}")
        super().__init__(sim, links, domains=domains, trace=trace, label=label)
        self.dest = dest
        self.tunnel_delay = tunnel_delay
        self.packets_tunneled = 0

    def carry(self, link: Link, from_port, packet, delay: int) -> None:
        if self._targets(packet) and self.dest.up:
            self.packets_tunneled += 1
            replay = delay + self.tunnel_delay
            self.dest.deliver_after(replay, packet.copy_for_forwarding(), True)
            self.dest.deliver_after(replay, packet.copy_for_forwarding(), False)
        self._forward(link, from_port, packet, delay)
