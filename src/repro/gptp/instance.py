"""ptp4l-like per-domain protocol instances and the per-NIC gPTP stack.

A clock synchronization VM runs ``M`` :class:`Ptp4lInstance` objects over a
single NIC — one per gPTP domain — exactly like the paper's patched ptp4l
processes. Each instance is either

* **grandmaster** for its domain: it transmits two-step Sync on a launch-time
  grid aligned to its (FTA-disciplined) PHC so all GMs send within the
  synchronization precision of each other (§II-B), then issues the FollowUp
  with the hardware transmit timestamp as ``preciseOriginTimestamp``; or
* **slave**: it matches Sync/FollowUp pairs, subtracts the access-link pdelay
  and the accumulated correction field, and emits the GM offset
  ``c_i = t_rx,local − t_GM,at-rx``.

Offsets do not go to a servo directly — they go to a pluggable
:class:`OffsetSink`. The paper's contribution (FTSHMEM + FTA + shared PI) is
one sink; the single-domain baseline wires a servo-backed sink instead.

A compromised GM runs the same code with ``malicious_origin_shift`` set: the
FollowUp's preciseOriginTimestamp is silently displaced, which is the attack
from §III-B (−24 µs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Protocol

from repro.clocks.hardware_clock import HardwareClock
from repro.gptp.domain import DomainConfig
from repro.gptp.messages import FollowUp, Sync
from repro.gptp.pdelay import PdelayInitiator, PdelayResponder, dispatch_pdelay
from repro.gptp.transport import NicTransport
from repro.network.nic import Nic
from repro.network.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTask
from repro.sim.timebase import MILLISECONDS
from repro.sim.trace import TraceLog
from repro._compat import SLOTTED


@dataclass(**SLOTTED)
class OffsetSample:
    """One measured GM offset at one slave.

    ``offset`` follows the LinuxPTP convention ``slave − master``: positive
    means the local clock is ahead of the grandmaster.

    Treat as immutable. Not ``frozen``: one sample is allocated per received
    FollowUp, and frozen construction costs ~4× (every field goes through
    ``object.__setattr__``).
    """

    domain: int
    gm_identity: str
    offset: float
    origin_timestamp: int
    local_rx_timestamp: int


class OffsetSink(Protocol):
    """Consumer of per-domain offset samples (FTA aggregator, baselines)."""

    def handle_offset(self, sample: OffsetSample) -> None:
        """Ingest one sample."""
        ...


class Ptp4lInstance:
    """One domain's protocol engine on one NIC."""

    #: Sync is enqueued this long (PHC time) before its launch instant.
    LAUNCH_LEAD = 20 * MILLISECONDS

    def __init__(
        self,
        sim: Simulator,
        config: DomainConfig,
        transport: NicTransport,
        clock: HardwareClock,
        sink: OffsetSink,
        rng: random.Random,
        link_delay_source: PdelayInitiator,
        is_gm: bool = False,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.transport = transport
        self.clock = clock
        self.sink = sink
        self.rng = rng
        self.link_delay_source = link_delay_source
        self.is_gm = is_gm
        self.trace = trace
        #: Attack knob (§III-B): added to every preciseOriginTimestamp.
        self.malicious_origin_shift: int = 0
        self.sync_sent = 0
        self.follow_up_sent = 0
        self.offsets_computed = 0
        self.follow_up_missing_sync = 0
        self._seq = 0
        self._last_launch: Optional[int] = None
        self._pending_sync: Dict[int, int] = {}  # seq -> rx_ts
        # Hot-path bindings: one timeout post per received Sync.
        self._post = sim.post
        self._follow_up_timeout = config.follow_up_timeout
        # Port roles are configured externally (§III-A1): a GM stays GM.
        self._gm_task: Optional[PeriodicTask] = None
        if is_gm:
            self._gm_task = PeriodicTask(
                sim,
                period=config.sync_interval,
                action=self._enqueue_sync,
                phase=self.LAUNCH_LEAD,
                jitter=config.sync_interval // 50,
                rng=rng,
                name=f"gm.{transport.name}.dom{config.number}",
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin operation (GM transmit loop, if any)."""
        if self._gm_task is not None and not self._gm_task.running:
            self._gm_task.start()

    def stop(self) -> None:
        """Halt operation and drop matching state (VM failure/reboot)."""
        if self._gm_task is not None:
            self._gm_task.stop()
        self._pending_sync.clear()

    # ------------------------------------------------------------------
    # Grandmaster transmit path
    # ------------------------------------------------------------------
    def _enqueue_sync(self) -> None:
        """Enqueue the next Sync at the next launch-grid point of the PHC.

        The grid is the PHC's multiples of the sync interval S. Because every
        GM's PHC is disciplined toward the fault-tolerant global time, the M
        grandmasters hit the same grid point within the synchronization
        precision Π — the paper's quasi-synchronous transmission via the ETF
        qdisc and NIC launch time.
        """
        interval = self.config.sync_interval
        phc_now = self.clock.time()
        launch = ((phc_now + self.LAUNCH_LEAD // 2) // interval + 1) * interval
        if self._last_launch is not None and launch <= self._last_launch:
            launch = self._last_launch + interval
        self._last_launch = launch
        self._seq += 1
        seq = self._seq
        sync = Sync(
            domain=self.config.number,
            sequence_id=seq,
            gm_identity=self.transport.name,
        )

        def with_tx_timestamp(tx_ts: Optional[int]) -> None:
            if tx_ts is None:
                # tx_timeout or deadline miss: the NIC already counted and
                # traced it; without t1 there is nothing to follow up.
                return
            self._send_follow_up(seq, tx_ts)

        self.transport.send(sync, launch_time=launch, on_tx_timestamp=with_tx_timestamp)
        self.sync_sent += 1

    def _send_follow_up(self, seq: int, tx_ts: int) -> None:
        origin = tx_ts + self.malicious_origin_shift
        follow_up = FollowUp(
            self.config.number, seq, self.transport.name, origin, 0.0, 1.0
        )
        self.transport.send(follow_up)
        self.follow_up_sent += 1
        # The GM's own offset to its domain's grandmaster is zero by
        # definition; feeding it keeps the FTA's view complete (classic
        # FTA includes the local clock's self-difference).
        self.sink.handle_offset(
            OffsetSample(self.config.number, self.transport.name, 0.0, origin, tx_ts)
        )

    # ------------------------------------------------------------------
    # Slave receive path
    # ------------------------------------------------------------------
    def on_sync(self, message: Sync, rx_ts: int) -> None:
        """Record a Sync's hardware receive timestamp, await its FollowUp."""
        if self.is_gm:
            return  # our own domain's Sync reflected by mis-wiring: ignore
        self._pending_sync[message.sequence_id] = rx_ts
        # Bound matching state: discard if the FollowUp never shows.
        self._post(
            self._follow_up_timeout,
            self._pending_sync.pop,
            message.sequence_id,
            None,
        )

    def on_follow_up(self, message: FollowUp) -> None:
        """Match a FollowUp against its Sync and emit the GM offset."""
        if self.is_gm:
            return
        rx_ts = self._pending_sync.pop(message.sequence_id, None)
        if rx_ts is None:
            self.follow_up_missing_sync += 1
            return
        link_delay = self.link_delay_source.link_delay
        if link_delay is None:
            return  # pdelay not converged yet; skip this interval
        master_at_rx = (
            message.precise_origin_timestamp
            + message.correction_field
            + message.rate_ratio * link_delay
        )
        offset = rx_ts - master_at_rx
        self.offsets_computed += 1
        self.sink.handle_offset(
            OffsetSample(
                self.config.number,
                message.gm_identity,
                offset,
                message.precise_origin_timestamp,
                rx_ts,
            )
        )

    def __repr__(self) -> str:
        role = "GM" if self.is_gm else "slave"
        return f"Ptp4lInstance(dom{self.config.number}, {role}, {self.transport.name!r})"


class GptpStack:
    """Everything gPTP on one NIC: pdelay, M instances, rx dispatch."""

    def __init__(
        self,
        sim: Simulator,
        nic: Nic,
        rng: random.Random,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.nic = nic
        self.rng = rng
        self.trace = trace
        self.transport = NicTransport(nic)
        self.pdelay_responder = PdelayResponder(self.transport)
        self.pdelay_initiator = PdelayInitiator(sim, self.transport, rng)
        self.instances: Dict[int, Ptp4lInstance] = {}
        self._started = False
        nic.set_gptp_handler(self._on_gptp)

    # ------------------------------------------------------------------
    def add_instance(
        self,
        config: DomainConfig,
        sink: OffsetSink,
        is_gm: bool = False,
    ) -> Ptp4lInstance:
        """Create the ptp4l instance for one domain."""
        if config.number in self.instances:
            raise ValueError(f"domain {config.number} already configured")
        instance = Ptp4lInstance(
            sim=self.sim,
            config=config,
            transport=self.transport,
            clock=self.nic.clock,
            sink=sink,
            rng=self.rng,
            link_delay_source=self.pdelay_initiator,
            is_gm=is_gm,
            trace=self.trace,
        )
        self.instances[config.number] = instance
        if self._started:
            instance.start()
        return instance

    def start(self) -> None:
        """Start pdelay and all instances."""
        if self._started:
            return
        self._started = True
        self.pdelay_initiator.start()
        for instance in self.instances.values():
            instance.start()

    def stop(self) -> None:
        """Stop everything (fail-silent VM / shutdown)."""
        if not self._started:
            return
        self._started = False
        self.pdelay_initiator.stop()
        for instance in self.instances.values():
            instance.stop()

    # ------------------------------------------------------------------
    def _on_gptp(self, packet: Packet, rx_ts: int) -> None:
        if not self._started:
            return
        # Sync/FollowUp dominate ingress volume; test for them first. The
        # message classes are disjoint, so the check order is behaviourally
        # irrelevant.
        message = packet.payload
        if isinstance(message, Sync):
            instance = self.instances.get(message.domain)
            if instance is not None:
                instance.on_sync(message, rx_ts)
        elif isinstance(message, FollowUp):
            instance = self.instances.get(message.domain)
            if instance is not None:
                instance.on_follow_up(message)
        else:
            dispatch_pdelay(
                message, rx_ts, self.pdelay_responder, self.pdelay_initiator
            )

    def __repr__(self) -> str:
        return f"GptpStack({self.nic.name!r}, domains={sorted(self.instances)})"
