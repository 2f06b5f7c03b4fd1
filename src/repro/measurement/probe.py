"""The measurement VM's probe service and the per-VM probe responders.

The probe is a real multicast packet on the measurement VLAN: it traverses
the simulated switches and links, so each receiver timestamps it after its
own (different) path latency — the source of the measurement error γ that
the paper subtracts analytically rather than physically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.hypervisor.clock_sync_vm import ClockSyncVm
from repro.hypervisor.node import EcdNode
from repro.measurement.precision import PrecisionSeries
from repro.network.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTask
from repro.sim.timebase import MILLISECONDS, SECONDS

#: VLAN id of the measurement VLAN (static membership pins probe paths).
MEASUREMENT_VLAN = 100

#: Multicast group of the probes.
PROBE_GROUP = "mcast:precision-probe"


@dataclass(frozen=True)
class ProbePayload:
    """Payload of one measurement probe."""

    seq: int


class ProbeResponder:
    """Timestamps probe arrivals with the node's CLOCK_SYNCTIME.

    Attached to a clock synchronization VM's NIC, which hands it every
    non-gPTP frame; it answers only probes. A failed (fail-silent) VM does
    not respond — its NIC is down anyway — and a node whose STSHMEM was
    never initialized cannot timestamp yet.
    """

    def __init__(
        self,
        vm: ClockSyncVm,
        node: EcdNode,
        series: PrecisionSeries,
        enabled: bool = True,
    ) -> None:
        self.vm = vm
        self.node = node
        self.series = series
        self.enabled = enabled
        self.responses = 0
        vm.nic.attach_rx_handler(self._on_rx)

    def _on_rx(self, packet: Packet, rx_ts: int) -> None:
        if not self.enabled or packet.dst != PROBE_GROUP:
            return
        if not self.vm.running or not self.node.synctime_ready():
            return
        payload = packet.payload
        self.responses += 1
        self.series.observe(payload.seq, self.vm.name, self.node.synctime())


class PrecisionProbeService:
    """The measurement VM side: 1 Hz probes + interval finalization."""

    #: How long after sending a probe its interval closes (all receivers
    #: are a few µs away; 100 ms is generous and keeps ordering simple).
    COLLECTION_WINDOW = 100 * MILLISECONDS

    def __init__(
        self,
        sim: Simulator,
        vm: ClockSyncVm,
        series: Optional[PrecisionSeries] = None,
        period: int = SECONDS,
        vlan: int = MEASUREMENT_VLAN,
    ) -> None:
        self.sim = sim
        self.vm = vm
        self.series = series if series is not None else PrecisionSeries()
        self.vlan = vlan
        self.probes_sent = 0
        self._seq = 0
        self._task = PeriodicTask(
            sim, period=period, action=self._send_probe,
            name=f"probe.{vm.name}",
        )

    def start(self) -> None:
        """Begin probing."""
        self._task.start()

    def _send_probe(self) -> None:
        if not self.vm.running:
            return  # measurement VM down: a gap in the series
        self._seq += 1
        seq = self._seq
        self.series.probe_sent(seq, self.sim.now)
        packet = Packet(
            dst=PROBE_GROUP,
            src=self.vm.name,
            payload=ProbePayload(seq=seq),
            vlan=self.vlan,
            size_bytes=64,
        )
        self.vm.nic.send(packet)
        self.probes_sent += 1
        self.sim.schedule(self.COLLECTION_WINDOW, self.series.finalize, seq)
