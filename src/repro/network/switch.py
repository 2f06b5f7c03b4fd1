"""Store-and-forward TSN switch.

Forwarding behaviour, in order:

1. **gPTP frames** (link-local multicast) are never forwarded. They are
   timestamped on ingress with the switch's own PTP hardware clock and handed
   to the registered gPTP handler — the time-aware bridge logic of
   :mod:`repro.gptp.bridge` — which regenerates per-domain Sync/FollowUp on
   egress ports with updated correction fields, per IEEE 802.1AS.
2. **VLAN multicast** floods to the VLAN's static member ports (minus the
   ingress port) after a sampled residence delay. The experiments configure
   loop-free member sets, mirroring the paper's measurement VLAN; a hop cap
   guards against accidental loops.
3. **Unicast** follows a static forwarding database (no learning — the paper
   uses fully static configuration).

Each switch owns a free-running oscillator + PHC. Per IEEE 802.1AS bridges
do not discipline their clocks; they only timestamp and syntonize via rate
ratios, which is exactly what the bridge logic consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.clocks.hardware_clock import HardwareClock
from repro.clocks.oscillator import Oscillator, OscillatorModel
from repro.network.packet import GPTP_MULTICAST, Packet
from repro.network.port import Port
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog

#: Defensive bound on switch traversals per packet.
MAX_HOPS = 8

GptpHandler = Callable[[Port, Packet, int], None]


@dataclass(frozen=True)
class SwitchModel:
    """Switch timing parameters.

    Attributes
    ----------
    residence_base:
        Minimum store-and-forward latency, ns.
    residence_jitter:
        Upper bound of uniform extra queueing delay, ns.
    timestamp_jitter:
        Std-dev of white noise on hardware timestamps, ns.
    oscillator:
        Oscillator population model for the switch PHC.
    """

    residence_base: int = 1_200
    residence_jitter: int = 600
    timestamp_jitter: float = 8.0
    oscillator: OscillatorModel = OscillatorModel()


class TsnSwitch:
    """A time-aware store-and-forward switch."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rng: random.Random,
        model: Optional[SwitchModel] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        model = model if model is not None else SwitchModel()
        self.sim = sim
        self.name = name
        self.rng = rng
        self.model = model
        #: Per-switch traversal cap; topologies with long switch paths
        #: (line/ring scenarios) raise it above the defensive default.
        self.hop_limit = MAX_HOPS
        self.trace = trace
        self.oscillator = Oscillator(sim, rng, model.oscillator, name=f"{name}.osc")
        self.clock = HardwareClock(self.oscillator, name=f"{name}.phc")
        self.ports: Dict[str, Port] = {}
        self._vlan_members: Dict[int, List[Port]] = {}
        self._fdb: Dict[str, Port] = {}
        self._gptp_handler: Optional[GptpHandler] = None
        self.dropped_hop_limit = 0
        self.forwarded = 0
        # Hot-path bindings: store-and-forward runs per packet; bind the
        # model scalars once.
        self._post = sim.post
        self._residence_base = model.residence_base
        self._residence_jitter = model.residence_jitter
        # Inlined randint(0, residence_jitter) state: same rejection
        # sampling the library performs, minus the per-call checking.
        self._residence_n = model.residence_jitter + 1
        self._residence_bits = self._residence_n.bit_length()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def new_port(self, name: str) -> Port:
        """Create (or fetch) the port called ``name``."""
        port = self.ports.get(name)
        if port is None:
            port = Port(self, name)
            self.ports[name] = port
        return port

    def set_vlan_members(self, vlan: int, ports: List[Port]) -> None:
        """Install the static member set of a VLAN."""
        for port in ports:
            if port.owner is not self:
                raise ValueError(f"{port.full_name} is not a port of {self.name}")
        self._vlan_members[vlan] = list(ports)

    def add_fdb(self, dst: str, port: Port) -> None:
        """Install a static unicast forwarding entry."""
        if port.owner is not self:
            raise ValueError(f"{port.full_name} is not a port of {self.name}")
        self._fdb[dst] = port

    def set_gptp_handler(self, handler: GptpHandler) -> None:
        """Register the time-aware bridge callback for gPTP ingress."""
        self._gptp_handler = handler

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def residence_delay(self) -> int:
        """Sample one store-and-forward residence delay."""
        if self._residence_jitter > 0:
            # Inline of randint(0, jitter): bit-identical rejection sampling
            # on the same RNG stream, minus three pure-Python call layers.
            n = self._residence_n
            getrandbits = self.rng.getrandbits
            r = getrandbits(self._residence_bits)
            while r >= n:
                r = getrandbits(self._residence_bits)
            return self._residence_base + r
        return self._residence_base

    def on_receive(self, port: Port, packet: Packet) -> None:
        """Dispatch an ingress packet per the forwarding rules above."""
        # Inline of packet.is_gptp(): this runs for every ingress frame.
        if packet.dst == GPTP_MULTICAST:
            rx_ts = self.clock.timestamp(self.model.timestamp_jitter)
            if self._gptp_handler is not None:
                self._gptp_handler(port, packet, rx_ts)
            return

        if packet.hops >= self.hop_limit:
            self.dropped_hop_limit += 1
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "switch.drop_hop_limit", self.name,
                    packet_id=packet.packet_id,
                )
            return

        if packet.is_multicast():
            members = self._vlan_members.get(packet.vlan or 0, [])
            for out_port in members:
                if out_port is port:
                    continue
                self._forward(out_port, packet)
            return

        out_port = self._fdb.get(packet.dst)
        if out_port is not None and out_port is not port:
            self._forward(out_port, packet)

    def _forward(self, out_port: Port, packet: Packet) -> None:
        clone = packet.copy_for_forwarding()
        clone.hops += 1
        self.forwarded += 1
        self._post(self.residence_delay(), out_port.transmit, clone)

    def __repr__(self) -> str:
        return f"TsnSwitch({self.name!r}, ports={sorted(self.ports)})"
