"""Time-aware bridge (802.1AS relay) logic for TSN switches.

Per IEEE 802.1AS, bridges never *forward* Sync/FollowUp — they terminate and
regenerate them per domain. For a domain ``d`` the bridge has one **slave
port** (towards the GM) and a set of **master ports** (away from it); the
paper configures these statically per domain via external port configuration
(Fig. 2: the four per-domain spanning trees over the switch mesh).

On a Sync ingress at the slave port the bridge timestamps it, waits one
residence delay per egress port, retransmits, and timestamps each egress.
When the matching FollowUp arrives the bridge recomputes, per master port::

    rate_ratio'  = rate_ratio_in × neighborRateRatio(slave port)
    correction'  = correction_in
                 + rate_ratio_in × linkDelay(slave port)      # ingress link
                 + rate_ratio'   × (t_tx,port − t_rx)          # residence

with linkDelay and neighborRateRatio coming from the pdelay machinery the
bridge runs on every port.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.gptp.messages import FollowUp, Sync
from repro.gptp.pdelay import PdelayInitiator, PdelayResponder, dispatch_pdelay
from repro.gptp.transport import SwitchPortTransport
from repro.network.packet import GPTP_MULTICAST, Packet
from repro.network.port import Port
from repro.network.switch import TsnSwitch
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from repro._compat import SLOTTED


@dataclass(**SLOTTED)
class _RelayState:
    """Per (domain, sequence) relay bookkeeping."""

    rx_ts: int
    tx_ts: Dict[str, int] = field(default_factory=dict)  # egress port -> t_tx
    follow_up_relayed: bool = False


@dataclass(frozen=True)
class _DomainPorts:
    """Static per-domain role assignment on this bridge.

    ``egress`` caches, per master port, the bindings the per-Sync relay
    path needs — ``(port name, port.transmit, transport name)`` — so the
    transmit hot path does no dict/attribute chasing.
    """

    slave_port: str
    master_ports: Tuple[str, ...]
    egress: Tuple[Tuple[str, object, str], ...] = ()


class TimeAwareBridge:
    """The gPTP relay entity of one switch."""

    #: Relay state for sequences older than this many behind is pruned.
    SEQ_HISTORY = 4

    def __init__(
        self,
        sim: Simulator,
        switch: TsnSwitch,
        rng: random.Random,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.switch = switch
        self.rng = rng
        self.trace = trace
        self.transports: Dict[str, SwitchPortTransport] = {}
        self.responders: Dict[str, PdelayResponder] = {}
        self.initiators: Dict[str, PdelayInitiator] = {}
        self._domains: Dict[int, _DomainPorts] = {}
        self._relay: Dict[int, Dict[int, _RelayState]] = {}
        self.sync_relayed = 0
        self.follow_up_relayed = 0
        self.follow_up_dropped = 0
        # Hot-path bindings: every relayed Sync/FollowUp posts one kernel
        # event per egress port after a sampled residence delay.
        self._post = sim.post
        self._residence = switch.residence_delay
        switch.set_gptp_handler(self._on_gptp)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def enable_port(self, port_name: str) -> None:
        """Run pdelay on a port (idempotent)."""
        if port_name in self.transports:
            return
        port = self.switch.ports[port_name]
        transport = SwitchPortTransport(self.switch, port)
        self.transports[port_name] = transport
        self.responders[port_name] = PdelayResponder(transport)
        initiator = PdelayInitiator(self.sim, transport, self.rng)
        self.initiators[port_name] = initiator

    def configure_domain(
        self, domain: int, slave_port: str, master_ports: List[str]
    ) -> None:
        """Install a domain's static port roles (external port configuration)."""
        for name in [slave_port, *master_ports]:
            if name not in self.switch.ports:
                raise ValueError(f"unknown port {name!r} on {self.switch.name}")
            self.enable_port(name)
        self._domains[domain] = _DomainPorts(
            slave_port=slave_port,
            master_ports=tuple(master_ports),
            egress=tuple(
                (name, self.switch.ports[name].transmit, self.transports[name].name)
                for name in master_ports
            ),
        )
        self._relay.setdefault(domain, {})

    def start(self) -> None:
        """Start pdelay on all enabled ports."""
        for initiator in self.initiators.values():
            initiator.start()

    # ------------------------------------------------------------------
    # Ingress dispatch
    # ------------------------------------------------------------------
    def _on_gptp(self, port: Port, packet: Packet, rx_ts: int) -> None:
        # Sync/FollowUp dominate ingress volume; test for them first. The
        # message classes are disjoint, so the check order is behaviourally
        # irrelevant.
        message = packet.payload
        name = port.name
        if isinstance(message, Sync):
            self._relay_sync(name, message, rx_ts)
        elif isinstance(message, FollowUp):
            self._relay_follow_up(name, message)
        elif name in self.responders:  # pdelay runs on enabled ports only
            dispatch_pdelay(
                message, rx_ts, self.responders[name], self.initiators[name]
            )

    # ------------------------------------------------------------------
    # Sync/FollowUp regeneration
    # ------------------------------------------------------------------
    def _relay_sync(self, ingress: str, message: Sync, rx_ts: int) -> None:
        ports = self._domains.get(message.domain)
        if ports is None or ports.slave_port != ingress:
            return  # not configured, or arrived on a non-slave port: drop
        states = self._relay[message.domain]
        states[message.sequence_id] = _RelayState(rx_ts=rx_ts)
        self._prune(states, message.sequence_id)
        for eg in ports.egress:
            self._post(self._residence(), self._transmit_sync, message, eg)

    def _transmit_sync(self, message: Sync, eg: tuple) -> None:
        states = self._relay[message.domain]
        state = states.get(message.sequence_id)
        if state is None:
            return
        switch = self.switch
        state.tx_ts[eg[0]] = switch.clock.timestamp(switch.model.timestamp_jitter)
        eg[1](Packet(GPTP_MULTICAST, eg[2], message))
        self.sync_relayed += 1

    def _relay_follow_up(self, ingress: str, message: FollowUp) -> None:
        ports = self._domains.get(message.domain)
        if ports is None or ports.slave_port != ingress:
            return
        state = self._relay[message.domain].get(message.sequence_id)
        if state is None or state.follow_up_relayed:
            self.follow_up_dropped += 1
            return
        ingress_pdelay = self.initiators[ingress]
        if ingress_pdelay.link_delay is None:
            self.follow_up_dropped += 1
            return  # cannot build a correct correction field yet
        state.follow_up_relayed = True
        for eg in ports.egress:
            if eg[0] in state.tx_ts:
                self._transmit_follow_up(message, eg, state, ingress_pdelay)
            else:
                # FollowUp overtook the Sync egress (possible under extreme
                # queueing): retry shortly instead of dropping the interval.
                self._post(
                    self._residence(), self._retry_follow_up, message, eg
                )

    def _retry_follow_up(self, message: FollowUp, eg: tuple) -> None:
        ports = self._domains.get(message.domain)
        state = self._relay[message.domain].get(message.sequence_id)
        if ports is None or state is None:
            return
        ingress_pdelay = self.initiators[ports.slave_port]
        if eg[0] not in state.tx_ts or ingress_pdelay.link_delay is None:
            self.follow_up_dropped += 1
            return
        self._transmit_follow_up(message, eg, state, ingress_pdelay)

    def _transmit_follow_up(
        self,
        message: FollowUp,
        eg: tuple,
        state: _RelayState,
        ingress_pdelay: PdelayInitiator,
    ) -> None:
        """Send ``message`` out of one master port, corrected as above.

        The ingress pdelay estimate is read when this runs, so a retried
        FollowUp uses the estimate current at its retry.
        """
        rate_ratio_out = message.rate_ratio * ingress_pdelay.neighbor_rate_ratio
        residence = state.tx_ts[eg[0]] - state.rx_ts
        out_message = FollowUp(
            message.domain,
            message.sequence_id,
            message.gm_identity,
            message.precise_origin_timestamp,
            (message.correction_field
             + message.rate_ratio * ingress_pdelay.link_delay)
            + rate_ratio_out * residence,
            rate_ratio_out,
        )
        self._post(self._residence(), eg[1], Packet(GPTP_MULTICAST, eg[2], out_message))
        self.follow_up_relayed += 1

    def _prune(self, states: Dict[int, _RelayState], newest: int) -> None:
        stale = [seq for seq in states if seq <= newest - self.SEQ_HISTORY]
        for seq in stale:
            del states[seq]

    def __repr__(self) -> str:
        return f"TimeAwareBridge({self.switch.name!r}, domains={sorted(self._domains)})"
