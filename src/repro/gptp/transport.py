"""Transport adapters binding gPTP logic to NICs and switch ports.

The protocol modules (pdelay, instances, bridge) are written against the
small :class:`GptpTransport` interface — link-local transmission with a
hardware transmit timestamp delivered by callback — so the same code runs on
an end-station NIC and on each port of a time-aware switch. Receive
timestamps arrive with each frame on the receive path.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol

from repro.network.nic import Nic, TxTimestampCallback
from repro.network.packet import GPTP_MULTICAST, Packet
from repro.network.port import Port
from repro.network.switch import TsnSwitch


class GptpTransport(Protocol):
    """What protocol logic needs from a timestamping interface."""

    name: str

    def send(
        self,
        message: Any,
        launch_time: Optional[int] = None,
        on_tx_timestamp: Optional[TxTimestampCallback] = None,
    ) -> None:
        """Transmit a gPTP message out of this interface."""
        ...


class NicTransport:
    """gPTP transport over an end-station NIC."""

    def __init__(self, nic: Nic) -> None:
        self.nic = nic
        self.name = nic.name

    def send(
        self,
        message: Any,
        launch_time: Optional[int] = None,
        on_tx_timestamp: Optional[TxTimestampCallback] = None,
    ) -> None:
        packet = Packet(GPTP_MULTICAST, self.name, message)
        self.nic.send(packet, launch_time=launch_time, on_tx_timestamp=on_tx_timestamp)


class SwitchPortTransport:
    """gPTP transport over one port of a time-aware switch.

    Launch-time transmission is not used on switch ports (only GMs schedule
    launches); the parameter is accepted and ignored for interface parity.
    tx timestamps are taken at the instant the frame hits the wire and
    surface after the same driver latency an end station sees.
    """

    def __init__(self, switch: TsnSwitch, port: Port, tx_timestamp_latency: int = 50_000) -> None:
        self.switch = switch
        self.port = port
        self.name = port.full_name
        self.tx_timestamp_latency = tx_timestamp_latency

    def send(
        self,
        message: Any,
        launch_time: Optional[int] = None,
        on_tx_timestamp: Optional[TxTimestampCallback] = None,
    ) -> None:
        packet = Packet(GPTP_MULTICAST, self.name, message)
        switch = self.switch
        tx_ts = switch.clock.timestamp(switch.model.timestamp_jitter)
        self.port.transmit(packet)
        if on_tx_timestamp is not None:
            self.switch.sim.schedule(self.tx_timestamp_latency, on_tx_timestamp, tx_ts)
