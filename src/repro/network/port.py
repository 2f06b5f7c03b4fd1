"""Network ports.

A :class:`Port` is a named attachment point on a device (switch or NIC).
Devices implement ``on_receive(port, packet)``, where the link hands them
inbound packets; the port pushes outbound packets onto its link.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol

if TYPE_CHECKING:
    from repro.network.link import Link
    from repro.network.packet import Packet


class PortOwner(Protocol):
    """Anything that can own ports (switch, NIC)."""

    name: str

    def on_receive(self, port: "Port", packet: "Packet") -> None:
        """Handle a packet arriving on ``port``."""
        ...


class Port:
    """One switch/NIC port."""

    def __init__(self, owner: PortOwner, name: str) -> None:
        self.owner = owner
        self.name = name
        self.link: Optional["Link"] = None
        self.peer: Optional["Port"] = None
        self.rx_packets = 0
        self.tx_packets = 0

    @property
    def full_name(self) -> str:
        """Globally unique ``device.port`` label."""
        return f"{self.owner.name}.{self.name}"

    @property
    def connected(self) -> bool:
        """Whether a link is attached."""
        return self.link is not None

    def _attach(self, link: "Link", peer: "Port") -> None:
        if self.link is not None:
            raise RuntimeError(f"port {self.full_name} already connected")
        self.link = link
        self.peer = peer

    def transmit(self, packet: "Packet") -> None:
        """Send ``packet`` out of this port (no-op if unconnected)."""
        if self.link is None:
            return
        self.tx_packets += 1
        self.link.carry(self, packet)

    def __repr__(self) -> str:
        peer = self.peer.full_name if self.peer else None
        return f"Port({self.full_name!r}, peer={peer!r})"
