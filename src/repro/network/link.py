"""Point-to-point full-duplex links.

A link's one-way delay per packet is ``base + U(0, jitter)`` where the
uniform jitter term is drawn independently per packet and per direction.
Base delays differ per link (cable length, PHY latency); the spread of
``base .. base + jitter`` across all links of the testbed is precisely what
the paper's reading error E = d_max − d_min captures.

The link records the delays it actually applied, which the latency survey
(:mod:`repro.measurement.latency`) compares against pdelay estimates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.kernel import Simulator

if TYPE_CHECKING:
    from repro.network.impairments import LinkImpairment
    from repro.network.packet import Packet
    from repro.network.port import Port


@dataclass(frozen=True)
class LinkModel:
    """Delay parameters of one link.

    Attributes
    ----------
    base_delay:
        Deterministic one-way latency, ns (propagation + serialization +
        PHY/MAC processing).
    jitter:
        Upper bound of the uniform per-packet jitter, ns.
    """

    base_delay: int = 2_000
    jitter: int = 400

    @property
    def min_delay(self) -> int:
        """Smallest possible one-way delay."""
        return self.base_delay

    @property
    def max_delay(self) -> int:
        """Largest possible one-way delay."""
        return self.base_delay + self.jitter


class Link:
    """A full-duplex link between two ports.

    Construction wires both endpoints; transmission happens through
    :meth:`carry`, invoked by :class:`~repro.network.port.Port`, and an
    arrival goes straight to the receiving device's ``on_receive``.
    """

    def __init__(
        self,
        sim: Simulator,
        a: "Port",
        b: "Port",
        model: LinkModel,
        rng: random.Random,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.model = model
        self.rng = rng
        self.a = a
        self.b = b
        self.name = name or f"{a.full_name}<->{b.full_name}"
        self.packets_carried = 0
        self.packets_dropped = 0
        self.min_observed: Optional[int] = None
        self.max_observed: Optional[int] = None
        self.up = True
        self.impairment: Optional["LinkImpairment"] = None
        # Deliveries are tagged with the link's flap epoch: taking the
        # link down bumps the epoch, so frames already in flight are
        # discarded on arrival instead of tunnelling through the outage.
        self._epoch = 0
        # Hot-path locals: one delay draw and one kernel post per packet;
        # binding the model scalars once keeps the per-packet cost to the
        # draw itself. The uniform draw is inlined as the same rejection
        # sampling ``randint(0, jitter)`` performs internally (identical
        # getrandbits consumption, identical values), skipping three layers
        # of pure-Python argument checking per packet.
        self._base_delay = model.base_delay
        self._jitter = model.jitter
        self._jitter_n = model.jitter + 1
        self._jitter_bits = self._jitter_n.bit_length()
        self._post = sim.post
        a._attach(self, b)
        b._attach(self, a)

    # ------------------------------------------------------------------
    def carry(self, from_port: "Port", packet: "Packet") -> None:
        """Deliver ``packet`` to the opposite endpoint after a sampled delay."""
        if not self.up:
            return
        if self._jitter == 0:
            delay = self._base_delay
        else:
            # Inline of randint(0, jitter): rejection-sample jitter_bits
            # until the value falls below jitter + 1. Bit-identical to the
            # library call on the same RNG stream.
            n = self._jitter_n
            getrandbits = self.rng.getrandbits
            r = getrandbits(self._jitter_bits)
            while r >= n:
                r = getrandbits(self._jitter_bits)
            delay = self._base_delay + r
        self.packets_carried += 1
        if self.min_observed is None or delay < self.min_observed:
            self.min_observed = delay
        if self.max_observed is None or delay > self.max_observed:
            self.max_observed = delay
        imp = self.impairment
        if imp is not None:
            imp.carry(self, from_port, packet, delay)
            return
        self._post(
            delay,
            self._arrival,
            self.b if from_port is self.a else self.a,
            packet,
            self._epoch,
        )

    def deliver_after(self, delay: int, packet: "Packet", to_b: bool) -> None:
        """Post an epoch-tagged delivery (impairment layer continuation)."""
        self._post(
            delay, self._arrival, self.b if to_b else self.a, packet, self._epoch
        )

    def _arrival(self, port: "Port", packet: "Packet", epoch: int) -> None:
        """Hand ``packet`` to ``port``'s device unless the link flapped since."""
        if epoch != self._epoch:
            self.packets_dropped += 1
            return
        port.rx_packets += 1
        port.owner.on_receive(port, packet)

    def set_up(self, up: bool) -> None:
        """Administratively enable/disable the link.

        Taking the link down invalidates every frame still in flight:
        deliveries carry the epoch current at transmit time, a down
        transition bumps it, and stale arrivals are discarded into
        ``packets_dropped``.
        """
        if self.up and not up:
            self._epoch += 1
        self.up = up

    def attach_impairment(self, impairment: "LinkImpairment") -> None:
        """Route subsequent packets through ``impairment``."""
        self.impairment = impairment

    def detach_impairment(self) -> Optional["LinkImpairment"]:
        """Restore unimpaired delivery; returns the detached impairment."""
        imp = self.impairment
        self.impairment = None
        return imp

    def __repr__(self) -> str:
        return f"Link({self.name!r}, base={self.model.base_delay}, jitter={self.model.jitter})"
