"""A deep copy of a frame-path component draws from its own RNG stream.

``copy.deepcopy`` treats builtin methods as atomic, so a component that
bound ``rng.random`` or ``rng.getrandbits`` once would hand its copy the
original's bound method, and the copy would keep advancing the
original's stream. Each component here draws through ``self.rng`` at
the call, so drawing on a copy leaves the original's state alone.
"""

import copy
import random

from repro.network.impairments import ImpairmentSpec, LinkImpairment
from repro.network.link import Link, LinkModel
from repro.network.nic import Nic, NicModel
from repro.network.packet import Packet
from repro.network.port import Port
from repro.network.switch import TsnSwitch
from repro.sim.kernel import Simulator
from repro.sim.timebase import SECONDS


class Sink:
    name = "sink"

    def on_receive(self, port, packet):
        pass


def packet():
    return Packet(dst="sink", src="x", payload=None)


def draws_only_on_copy(component, draw):
    """Draw on a deep copy; the original's stream must not move."""
    before = component.rng.getstate()
    clone = copy.deepcopy(component)
    draw(clone)
    assert component.rng.getstate() == before
    assert clone.rng.getstate() != before  # the copy did draw


def test_link_copy_draws_its_delay_from_its_own_stream():
    sim = Simulator()
    link = Link(sim, Port(Sink(), "a"), Port(Sink(), "b"),
                LinkModel(base_delay=100, jitter=400), random.Random(1))
    draws_only_on_copy(link, lambda c: c.carry(c.a, packet()))


def test_switch_copy_draws_its_residence_from_its_own_stream():
    switch = TsnSwitch(Simulator(), "sw", random.Random(2))
    draws_only_on_copy(switch, lambda c: c.residence_delay())


def test_nic_copy_draws_its_deadline_miss_from_its_own_stream():
    nic = Nic(Simulator(), "nic", random.Random(3),
              NicModel(timestamp_jitter=0.0, deadline_miss_prob=0.5))
    draws_only_on_copy(
        nic, lambda c: c.send(packet(), launch_time=c.clock.time() + SECONDS)
    )


def test_impairment_copy_draws_its_loss_from_its_own_stream():
    sim = Simulator()
    link = Link(sim, Port(Sink(), "a"), Port(Sink(), "b"),
                LinkModel(base_delay=100, jitter=0), random.Random(4))
    impairment = LinkImpairment(ImpairmentSpec(loss=0.5), random.Random(5))
    draws_only_on_copy(
        impairment, lambda c: c.carry(link, link.a, packet(), 100)
    )
