"""Tests for the switch-port gPTP transport adapter."""

import random

import pytest

from repro.gptp.transport import SwitchPortTransport
from repro.network.link import Link, LinkModel
from repro.network.packet import GPTP_MULTICAST
from repro.network.port import Port
from repro.network.switch import SwitchModel, TsnSwitch
from repro.sim.kernel import Simulator
from repro.sim.timebase import SECONDS


class Host:
    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.received = []

    def on_receive(self, port, packet):
        self.received.append((self.sim.now, packet))


def build(seed=91):
    sim = Simulator()
    sw = TsnSwitch(sim, "sw1", random.Random(seed),
                   SwitchModel(residence_base=500, residence_jitter=0,
                               timestamp_jitter=0.0))
    host = Host(sim, "h1")
    hp = Port(host, "p0")
    sp = sw.new_port("vm_h1")
    Link(sim, hp, sp, LinkModel(base_delay=200, jitter=0), random.Random(seed + 1))
    transport = SwitchPortTransport(sw, sp)
    return sim, sw, host, transport


class TestSwitchPortTransport:
    def test_name_is_port_qualified(self):
        sim, sw, host, transport = build()
        assert transport.name == "sw1.vm_h1"

    def test_send_delivers_gptp_frame(self):
        sim, sw, host, transport = build()
        transport.send("payload")
        sim.run()
        assert len(host.received) == 1
        t, packet = host.received[0]
        assert packet.dst == GPTP_MULTICAST
        assert packet.src == "sw1.vm_h1"
        assert t == 200

    def test_tx_timestamp_surfaces_after_latency(self):
        sim, sw, host, transport = build()
        stamps = []
        transport.send("payload", on_tx_timestamp=stamps.append)
        sim.run()
        assert len(stamps) == 1
        # Taken at transmission (t=0 on the switch clock, ~±drift).
        assert abs(stamps[0]) < 10
        # Callback arrived only after the driver latency.
        assert sim.now >= transport.tx_timestamp_latency

    def test_timestamp_reads_switch_clock(self):
        sim, sw, host, transport = build()
        stamps = []
        sim.schedule(SECONDS, transport.send, "payload", None, stamps.append)
        sim.run()
        # Free-running switch clock: within the 5 ppm envelope after 1 s.
        assert stamps == [pytest.approx(SECONDS, abs=6_000)]

    def test_launch_time_parameter_ignored_gracefully(self):
        sim, sw, host, transport = build()
        transport.send("payload", launch_time=123456789)
        sim.run()
        assert len(host.received) == 1  # sent immediately, no crash
