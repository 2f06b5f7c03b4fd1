"""Unit tests for the NIC model: timestamping, launch time, fault modes."""

import random

from repro.network.link import Link, LinkModel
from repro.network.nic import Nic, NicModel
from repro.network.packet import Packet
from repro.network.port import Port
from repro.sim.kernel import Simulator
from repro.sim.timebase import MILLISECONDS, SECONDS
from repro.sim.trace import TraceLog


class Sink:
    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.received = []

    def on_receive(self, port, packet):
        self.received.append((self.sim.now, packet))


def make_nic(sim, name="nic1", trace=None, seed=3, **model_kwargs):
    from repro.clocks.oscillator import OscillatorModel

    defaults = dict(
        timestamp_jitter=0.0,
        oscillator=OscillatorModel(base_sigma_ppm=0.0, wander_step_ppm=0.0),
    )
    defaults.update(model_kwargs)
    return Nic(sim, name, random.Random(seed), NicModel(**defaults), trace)


def wire_to_sink(sim, nic, seed=4):
    sink = Sink(sim, "sink")
    sp = Port(sink, "p0")
    Link(sim, nic.port, sp, LinkModel(base_delay=1000, jitter=0), random.Random(seed))
    return sink


class TestReceivePath:
    def test_rx_handler_gets_packet_and_hw_timestamp(self):
        sim = Simulator()
        nic = make_nic(sim)
        sink = Sink(sim, "peer")
        pp = Port(sink, "p0")
        Link(sim, pp, nic.port, LinkModel(base_delay=500, jitter=0), random.Random(5))
        got = []
        nic.attach_rx_handler(lambda pkt, ts: got.append((pkt, ts)))
        pp.transmit(Packet(dst="nic1", src="peer", payload="x"))
        sim.run()
        assert len(got) == 1
        pkt, ts = got[0]
        assert pkt.payload == "x"
        assert abs(ts - 500) <= 2  # ideal oscillator, no jitter

    def test_multiple_handlers_all_invoked_and_detachable(self):
        sim = Simulator()
        nic = make_nic(sim)
        sink = Sink(sim, "peer")
        pp = Port(sink, "p0")
        Link(sim, pp, nic.port, LinkModel(base_delay=10, jitter=0), random.Random(5))
        a, b = [], []
        ha = lambda pkt, ts: a.append(ts)
        hb = lambda pkt, ts: b.append(ts)
        nic.attach_rx_handler(ha)
        nic.attach_rx_handler(hb)
        pp.transmit(Packet(dst="nic1", src="peer", payload=None))
        sim.run()
        assert len(a) == len(b) == 1
        nic.detach_rx_handler(ha)
        pp.transmit(Packet(dst="nic1", src="peer", payload=None))
        sim.run()
        assert len(a) == 1 and len(b) == 2

    def test_disabled_nic_ignores_rx(self):
        sim = Simulator()
        nic = make_nic(sim)
        sink = Sink(sim, "peer")
        pp = Port(sink, "p0")
        Link(sim, pp, nic.port, LinkModel(base_delay=10, jitter=0), random.Random(5))
        got = []
        nic.attach_rx_handler(lambda pkt, ts: got.append(ts))
        nic.set_enabled(False)
        pp.transmit(Packet(dst="nic1", src="peer", payload=None))
        sim.run()
        assert got == []


class TestTransmitPath:
    def test_immediate_send_and_tx_timestamp(self):
        sim = Simulator()
        nic = make_nic(sim)
        sink = wire_to_sink(sim, nic)
        ts_result = []
        nic.send(
            Packet(dst="sink", src="nic1", payload=None),
            on_tx_timestamp=ts_result.append,
        )
        sim.run()
        assert nic.tx_count == 1
        assert len(sink.received) == 1
        assert ts_result and ts_result[0] is not None
        assert abs(ts_result[0] - 0) <= 2  # sent at t=0

    def test_launch_time_delays_transmission(self):
        sim = Simulator()
        nic = make_nic(sim)
        sink = wire_to_sink(sim, nic)
        launch = nic.clock.time() + MILLISECONDS
        nic.send(Packet(dst="sink", src="nic1", payload=None), launch_time=launch)
        sim.run()
        assert len(sink.received) == 1
        arrival = sink.received[0][0]
        # launch (1ms) + link (1us), modulo launch tolerance
        assert abs(arrival - (MILLISECONDS + 1000)) < 200

    def test_launch_time_in_past_is_deadline_miss(self):
        sim = Simulator()
        trace = TraceLog()
        nic = make_nic(sim, trace=trace)
        sink = wire_to_sink(sim, nic)
        cb = []
        nic.send(
            Packet(dst="sink", src="nic1", payload=None),
            launch_time=nic.clock.time() - 1,
            on_tx_timestamp=cb.append,
        )
        sim.run()
        assert nic.tx_count == 0
        assert sink.received == []
        assert nic.deadline_misses == 1
        assert cb == [None]
        assert trace.count(category="ptp4l.deadline_miss") == 1

    def test_random_deadline_miss_fault(self):
        sim = Simulator()
        nic = make_nic(sim, deadline_miss_prob=1.0)
        sink = wire_to_sink(sim, nic)
        nic.send(
            Packet(dst="sink", src="nic1", payload=None),
            launch_time=nic.clock.time() + SECONDS,
        )
        sim.run()
        assert nic.deadline_misses == 1 and nic.tx_count == 0
        assert sink.received == []

    def test_tx_timestamp_timeout_fault(self):
        sim = Simulator()
        trace = TraceLog()
        nic = make_nic(sim, trace=trace, tx_timestamp_fail_prob=1.0)
        sink = wire_to_sink(sim, nic)
        results = []
        nic.send(
            Packet(dst="sink", src="nic1", payload=None),
            on_tx_timestamp=results.append,
        )
        sim.run()
        # The packet itself still left the wire; only the timestamp is lost.
        assert nic.tx_count == 1
        assert len(sink.received) == 1
        assert results == [None]
        assert sim.now >= 5 * MILLISECONDS  # full timeout elapsed
        assert nic.tx_timestamp_timeouts == 1
        assert trace.count(category="ptp4l.tx_timeout") == 1

    def test_disabled_nic_does_not_send(self):
        sim = Simulator()
        nic = make_nic(sim)
        sink = wire_to_sink(sim, nic)
        nic.set_enabled(False)
        nic.send(Packet(dst="sink", src="nic1", payload=None))
        sim.run()
        assert nic.tx_count == 0
        assert sink.received == []

    def test_launch_scheduling_accurate_under_drift(self):
        from repro.clocks.oscillator import OscillatorModel

        sim = Simulator()
        # A fast clock: +5ppm constant.
        nic = Nic(
            sim,
            "drifty",
            random.Random(7),
            NicModel(
                timestamp_jitter=0.0,
                launch_tolerance=5,
                oscillator=OscillatorModel(
                    base_sigma_ppm=100.0, wander_step_ppm=0.0, max_rate_ppm=5.0
                ),
            ),
        )
        sink = wire_to_sink(sim, nic)
        launch = nic.clock.time() + SECONDS
        tx_ts = []
        nic.send(
            Packet(dst="sink", src="nic1", payload=None),
            launch_time=launch,
            on_tx_timestamp=tx_ts.append,
        )
        sim.run()
        assert tx_ts and tx_ts[0] is not None
        # The PHC reading at transmission must be within tolerance of launch.
        assert abs(tx_ts[0] - launch) <= 60
