"""Unit tests for time-aware bridge edge cases."""

import random

import pytest

from repro.gptp.bridge import TimeAwareBridge
from repro.gptp.messages import FollowUp, Sync
from repro.network.link import Link, LinkModel
from repro.network.packet import GPTP_MULTICAST, Packet
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


def build(seed=61):
    sim = Simulator()
    sw = TsnSwitch(sim, "sw1", random.Random(seed),
                   SwitchModel(residence_base=400, residence_jitter=0,
                               timestamp_jitter=0.0))
    hosts = {}
    for name in ("up", "down1", "down2"):
        host = Host(sim, name)
        hp = Port(host, "p0")
        sp = sw.new_port(f"vm_{name}")
        Link(sim, hp, sp, LinkModel(base_delay=100, jitter=0),
             random.Random(seed + hash(name) % 100))
        hosts[name] = (host, hp)
    bridge = TimeAwareBridge(sim, sw, random.Random(seed + 1))
    bridge.configure_domain(1, slave_port="vm_up",
                            master_ports=["vm_down1", "vm_down2"])
    bridge.start()
    return sim, sw, bridge, hosts


def gptp_packet(src, payload):
    return Packet(dst=GPTP_MULTICAST, src=src, payload=payload)


class TestBridgeRelay:
    def test_sync_relayed_to_all_master_ports(self):
        sim, sw, bridge, hosts = build()
        up_host, up_port = hosts["up"]
        up_port.transmit(gptp_packet("up", Sync(1, 1, "up")))
        sim.run_until(SECONDS)
        d1 = [p for _, p in hosts["down1"][0].received
              if isinstance(p.payload, Sync)]
        d2 = [p for _, p in hosts["down2"][0].received
              if isinstance(p.payload, Sync)]
        assert len(d1) == 1 and len(d2) == 1
        assert bridge.sync_relayed == 2

    def test_sync_on_master_port_not_relayed(self):
        sim, sw, bridge, hosts = build()
        hosts["down1"][1].transmit(gptp_packet("down1", Sync(1, 1, "down1")))
        sim.run_until(SECONDS)
        assert bridge.sync_relayed == 0
        up_syncs = [p for _, p in hosts["up"][0].received
                    if isinstance(p.payload, Sync)]
        assert up_syncs == []

    def test_unconfigured_domain_dropped(self):
        sim, sw, bridge, hosts = build()
        hosts["up"][1].transmit(gptp_packet("up", Sync(99, 1, "up")))
        sim.run_until(SECONDS)
        assert bridge.sync_relayed == 0

    def test_follow_up_without_matching_sync_dropped(self):
        sim, sw, bridge, hosts = build()
        msg = FollowUp(1, 7, "up", 1000, 0.0, 1.0)
        hosts["up"][1].transmit(gptp_packet("up", msg))
        sim.run_until(SECONDS)
        assert bridge.follow_up_relayed == 0
        assert bridge.follow_up_dropped >= 1

    def test_follow_up_without_pdelay_convergence_dropped(self):
        # The hosts here answer no pdelay: the bridge cannot build a correct
        # correction field, so FollowUps must be dropped, not corrupted.
        sim, sw, bridge, hosts = build()
        up = hosts["up"][1]
        up.transmit(gptp_packet("up", Sync(1, 5, "up")))
        sim.run_until(SECONDS)
        up.transmit(gptp_packet("up", FollowUp(1, 5, "up", 1000, 0.0, 1.0)))
        sim.run_until(2 * SECONDS)
        assert bridge.follow_up_relayed == 0
        assert bridge.follow_up_dropped >= 1

    def test_follow_up_correction_accumulates_residence_and_link(self):
        sim, sw, bridge, hosts = build()
        up = hosts["up"][1]
        # Prime the slave-port pdelay state (plain sink hosts answer no
        # pdelay; the integration tests cover the full exchange).
        bridge.initiators["vm_up"].link_delay = 100.0
        sim.run_until(5 * SECONDS)
        up.transmit(gptp_packet("up", Sync(1, 5, "up")))
        sim.run_until(6 * SECONDS)
        origin = 5 * SECONDS
        up.transmit(gptp_packet("up", FollowUp(1, 5, "up", origin, 0.0, 1.0)))
        sim.run_until(7 * SECONDS)
        fus = [p.payload for _, p in hosts["down1"][0].received
               if isinstance(p.payload, FollowUp)]
        assert len(fus) == 1
        fu = fus[0]
        # Correction = ingress link delay (~100) + residence (~400), with
        # timestamp noise disabled.
        assert fu.correction_field == pytest.approx(500, abs=60)
        assert fu.precise_origin_timestamp == origin  # never modified

    def test_follow_up_overtaking_sync_egress_is_retried(self):
        # A FollowUp sent right behind its Sync reaches the bridge inside
        # the Sync's residence delay, before any egress timestamp exists:
        # the bridge retries it one residence later instead of dropping it.
        sim, sw, bridge, hosts = build()
        bridge.initiators["vm_up"].link_delay = 100.0
        up = hosts["up"][1]
        up.transmit(gptp_packet("up", Sync(1, 5, "up")))
        up.transmit(gptp_packet("up", FollowUp(1, 5, "up", 1000, 0.0, 1.0)))
        sim.run_until(SECONDS)
        for name in ("down1", "down2"):
            fus = [p.payload for _, p in hosts[name][0].received
                   if isinstance(p.payload, FollowUp)]
            assert len(fus) == 1
            # The direct path's correction: ingress link delay (~100) +
            # residence (~400), with timestamp noise disabled.
            assert fus[0].correction_field == pytest.approx(500, abs=60)
        assert bridge.follow_up_relayed == 2
        assert bridge.follow_up_dropped == 0

    def test_relay_state_pruned(self):
        sim, sw, bridge, hosts = build()
        up = hosts["up"][1]
        for seq in range(1, 12):
            up.transmit(gptp_packet("up", Sync(1, seq, "up")))
        sim.run_until(SECONDS)
        states = bridge._relay[1]
        assert len(states) <= bridge.SEQ_HISTORY

    def test_configure_unknown_port_rejected(self):
        sim, sw, bridge, hosts = build()
        with pytest.raises(ValueError):
            bridge.configure_domain(2, slave_port="vm_ghost", master_ports=[])

    def test_pdelay_runs_on_all_enabled_ports(self):
        sim, sw, bridge, hosts = build()
        sim.run_until(10 * SECONDS)
        # No responders attached at the hosts (plain sinks), so initiators
        # keep trying; the point is they are armed and sending.
        for name, initiator in bridge.initiators.items():
            assert initiator._task.running or initiator.completed_rounds >= 0
        # Sent PdelayReq frames show up at the hosts.
        from repro.gptp.messages import PdelayReq
        reqs = [p for _, p in hosts["up"][0].received
                if isinstance(p.payload, PdelayReq)]
        assert len(reqs) >= 8
