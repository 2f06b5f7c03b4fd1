"""Chaos plans, orchestrator, and the chaos experiment."""

import dataclasses
import hashlib
import json

import pytest

from repro.chaos import (
    ChaosOrchestrator,
    ChaosPlan,
    ChaosStage,
    dump_plan,
    load_plan,
    single_loss_plan,
)
from repro.experiments.chaos import ChaosExperimentConfig, run_chaos_experiment
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.hypervisor.vm import VmState
from repro.monitoring import DEGRADED, FAIL, PASS
from repro.network.impairments import ImpairmentSpec
from repro.scenarios import resolve_scenario
from repro.sim.kernel import Simulator
from repro.sim.timebase import MINUTES, SECONDS
from repro.sim.trace import TraceLog


LOSS = ImpairmentSpec(loss=0.5)


class TestPlanValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            ChaosStage(at=0, action="explode", links=("*",))

    def test_link_action_needs_selectors(self):
        with pytest.raises(ValueError):
            ChaosStage(at=0, action="link_down")

    def test_impair_needs_spec(self):
        with pytest.raises(ValueError):
            ChaosStage(at=0, action="impair", links=("*",))

    def test_attack_needs_kind_and_victims(self):
        with pytest.raises(ValueError):
            ChaosStage(at=0, action="attack", attack="nonsense",
                       victims=("c1_1",))
        with pytest.raises(ValueError):
            ChaosStage(at=0, action="attack", attack="ramp")

    def test_plan_needs_name(self):
        with pytest.raises(ValueError):
            ChaosPlan(name="")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ChaosStage(at=-1, action="clear", links=("*",))

    @pytest.mark.parametrize("action", ["exploit", "vm_stop"])
    def test_vm_action_needs_victims(self, action):
        with pytest.raises(ValueError, match="needs victim VM names"):
            ChaosStage(at=0, action=action)

    @pytest.mark.parametrize("action", ["exploit", "vm_stop"])
    @pytest.mark.parametrize("name", ["ghost", "c4", "sw1", "c4_1 "])
    def test_vm_action_rejects_malformed_victim(self, action, name):
        with pytest.raises(ValueError, match="not a clock-sync VM name"):
            ChaosStage(at=0, action=action, victims=("c1_1", name))


class TestPlanSerialization:
    def plan(self):
        return ChaosPlan(name="kitchen-sink", stages=(
            ChaosStage(at=10 * SECONDS, action="impair", links=("*",),
                       impairment=LOSS),
            ChaosStage(at=20 * SECONDS, action="link_down",
                       links=("sw1-sw3",)),
            ChaosStage(at=25 * SECONDS, action="link_up", links=("sw1-sw3",)),
            ChaosStage(at=30 * SECONDS, action="attack", attack="ramp",
                       victims=("c1_1",), step_per_update=-50),
            ChaosStage(at=40 * SECONDS, action="attack_stop"),
            ChaosStage(at=50 * SECONDS, action="clear", links=("*",)),
        ))

    def test_round_trip(self):
        plan = self.plan()
        assert ChaosPlan.from_dict(plan.to_dict()) == plan

    def test_file_round_trip(self, tmp_path):
        plan = self.plan()
        path = tmp_path / "plan.json"
        dump_plan(plan, path)
        assert load_plan(path) == plan

    def test_unsupported_schema_version_rejected(self):
        doc = self.plan().to_dict()
        doc["schema_version"] = 99
        with pytest.raises(ValueError):
            ChaosPlan.from_dict(doc)

    def test_unknown_stage_keys_rejected(self):
        with pytest.raises(ValueError):
            ChaosStage.from_dict({"at": 0, "action": "clear",
                                  "links": ["*"], "frobnicate": 1})

    def test_vm_actions_round_trip(self, tmp_path):
        plan = ChaosPlan(name="exploit-and-stop", stages=(
            ChaosStage(at=65 * SECONDS, action="exploit",
                       victims=("c4_1", "c1_1"), shift=-24_000),
            ChaosStage(at=90 * SECONDS, action="vm_stop", victims=("c2_1",),
                       label="gm-kill"),
        ))
        doc = plan.to_dict()
        assert doc["stages"] == [
            {"at": 65 * SECONDS, "action": "exploit",
             "victims": ["c4_1", "c1_1"], "shift": -24_000},
            {"at": 90 * SECONDS, "action": "vm_stop", "victims": ["c2_1"],
             "label": "gm-kill"},
        ]
        assert ChaosPlan.from_dict(json.loads(json.dumps(doc))) == plan
        path = tmp_path / "plan.json"
        dump_plan(plan, path)
        assert load_plan(path) == plan

    def test_plans_without_vm_actions_serialize_as_before(self):
        # Every action and attack kind that predates the VM actions, with
        # the campaign-era fields set and ``victims`` on a link action
        # (where it is ignored). The hash was taken on the code before
        # ``exploit`` and ``vm_stop`` existed: such plans keep their bytes,
        # and hence their scenario fingerprints and cache keys.
        plan = ChaosPlan(name="every-link-and-attack-action", stages=(
            ChaosStage(at=1 * SECONDS, action="impair", links=("*",),
                       impairment=ImpairmentSpec(loss=0.1, delay_a_to_b=300)),
            ChaosStage(at=2 * SECONDS, action="link_down", links=("sw1-sw3",),
                       victims=("c1_1",)),
            ChaosStage(at=3 * SECONDS, action="link_up", links=("sw1-sw3",)),
            ChaosStage(at=4 * SECONDS, action="attack", attack="ramp",
                       victims=("c1_1",), step_per_update=-50),
            ChaosStage(at=5 * SECONDS, action="attack", attack="oscillate",
                       victims=("c2_1",), amplitude=5_000, period_updates=8),
            ChaosStage(at=6 * SECONDS, action="attack", attack="collude",
                       victims=("c3_1", "c4_1"), shift=-9_000, label="pair"),
            ChaosStage(at=7 * SECONDS, action="attack", attack="adaptive",
                       victims=("c3_1",), observer="c2_2"),
            ChaosStage(at=8 * SECONDS, action="attack", attack="suppress",
                       links=("nic:c2_1",), domains=(1, 2), drop_prob=0.5),
            ChaosStage(at=9 * SECONDS, action="attack", attack="delay",
                       links=("device:3",), extra_delay=2_000),
            ChaosStage(at=10 * SECONDS, action="attack", attack="wormhole",
                       links=("sw1-sw2",), dest="sw3-sw4", tunnel_delay=500),
            ChaosStage(at=11 * SECONDS, action="attack_stop", label="pair"),
            ChaosStage(at=12 * SECONDS, action="clear", links=("*",)),
        ))
        doc = json.dumps(plan.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(doc).hexdigest() == (
            "1fca3e6608408998c701fc51bd6e19ee8ece54e2c082c48e937e99415b4a0a5c"
        )
        assert "victims" not in plan.stages[1].to_dict()

    def test_single_loss_plan_shape(self):
        plan = single_loss_plan(0.25, start=45 * SECONDS, end=90 * SECONDS)
        assert plan.name == "loss-0.25"
        assert [s.action for s in plan.stages] == ["impair", "clear"]
        assert plan.stages[0].impairment.loss == 0.25
        assert plan.stages[1].at == 90 * SECONDS

    def test_scenario_carries_plan_through_serialization(self):
        base = resolve_scenario("paper-mesh4")
        plan = single_loss_plan(0.1)
        spec = dataclasses.replace(base, chaos_plan=plan)
        doc = spec.to_dict()
        assert doc["chaos_plan"]["name"] == "loss-0.1"
        assert type(spec).from_dict(doc).chaos_plan == plan
        # A plan-free spec stays byte-compatible with pre-chaos specs.
        assert "chaos_plan" not in base.to_dict()

    def test_plan_changes_scenario_fingerprint(self):
        base = resolve_scenario("paper-mesh4")
        with_plan = dataclasses.replace(
            base, chaos_plan=single_loss_plan(0.1)
        )
        other_plan = dataclasses.replace(
            base, chaos_plan=single_loss_plan(0.2)
        )
        assert base.fingerprint() != with_plan.fingerprint()
        assert with_plan.fingerprint() != other_plan.fingerprint()


class TestOrchestrator:
    def orchestrator(self, plan=ChaosPlan(name="noop")):
        tb = Testbed(TestbedConfig(seed=5))
        orch = ChaosOrchestrator(
            tb.sim, tb.topology, plan, tb.rng, tb.vms, trace=tb.trace
        )
        return tb, orch

    def test_resolve_star_is_every_trunk(self):
        tb, orch = self.orchestrator()
        links = orch.resolve_links(("*",))
        assert len(links) == len(tb.topology.trunks) == 6

    def test_resolve_trunk_and_nic(self):
        tb, orch = self.orchestrator()
        (trunk,) = orch.resolve_links(("sw1-sw3",))
        assert trunk is tb.topology.trunk("sw1", "sw3")
        (access,) = orch.resolve_links(("nic:c2_1",))
        assert access is tb.topology.access_links["c2_1"]

    def test_resolve_device_takes_all_incident_links(self):
        tb, orch = self.orchestrator()
        links = orch.resolve_links(("device:1",))
        # 3 trunks of sw1 on the mesh, plus the access links of the NICs
        # homed on sw1.
        trunks = [l for l in links if l in tb.topology.trunks.values()]
        assert len(trunks) == 3
        assert len(links) > 3

    def test_resolve_dedups_overlapping_selectors(self):
        tb, orch = self.orchestrator()
        links = orch.resolve_links(("*", "sw1-sw2"))
        assert len(links) == 6

    def test_unknown_selectors_raise(self):
        tb, orch = self.orchestrator()
        with pytest.raises(KeyError):
            orch.resolve_links(("gibberish",))
        with pytest.raises(KeyError):
            orch.resolve_links(("device:9",))

    @pytest.mark.parametrize("stage, selector", [
        (ChaosStage(at=SECONDS, action="link_down", links=("sw1-sw9",)),
         "sw1-sw9"),
        (ChaosStage(at=SECONDS, action="impair", links=("*", "nic:c9_1"),
                    impairment=LOSS), "nic:c9_1"),
        (ChaosStage(at=SECONDS, action="attack", attack="wormhole",
                    links=("sw1-sw2",), dest="sw3-sw9", tunnel_delay=500),
         "sw3-sw9"),
    ])
    def test_unknown_link_rejected_when_testbed_is_built(self, stage,
                                                         selector):
        # Not when the stage fires: a plan naming a missing link fails
        # before anything is simulated, naming the stage, the selector and
        # the trunks it could have meant.
        plan = ChaosPlan(name="typo", stages=(stage,))
        with pytest.raises(ValueError) as info:
            Testbed(TestbedConfig(seed=5, chaos=plan))
        message = str(info.value)
        assert f"chaos plan 'typo', {stage.action} stage at t={SECONDS}" \
            in message
        assert repr(selector) in message
        assert "sw1-sw2, sw1-sw3, sw1-sw4, sw2-sw3, sw2-sw4, sw3-sw4" \
            in message

    def test_stages_execute_and_restore(self):
        plan = ChaosPlan(name="cycle", stages=(
            ChaosStage(at=1 * SECONDS, action="impair", links=("sw1-sw2",),
                       impairment=LOSS),
            ChaosStage(at=2 * SECONDS, action="clear", links=("sw1-sw2",)),
            ChaosStage(at=3 * SECONDS, action="link_down", links=("sw3-sw4",)),
            ChaosStage(at=4 * SECONDS, action="link_up", links=("sw3-sw4",)),
        ))
        tb = Testbed(TestbedConfig(seed=5, chaos=plan))
        tb.run_until(int(1.5 * SECONDS))
        trunk = tb.topology.trunk("sw1", "sw2")
        assert trunk.impairment is not None
        tb.run_until(int(3.5 * SECONDS))
        assert trunk.impairment is None
        assert not tb.topology.trunk("sw3", "sw4").up
        tb.run_until(5 * SECONDS)
        assert tb.topology.trunk("sw3", "sw4").up
        assert tb.chaos.stages_executed == 4
        assert tb.chaos.summary()["plan"] == "cycle"
        assert tb.trace.count("chaos.stage") == 4

    def test_reimpair_same_spec_keeps_rng_stream(self):
        plan = ChaosPlan(name="flap-impair", stages=(
            ChaosStage(at=1 * SECONDS, action="impair", links=("sw1-sw2",),
                       impairment=LOSS),
            ChaosStage(at=2 * SECONDS, action="clear", links=("sw1-sw2",)),
            ChaosStage(at=3 * SECONDS, action="impair", links=("sw1-sw2",),
                       impairment=LOSS),
        ))
        tb = Testbed(TestbedConfig(seed=5, chaos=plan))
        tb.run_until(int(1.5 * SECONDS))
        first = tb.topology.trunk("sw1", "sw2").impairment
        tb.run_until(4 * SECONDS)
        assert tb.topology.trunk("sw1", "sw2").impairment is first

    def test_attack_stage_launches_and_stops(self):
        plan = ChaosPlan(name="attack", stages=(
            ChaosStage(at=1 * SECONDS, action="attack", attack="oscillate",
                       victims=("c1_1",), amplitude=5_000),
            ChaosStage(at=3 * SECONDS, action="attack_stop"),
        ))
        tb = Testbed(TestbedConfig(seed=5, chaos=plan))
        tb.run_until(2 * SECONDS)
        assert len(tb.chaos.attacks) == 1
        attack = tb.chaos.attacks[0]
        assert attack.ticks > 0
        assert tb.vms["c1_1"].compromised
        tb.run_until(4 * SECONDS)
        ticks_after_stop = attack.ticks
        tb.run_until(5 * SECONDS)
        assert attack.ticks == ticks_after_stop
        assert tb.chaos.summary()["attacks_launched"] == 1

    def test_double_start_rejected(self):
        tb, orch = self.orchestrator()
        orch.start()
        with pytest.raises(RuntimeError):
            orch.start()


class FakeVm:
    """Just enough ClockSyncVm surface for the ``exploit`` stage."""

    def __init__(self, name, kernel, running=True):
        self.name = name
        self.running = running
        self.compromised = False
        self.shift = None

        class Cfg:
            kernel_version = kernel

        self.config = Cfg()

    def compromise(self, origin_shift):
        self.compromised = True
        self.shift = origin_shift


class TestExploitStage:
    """The §III-B exploit: root iff the VM runs an affected kernel."""

    def run(self, vms, times):
        sim = Simulator()
        trace = TraceLog()
        plan = ChaosPlan(name="exploits", stages=tuple(
            ChaosStage(at=at, action="exploit", victims=(name,),
                       shift=-24_000)
            for name, at in times
        ))
        orch = ChaosOrchestrator(
            sim, None, plan, None, {vm.name: vm for vm in vms}, trace=trace
        )
        orch.start()
        sim.run()
        return orch, trace

    def test_exploit_succeeds_on_vulnerable_kernel(self):
        vm = FakeVm("c4_1", "linux-4.19.1")
        orch, trace = self.run([vm], [("c4_1", 21 * MINUTES)])
        assert vm.compromised and vm.shift == -24_000
        assert [(a.target, a.succeeded) for a in orch.exploits] == [
            ("c4_1", True)
        ]
        assert trace.count(category="attack.exploit_success") == 1
        assert trace.count(category="attack.exploit_failed") == 0

    def test_exploit_fails_on_patched_kernel(self):
        vm = FakeVm("c1_1", "linux-5.4.0")
        orch, trace = self.run([vm], [("c1_1", 31 * MINUTES)])
        assert not vm.compromised
        assert [(a.target, a.kernel, a.succeeded) for a in orch.exploits] == [
            ("c1_1", "linux-5.4.0", False)
        ]
        assert trace.count(category="attack.exploit_failed") == 1
        assert trace.count(category="attack.exploit_success") == 0

    def test_exploit_fails_on_down_vm(self):
        vm = FakeVm("c4_1", "linux-4.19.1", running=False)
        orch, trace = self.run([vm], [("c4_1", SECONDS)])
        assert not vm.compromised
        assert not orch.exploits[0].succeeded

    def test_two_exploits_run_in_time_order(self):
        a = FakeVm("c4_1", "linux-4.19.1")
        b = FakeVm("c1_1", "linux-4.19.1")
        # Listed out of time order: the stages fire by their times.
        orch, trace = self.run(
            [a, b], [("c1_1", 31 * MINUTES), ("c4_1", 21 * MINUTES)]
        )
        assert [(x.time, x.target) for x in orch.exploits] == [
            (21 * MINUTES, "c4_1"), (31 * MINUTES, "c1_1")
        ]
        assert a.compromised and b.compromised

    @pytest.mark.parametrize("action", ["exploit", "vm_stop"])
    def test_unknown_victim_rejected_when_testbed_is_built(self, action):
        plan = ChaosPlan(name="ghost", stages=(
            ChaosStage(at=SECONDS, action=action, victims=("c1_1", "c9_9")),
        ))
        with pytest.raises(ValueError, match="c9_9 not in this testbed"):
            Testbed(TestbedConfig(seed=5, chaos=plan))


class TestVmStopStage:
    def test_stops_without_reboot_and_ignores_a_stopped_vm(self):
        plan = ChaosPlan(name="stop", stages=(
            ChaosStage(at=1 * SECONDS, action="vm_stop", victims=("c3_1",),
                       label="gm-kill"),
            ChaosStage(at=2 * SECONDS, action="vm_stop",
                       victims=("c3_1", "c4_2")),
        ))
        tb = Testbed(TestbedConfig(seed=5, chaos=plan))
        vm = tb.vms["c3_1"]
        tb.run_until(int(1.5 * SECONDS))
        assert vm.state is VmState.STOPPED and vm.fail_silent_count == 1
        boots = vm.boots
        tb.run_until(60 * SECONDS)
        # No reboot was scheduled, and the second stop left c3_1 alone.
        assert vm.state is VmState.STOPPED and vm.fail_silent_count == 1
        assert vm.boots == boots
        assert tb.vms["c4_2"].state is VmState.STOPPED
        assert [(r.source, r.fields["reason"])
                for r in tb.trace.query("fault.fail_silent")] == [
            ("c3_1", "gm-kill"), ("c4_2", "vm_stop")
        ]
        assert tb.trace.count("chaos.stage") == 2


@pytest.mark.slow
class TestChaosExperimentIntegration:
    def test_five_percent_loss_is_masked_with_zero_violations(self):
        # The architecture is designed for f=1 worth of bad time sources;
        # 5% uniform loss on every trunk must be absorbed with the online
        # monitor never firing and the precision bound holding throughout.
        plan = ChaosPlan(name="loss5", stages=(
            ChaosStage(at=30 * SECONDS, action="impair", links=("*",),
                       impairment=ImpairmentSpec(loss=0.05)),
        ))
        result = run_chaos_experiment(ChaosExperimentConfig(
            duration=4 * MINUTES, seed=3, plan=plan,
        ))
        assert result.verdict.status == PASS
        assert result.violations == []
        assert result.bounded
        cs = result.chaos_summary
        assert cs["dropped"] > 0
        assert cs["dropped"] / cs["seen"] == pytest.approx(0.05, abs=0.02)
        # Every impaired trunk saw real traffic and real loss.
        assert len(result.link_stats) == 6
        assert all(s["dropped"] > 0 for s in result.link_stats.values())

    def test_heavy_loss_on_one_device_degrades_but_does_not_fail(self):
        # 40% loss on every link incident to device 1 knocks that domain's
        # distribution out repeatedly: the monitor must flag consumed
        # resilience margin (DEGRADED) while the synctime bound still holds
        # (not FAIL) — the FTA masks what the network throws away.
        plan = ChaosPlan(name="dom1-heavy-loss", stages=(
            ChaosStage(at=40 * SECONDS, action="impair", links=("device:1",),
                       impairment=ImpairmentSpec(loss=0.4)),
        ))
        result = run_chaos_experiment(ChaosExperimentConfig(
            duration=3 * MINUTES, seed=7, plan=plan,
        ))
        assert result.verdict.status == DEGRADED
        assert result.verdict.status != FAIL
        assert result.bounded  # Π+γ held even while degraded
        first = result.verdict.first_violation
        assert first is not None
        assert first.invariant == "valid_floor"
        assert first.time >= 40 * SECONDS
        assert first.observed < first.bound
        # The violations came from the impaired device's own VMs.
        assert all(v.source.startswith(("c1_", "domain"))
                   for v in result.violations)

    def test_chaos_free_run_passes(self):
        result = run_chaos_experiment(ChaosExperimentConfig(
            duration=2 * MINUTES, seed=11,
        ))
        assert result.verdict.status == PASS
        assert result.chaos_summary == {}
        assert result.link_stats == {}
        assert result.bounded
