"""Unit tests for the fault injection tool and transient calibration."""

import random

import pytest

from repro.core.aggregator import AggregatorConfig
from repro.faults.injector import FaultInjectionConfig, FaultInjector
from repro.faults.transient import calibrate_transients
from repro.gptp.domain import DomainConfig
from repro.hypervisor.clock_sync_vm import ClockSyncVmConfig
from repro.hypervisor.node import EcdNode
from repro.sim.kernel import Simulator
from repro.sim.timebase import HOURS, MILLISECONDS, MINUTES, SECONDS
from repro.sim.trace import TraceLog


def make_testbed(sim, trace, n_nodes=4, boot_delay=60 * SECONDS):
    """Nodes with 2 clock-sync VMs each; VM c{x}_1 is GM of domain x."""
    domains = tuple(DomainConfig(number=d, gm_identity=f"c{d}_1")
                    for d in range(1, n_nodes + 1))
    nodes = []
    for x in range(1, n_nodes + 1):
        node = EcdNode(sim, f"dev{x}", random.Random(100 + x), trace=trace)
        for i in (1, 2):
            node.add_clock_sync_vm(
                f"c{x}_{i}",
                ClockSyncVmConfig(
                    gm_domain=x if i == 1 else None,
                    domains=domains,
                    aggregator=AggregatorConfig(
                        domains=tuple(range(1, n_nodes + 1))
                    ),
                    boot_delay=boot_delay,
                ),
                random.Random(200 + 10 * x + i),
            )
        node.start()
        nodes.append(node)
    return nodes


class TestFaultInjector:
    def run_injector(self, hours=4, seed=5, boot_delay=60 * SECONDS, **cfg_kwargs):
        sim = Simulator()
        trace = TraceLog()
        nodes = make_testbed(sim, trace, boot_delay=boot_delay)
        defaults = dict(
            gm_shutdown_period=30 * MINUTES,
            redundant_rate_per_hour=2.0,
            initial_delay=5 * MINUTES,
            # These nodes have no network: aggregators never leave STARTUP,
            # so the schedule is tested with the sync requirement off (the
            # sibling-running guard stays on).
            require_sibling_synchronized=False,
        )
        defaults.update(cfg_kwargs)
        injector = FaultInjector(
            sim, nodes, FaultInjectionConfig(**defaults),
            random.Random(seed), trace,
        )
        injector.start()
        sim.run_until(hours * HOURS)
        return sim, trace, nodes, injector

    @pytest.mark.slow
    def test_gm_rotation_sequential_across_devices(self):
        sim, trace, nodes, injector = self.run_injector(hours=3)
        gm_records = injector.performed("gm")
        assert len(gm_records) >= 4
        victims = [r.vm for r in gm_records[:4]]
        assert victims == ["c1_1", "c2_1", "c3_1", "c4_1"]

    @pytest.mark.slow
    def test_rates_in_paper_regime(self):
        sim, trace, nodes, injector = self.run_injector(hours=4)
        s = injector.summary()
        # 30-min GM rotation: ~2 GM failures per hour in total.
        assert 5 <= s["gm_failures"] <= 9
        # Redundant: ~2 per hour per node minus rate-limit clamping.
        assert s["redundant_failures"] >= 4
        assert s["fail_silent_total"] == s["gm_failures"] + s["redundant_failures"]

    @pytest.mark.slow
    def test_never_both_vms_of_node_down_at_injection(self):
        """Replay the trace: at each injection, the sibling was running."""
        sim, trace, nodes, injector = self.run_injector(
            hours=4, redundant_rate_per_hour=10.0, boot_delay=10 * MINUTES
        )
        # Reconstruct running intervals per VM from the trace.
        downs = {}
        for record in trace.query(prefix="fault.fail_silent"):
            downs.setdefault(record.source, []).append([record.time, None])
        for record in trace.query(category="vm.rebooted"):
            spans = downs.get(record.source, [])
            for span in spans:
                if span[1] is None and span[0] < record.time:
                    span[1] = record.time
                    break
        def down_at(vm, t):
            for start, end in downs.get(vm, []):
                if start < t and (end is None or t < end):
                    return True
            return False
        for record in trace.query(category="injector.shutdown"):
            vm = record.source
            dev = vm.split("_")[0].replace("c", "dev")
            sibling = f"{vm.split('_')[0]}_{'2' if vm.endswith('1') else '1'}"
            assert not down_at(sibling, record.time), (
                f"{vm} injected at {record.time} while {sibling} down"
            )

    @pytest.mark.slow
    def test_min_gap_between_redundant_failures_per_node(self):
        sim, trace, nodes, injector = self.run_injector(
            hours=3, redundant_rate_per_hour=50.0
        )
        per_node = {}
        for r in injector.performed("redundant"):
            per_node.setdefault(r.vm, []).append(r.time)
        for times in per_node.values():
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert all(g >= 5 * MINUTES for g in gaps)

    @pytest.mark.slow
    def test_excluded_vm_never_injected(self):
        sim, trace, nodes, injector = self.run_injector(
            hours=3, exclude=("c2_2",), redundant_rate_per_hour=10.0
        )
        assert all(r.vm != "c2_2" for r in injector.performed())

    def test_double_start_rejected(self):
        sim = Simulator()
        trace = TraceLog()
        nodes = make_testbed(sim, trace)
        injector = FaultInjector(
            sim, nodes, FaultInjectionConfig(), random.Random(1), trace
        )
        injector.start()
        with pytest.raises(RuntimeError):
            injector.start()

    @pytest.mark.slow
    def test_skips_are_recorded_not_performed(self):
        sim, trace, nodes, injector = self.run_injector(
            hours=4, redundant_rate_per_hour=12.0, boot_delay=45 * MINUTES,
            gm_shutdown_period=10 * MINUTES,
        )
        skipped = [r for r in injector.records if r.skipped]
        # Long boots + aggressive schedule must run into the sibling guard.
        assert skipped, "expected at least one sibling-down skip"
        assert all(r.reason for r in skipped)


class TestInitialDelay:
    """The quiet period delays only a node's first redundant shutdown."""

    def test_later_gaps_are_not_floored_by_the_initial_delay(self):
        sim = Simulator()
        trace = TraceLog()
        nodes = make_testbed(sim, trace, n_nodes=1)
        injector = FaultInjector(
            sim, nodes,
            FaultInjectionConfig(
                gm_shutdown_period=4 * HOURS,
                redundant_rate_per_hour=60.0,
                min_gap=1 * MINUTES,
                initial_delay=10 * MINUTES,
                require_sibling_synchronized=False,
            ),
            random.Random(5), trace,
        )
        injector.start()
        sim.run_until(2 * HOURS)
        times = [r.time for r in injector.records if r.kind == "redundant"]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert times[0] >= 10 * MINUTES
        assert all(g >= 1 * MINUTES for g in gaps)
        # Mean gap ~1.6 min after the 10-min quiet period: far more than
        # the 12 ticks a 10-min floor on every gap would allow.
        assert min(gaps) < 10 * MINUTES
        assert len(times) > 30


class TestExperimentInjectorConfig:
    """The experiment hands its injector config through whole."""

    UNSYNCED = FaultInjectionConfig(require_sibling_synchronized=False)

    def test_scaled_keeps_every_injector_field(self):
        from repro.experiments.fault_injection import (
            FaultInjectionExperimentConfig,
        )

        scaled = FaultInjectionExperimentConfig(
            injector=self.UNSYNCED
        ).scaled(0.5)
        assert scaled.injector.require_sibling_synchronized is False

    def test_run_keeps_every_injector_field(self, monkeypatch):
        from repro.experiments.fault_injection import (
            FaultInjectionExperimentConfig,
            run_fault_injection_experiment,
        )

        started = []
        original = FaultInjector.start

        def start(injector):
            started.append(injector.config)
            original(injector)

        monkeypatch.setattr(FaultInjector, "start", start)
        run_fault_injection_experiment(FaultInjectionExperimentConfig(
            duration=1 * SECONDS, injector=self.UNSYNCED,
        ))
        (config,) = started
        assert config.require_sibling_synchronized is False
        # The measurement VM c2_2 is added to the exclusions.
        assert config.exclude == ("c2_2",)


class TestCompressedSchedule:
    """The §III-C schedule compressed into 12 simulated minutes.

    A 1-minute GM period, 60 redundant shutdowns per hour per node, a
    1-minute ``min_gap`` and 20 s boots: every path of the injector runs
    (rotation, redundant draws, sibling skips, the exclusion list) in
    seconds, on the same no-network nodes as the slow schedule tests. The
    30 s initial delay differs from ``min_gap`` so the gap check sees the
    ``min_gap`` floor and not the initial delay.
    """

    MIN_GAP = 1 * MINUTES
    INITIAL_DELAY = 30 * SECONDS

    @pytest.fixture(scope="class")
    def run(self):
        sim = Simulator()
        trace = TraceLog()
        nodes = make_testbed(sim, trace, boot_delay=20 * SECONDS)
        # At every shutdown, record whether the victim's node still had
        # another VM running (read from the VMs, not the injector).
        sibling_up = []
        for node in nodes:
            for vm in node.clock_sync_vms:
                def checked(reboot=True, reason="injected", vm=vm, node=node,
                            original=vm.fail_silent):
                    sibling_up.append((vm.name, any(
                        other.running for other in node.clock_sync_vms
                        if other is not vm
                    )))
                    original(reboot=reboot, reason=reason)
                vm.fail_silent = checked
        injector = FaultInjector(
            sim, nodes,
            FaultInjectionConfig(
                gm_shutdown_period=1 * MINUTES,
                redundant_rate_per_hour=60.0,
                min_gap=self.MIN_GAP,
                initial_delay=self.INITIAL_DELAY,
                exclude=("c2_2",),
                require_sibling_synchronized=False,
            ),
            random.Random(5), trace,
        )
        injector.start()
        sim.run_until(12 * MINUTES)
        return trace, injector, sibling_up

    def test_gm_rotation_order(self, run):
        trace, injector, sibling_up = run
        gm = [r for r in injector.records if r.kind == "gm"]
        assert len(gm) == 11  # ticks at 1.5, 2.5, ..., 11.5 min
        assert [r.time for r in gm] == [
            self.INITIAL_DELAY + (1 + i) * MINUTES for i in range(len(gm))
        ]
        assert [r.vm for r in gm] == [f"c{1 + i % 4}_1" for i in range(len(gm))]
        assert len(injector.performed("gm")) >= 8

    def test_skips_recorded_with_reason_never_performed(self, run):
        trace, injector, sibling_up = run
        skipped = [r for r in injector.records if r.skipped]
        assert skipped, "the compressed schedule must hit the sibling guard"
        shutdowns = {(r.time, r.source)
                     for r in trace.query(category="fault.fail_silent")}
        for r in skipped:
            assert r.reason in ("sibling not ready", "already down")
            assert (r.time, r.vm) not in shutdowns
        assert injector.summary()["skipped"] == len(skipped)
        assert len(shutdowns) == len(injector.performed())

    def test_never_both_vms_of_node_down_at_injection(self, run):
        trace, injector, sibling_up = run
        assert len(sibling_up) == len(injector.performed()) >= 20
        assert all(up for _, up in sibling_up), sibling_up

    def test_min_gap_between_redundant_ticks_per_node(self, run):
        trace, injector, sibling_up = run
        per_node = {}
        for r in injector.records:
            if r.kind == "redundant":
                per_node.setdefault(r.vm.split("_")[0], []).append(r.time)
        gaps = [b - a for times in per_node.values()
                for a, b in zip(times, times[1:])]
        assert len(gaps) >= 10
        assert min(gaps) == self.MIN_GAP  # clamped draws sit on the floor
        assert all(g >= self.MIN_GAP for g in gaps)

    def test_excluded_vm_never_injected(self, run):
        trace, injector, sibling_up = run
        assert all(r.vm != "c2_2" for r in injector.records)
        # Its node's GM still rotates.
        assert any(r.vm == "c2_1" for r in injector.performed("gm"))


class TestTransientCalibration:
    def test_probabilities_land_on_targets(self):
        plan = calibrate_transients()
        day_syncs = 4 * (24 * 3600 / 0.125)
        day_pdelay = 8 * (24 * 3600) * 2
        expected_timeouts = plan.tx_timestamp_fail_prob * (day_syncs + day_pdelay)
        assert expected_timeouts == pytest.approx(2992, rel=1e-6)
        expected_misses = plan.deadline_miss_prob * day_syncs
        assert expected_misses == pytest.approx(347, rel=1e-6)

    def test_probabilities_are_small(self):
        plan = calibrate_transients()
        assert 0 < plan.tx_timestamp_fail_prob < 0.01
        assert 0 < plan.deadline_miss_prob < 0.01

    def test_scaling_with_targets(self):
        a = calibrate_transients(target_tx_timeouts_24h=1000)
        b = calibrate_transients(target_tx_timeouts_24h=2000)
        assert b.tx_timestamp_fail_prob == pytest.approx(
            2 * a.tx_timestamp_fail_prob
        )

    def test_negative_targets_rejected(self):
        with pytest.raises(ValueError):
            calibrate_transients(target_tx_timeouts_24h=-1)
