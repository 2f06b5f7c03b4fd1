"""Adaptive-fidelity engine: kernel fast-forward + full-vs-adaptive parity.

The adaptive tier is allowed to trade bit-exactness for wall time only
inside a documented tolerance. These tests pin that contract:

* ``Simulator.fast_forward`` retimes periodic/jittered work phase-exactly
  and refuses to move backwards;
* ``fidelity="full"`` stays the byte-identical default (no engine, no
  fast-forward spans);
* an adaptive run produces the **same invariant-monitor verdict** as the
  full run, the same probe cadence, and a max measured precision within
  ``TOLERANCE_FRACTION`` of the full run's (plus an absolute floor for
  near-zero baselines) — checked fast on mesh8 and, in the slow tier, on
  paper-mesh4 and torus-64 across seeds 1/21/42.
"""

import pytest

from repro.experiments.chaos import ChaosExperimentConfig, run_chaos_experiment
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.scenarios import get_scenario
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import PeriodicTask
from repro.sim.timebase import SECONDS

#: Documented equivalence tolerance: the adaptive run's max measured
#: precision may differ from the full run's by at most this fraction of
#: the full value plus the absolute floor. The steady-state precision
#: series is stationary; the delta comes from the synthesized records
#: holding the recent mean while the full run keeps sampling the tails.
TOLERANCE_FRACTION = 0.25
TOLERANCE_FLOOR_NS = 500.0


def _run(scenario_name: str, fidelity: str, seed: int, duration_s: int = 120):
    config = ChaosExperimentConfig(
        duration=duration_s * SECONDS,
        seed=seed,
        scenario=get_scenario(scenario_name),
        fidelity=fidelity,
    )
    return run_chaos_experiment(config)


def _assert_equivalent(full, adaptive):
    assert adaptive.fastforward["jumps"] > 0, (
        "adaptive run never jumped - the equivalence check is vacuous"
    )
    assert not full.fastforward
    assert adaptive.verdict.status == full.verdict.status
    assert adaptive.bounds.precision_bound == full.bounds.precision_bound
    assert adaptive.bound_violations == full.bound_violations
    # Same 1 Hz cadence: synthesized records fill the skipped spans.
    assert abs(adaptive.probes - full.probes) <= 2
    tolerance = TOLERANCE_FRACTION * full.max_precision + TOLERANCE_FLOOR_NS
    assert abs(adaptive.max_precision - full.max_precision) <= tolerance, (
        f"max precision drifted: full={full.max_precision:.0f}ns "
        f"adaptive={adaptive.max_precision:.0f}ns tolerance={tolerance:.0f}ns"
    )


# ----------------------------------------------------------------------
# Kernel fast-forward mechanics
# ----------------------------------------------------------------------
class TestKernelFastForward:
    def test_periodic_handle_phase_preserved(self):
        sim = Simulator()
        fires = []
        sim.schedule_periodic(1000, lambda: fires.append(sim.now), start=1000)
        sim.run_until(2500)
        sim.fast_forward(10_000)
        sim.run_until(10_000)
        # Ticks at 1000/2000 ran; the next retimed tick lands exactly on
        # the first nominal multiple at/after the horizon.
        assert fires == [1000, 2000, 10_000]
        assert sim.fastforward_spans == 1
        assert sim.fastforward_ns == 7500  # 2500 -> 10000

    def test_jittered_task_retimed_with_fresh_draw(self):
        import random

        sim = Simulator()
        fires = []
        task = PeriodicTask(
            sim, 1000, lambda: fires.append(sim.now),
            jitter=20, rng=random.Random(7), name="jittered",
        )
        task.start()
        sim.run_until(2500)
        assert len(fires) == 2
        sim.fast_forward(10_000)
        sim.run_until(10_100)
        # The nominal schedule advanced a whole number of periods; the
        # retimed tick fires within one jitter draw of its nominal time.
        assert len(fires) == 3
        assert 10_000 <= fires[-1] <= 10_000 + task.period + task.jitter

    def test_fast_forward_rejects_past(self):
        sim = Simulator()
        sim.schedule_at(100, lambda: None)
        sim.run_until(500)
        with pytest.raises(SimulationError):
            sim.fast_forward(400)

    def test_one_shot_events_keep_their_time(self):
        sim = Simulator()
        fires = []
        sim.schedule_at(7000, lambda: fires.append(sim.now))
        sim.fast_forward(5000)
        sim.run_until(10_000)
        assert fires == [7000]


# ----------------------------------------------------------------------
# Testbed fidelity plumbing
# ----------------------------------------------------------------------
class TestFidelityPlumbing:
    def test_full_is_default_and_engine_free(self):
        tb = Testbed(TestbedConfig(seed=1))
        assert tb.fidelity == "full"
        tb.run_until(2 * SECONDS)
        assert tb.fastforward_summary() == {}
        assert tb.sim.fastforward_spans == 0

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            Testbed(TestbedConfig(seed=1), fidelity="approximate")
        with pytest.raises(ValueError, match="unknown fidelity"):
            run_chaos_experiment(
                ChaosExperimentConfig(duration=SECONDS, fidelity="turbo")
            )

    def test_adaptive_waits_for_lock(self):
        """No jump before measurement starts and every servo locks."""
        tb = Testbed(TestbedConfig(seed=1), fidelity="adaptive")
        tb.run_until(20 * SECONDS)  # inside startup/convergence
        assert tb.fastforward_summary()["jumps"] == 0

    def test_transient_pressure_disables_jumps(self):
        """Per-event fault probabilities force full-fidelity execution."""
        import dataclasses

        from repro.faults.transient import calibrate_transients

        config = dataclasses.replace(
            TestbedConfig(seed=1), transients=calibrate_transients()
        )
        tb = Testbed(config, fidelity="adaptive")
        tb.run_until(100 * SECONDS)
        assert tb.fastforward_summary()["jumps"] == 0


# ----------------------------------------------------------------------
# Full-vs-adaptive equivalence
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_mesh8_smoke(self):
        """Fast-tier CI smoke: one seed, mesh8, both tiers agree."""
        full = _run("mesh8", "full", seed=1)
        adaptive = _run("mesh8", "adaptive", seed=1)
        _assert_equivalent(full, adaptive)

    @pytest.mark.parametrize("seed", [1, 21, 42])
    def test_paper_mesh4_seeds(self, seed):
        full = _run("paper-mesh4", "full", seed=seed)
        adaptive = _run("paper-mesh4", "adaptive", seed=seed)
        _assert_equivalent(full, adaptive)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 21, 42])
    def test_torus_64_seeds(self, seed):
        full = _run("torus-64", "full", seed=seed)
        adaptive = _run("torus-64", "adaptive", seed=seed)
        _assert_equivalent(full, adaptive)


# ----------------------------------------------------------------------
# Sweep duration override (--duration)
# ----------------------------------------------------------------------
class TestSweepSimSeconds:
    def test_parser_accepts_duration(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "attackbudget", "--duration", "60"]
        )
        assert args.duration == 60.0
        assert args.fidelity == "full"

    def test_attackbudget_smoke_at_60s(self, capsys):
        """The 900 s/arm default is overridable for large topologies; a
        60 s attackbudget sweep completes and reports a breaking point."""
        import json

        from repro.cli import main

        rc = main(["sweep", "attackbudget", "--duration", "60",
                   "--no-cache", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["study"] == "attackbudget"
        assert "breaking_point" in payload
        assert len(payload["rows"]) == 4


# ----------------------------------------------------------------------
# Quiescence requires every domain voted valid (domain_health parity)
# ----------------------------------------------------------------------
def _assert_episode_parity(full, adaptive):
    """Impaired-run parity: the counters the validity gate protects.

    ``domain_health`` episodes must match exactly — a fast-forward span
    may never reset or inflate the consecutive-invalid-tick counter. The
    flappy ``valid_floor`` episode *count* gets a ±1 phase tolerance: the
    analytic clock step before the impairment window can shift a marginal
    flap across an episode boundary, which is inside the documented
    adaptive-fidelity tolerance (the verdict itself must still agree).
    """
    assert adaptive.fastforward["jumps"] > 0, (
        "adaptive run never jumped - the parity check is vacuous"
    )
    assert adaptive.verdict.status == full.verdict.status
    fc, ac = full.verdict.counts, adaptive.verdict.counts
    assert ac.get("domain_health", 0) == fc.get("domain_health", 0)
    assert abs(ac.get("valid_floor", 0) - fc.get("valid_floor", 0)) <= 1
    assert set(ac) == set(fc)


class TestValidityGate:
    """The analytic update rewrites validity flags to all-True; a jump is
    therefore only legal when they already are. Regression for the
    domain_health divergence: jumping while a domain was voted invalid
    silently reset the monitor's ``domain_unhealthy_ticks`` counter."""

    def test_invalid_domain_blocks_jump(self):
        tb = Testbed(TestbedConfig(seed=1), fidelity="adaptive")
        tb.run_until(100 * SECONDS)
        engine = tb._engine
        assert engine is not None and engine.jumps > 0
        assert engine._quiescent()
        victim = tb.vms[sorted(tb.vms)[0]]
        flags = dict(victim.aggregator.last_valid_flags)
        assert flags and all(flags.values())
        domain = sorted(flags)[0]
        flags[domain] = False
        victim.aggregator.last_valid_flags = flags
        assert not engine._quiescent()
        flags[domain] = True
        victim.aggregator.last_valid_flags = dict(flags)
        assert engine._quiescent()

    def test_empty_flags_block_jump(self):
        tb = Testbed(TestbedConfig(seed=1), fidelity="adaptive")
        tb.run_until(100 * SECONDS)
        engine = tb._engine
        victim = tb.vms[sorted(tb.vms)[0]]
        saved = victim.aggregator.last_valid_flags
        victim.aggregator.last_valid_flags = {}
        assert not engine._quiescent()
        victim.aggregator.last_valid_flags = saved

    def test_domain_health_counts_match_across_impaired_run(self):
        """Full vs. adaptive on an impaired mesh: the loss window knocks
        domains out, the counters must evolve identically once quiescence
        resumes, and both tiers deliver the same verdict and episodes."""
        from repro.chaos.plan import single_loss_plan
        import dataclasses

        spec = get_scenario("paper-mesh4")
        plan = single_loss_plan(0.9, start=60 * SECONDS, end=90 * SECONDS)

        def run(fidelity):
            config = ChaosExperimentConfig(
                duration=240 * SECONDS,
                seed=3,
                scenario=dataclasses.replace(
                    spec, name="mesh4-lossy", chaos_plan=plan
                ),
                fidelity=fidelity,
            )
            return run_chaos_experiment(config)

        full = run("full")
        adaptive = run("adaptive")
        _assert_episode_parity(full, adaptive)

    @pytest.mark.slow
    def test_domain_health_counts_match_on_impaired_torus(self):
        """The satellite's named case: full-vs-adaptive equivalence on an
        impaired torus-64 — same verdict, same per-invariant episode
        counts, no counter reset across fast-forward spans."""
        from repro.chaos.plan import single_loss_plan
        import dataclasses

        spec = get_scenario("torus-64")
        plan = single_loss_plan(0.7, start=60 * SECONDS, end=80 * SECONDS)

        def run(fidelity):
            config = ChaosExperimentConfig(
                duration=180 * SECONDS,
                seed=3,
                scenario=dataclasses.replace(
                    spec, name="torus-64-lossy", chaos_plan=plan
                ),
                fidelity=fidelity,
            )
            return run_chaos_experiment(config)

        full = run("full")
        adaptive = run("adaptive")
        _assert_episode_parity(full, adaptive)
