"""The closed-form bound predictor: shape, monotonicity, domination.

Three layers of evidence that :mod:`repro.analysis.bounds_theory` earns
its role as a grading threshold:

* the dataclass computes exactly the documented closed form (and its
  serialization round-trips, schema-versioned);
* the envelope is monotone in everything that should widen it — hop
  count, drift, fault hypothesis, delay-type adversarial budget — and
  indifferent to pure loss;
* on every clean registry scenario the prediction *dominates* the built
  system: predicted [d_min, d_max] brackets the surveyed latencies,
  the envelope exceeds the measured Π + γ, and the measured worst-case
  precision stays inside it, seed after seed.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.bounds_theory import (
    BOUNDS_THEORY_SCHEMA_VERSION,
    TheoreticalBounds,
    attack_allowance,
    predict_bounds,
    predict_testbed_bounds,
    switch_graph,
)
from repro.core.convergence import drift_offset, precision_bound, u_factor
from repro.experiments.testbed import Testbed
from repro.scenarios import get_scenario
from repro.sim.timebase import MILLISECONDS, MINUTES, SECONDS


def _bounds(**overrides) -> TheoreticalBounds:
    base = dict(
        topology="mesh",
        n_devices=4,
        n_domains=4,
        f=1,
        min_hops=2,
        max_hops=3,
        d_min=3_300,
        d_max=8_400,
        drift_offset=drift_offset(5.0, 125 * MILLISECONDS),
        gamma=2_800.0,
        attack_allowance=0.0,
    )
    base.update(overrides)
    return TheoreticalBounds(**base)


# ----------------------------------------------------------------------
# Closed form and serialization
# ----------------------------------------------------------------------
class TestClosedForm:
    def test_matches_convergence_module(self):
        tb = _bounds()
        assert tb.reading_error == 8_400 - 3_300
        assert tb.u == u_factor(4, 1)
        assert tb.precision_bound == precision_bound(
            4, 1, tb.reading_error, tb.drift_offset
        )

    def test_envelope_is_widened_bound_plus_gamma(self):
        tb = _bounds(attack_allowance=1_000.0)
        expected = (
            u_factor(4, 1) * (tb.reading_error + 1_000.0 + tb.drift_offset)
            + tb.gamma
        )
        assert tb.envelope == pytest.approx(expected)

    def test_envelope_without_attack_exceeds_precision_bound_by_gamma(self):
        tb = _bounds()
        assert tb.envelope == pytest.approx(tb.precision_bound + tb.gamma)

    def test_round_trip(self):
        tb = _bounds(attack_allowance=500.0)
        again = TheoreticalBounds.from_dict(tb.to_dict())
        assert again == tb

    def test_from_dict_rejects_unknown_schema(self):
        doc = _bounds().to_dict()
        doc["schema_version"] = BOUNDS_THEORY_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            TheoreticalBounds.from_dict(doc)

    def test_describe_mentions_envelope(self):
        assert "envelope=" in _bounds().describe()


# ----------------------------------------------------------------------
# Monotonicity: everything that should widen the envelope does
# ----------------------------------------------------------------------
class TestMonotonicity:
    @given(extra=st.integers(1, 50_000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_path_spread(self, extra):
        """More hop spread (larger d_max) → strictly larger envelope."""
        near = _bounds()
        far = dataclasses.replace(near, d_max=near.d_max + extra)
        assert far.envelope > near.envelope

    @given(
        ppm_lo=st.floats(0.1, 50.0),
        ppm_delta=st.floats(0.1, 50.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_drift(self, ppm_lo, ppm_delta):
        interval = 125 * MILLISECONDS
        slow = _bounds(
            drift_offset=drift_offset(ppm_lo, interval), max_drift_ppm=ppm_lo
        )
        fast = _bounds(
            drift_offset=drift_offset(ppm_lo + ppm_delta, interval),
            max_drift_ppm=ppm_lo + ppm_delta,
        )
        assert fast.envelope > slow.envelope

    @given(m=st.integers(7, 40), f=st.integers(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_fault_hypothesis(self, m, f):
        """Budgeting for more Byzantine domains loosens the bound (u grows
        toward the M = 3f + 1 floor); both arms stay inside M >= 3f + 1."""
        assert m >= 3 * (f + 1) + 1
        lo = _bounds(n_domains=m, f=f)
        hi = _bounds(n_domains=m, f=f + 1)
        assert hi.envelope > lo.envelope

    @given(allowance=st.floats(1.0, 1e6))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_attack_allowance(self, allowance):
        clean = _bounds()
        attacked = dataclasses.replace(clean, attack_allowance=allowance)
        assert attacked.envelope > clean.envelope

    def test_hop_count_widens_predicted_envelope_on_daisy_chains(self):
        """Registry-independent: longer line topologies predict strictly
        wider envelopes (each device adds one trunk + one residence to the
        worst path)."""
        line = get_scenario("line")
        envelopes = []
        for n in (4, 5, 6, 7):
            spec = dataclasses.replace(
                line, name=f"line-{n}", n_devices=n, n_domains=None
            )
            envelopes.append(predict_bounds(spec).envelope)
        assert envelopes == sorted(envelopes)
        assert len(set(envelopes)) == len(envelopes)


# ----------------------------------------------------------------------
# Adversarial widening: delay moves the envelope, loss does not
# ----------------------------------------------------------------------
def _delay_attack_plan(extra_delay: int):
    """A one-stage delay attack on every link."""
    from repro.chaos.plan import ChaosPlan, ChaosStage

    return ChaosPlan(
        name="delay",
        stages=(
            ChaosStage(
                at=SECONDS,
                action="attack",
                attack="delay",
                links=("*",),
                extra_delay=extra_delay,
            ),
        ),
    )


class TestAttackAllowance:
    def test_no_plan_no_allowance(self):
        assert attack_allowance(None, 3) == 0.0

    def test_pure_loss_contributes_nothing(self):
        from repro.chaos.plan import single_loss_plan

        plan = single_loss_plan(0.3, start=10 * SECONDS)
        assert attack_allowance(plan, 5) == 0.0

    def test_delay_asymmetry_scales_with_path_length(self):
        from repro.chaos.plan import ChaosPlan, ChaosStage
        from repro.network.impairments import ImpairmentSpec

        plan = ChaosPlan(
            name="asym",
            stages=(
                ChaosStage(
                    at=SECONDS,
                    action="impair",
                    links=("*",),
                    impairment=ImpairmentSpec(delay_a_to_b=2_000),
                ),
            ),
        )
        assert attack_allowance(plan, 3) == 6_000.0
        assert attack_allowance(plan, 5) == 10_000.0

    def test_delay_attack_adds_extra_delay(self):
        assert attack_allowance(_delay_attack_plan(7_500), 3) == 7_500.0

    def test_loss_plus_delay_counts_only_the_delay(self):
        from repro.chaos.plan import merge_plans, single_loss_plan

        merged = merge_plans(
            single_loss_plan(0.2, start=SECONDS), _delay_attack_plan(4_000)
        )
        assert attack_allowance(merged, 4) == 4_000.0

    def test_exploits_and_vm_stops_contribute_nothing(self):
        from repro.chaos.plan import ChaosPlan, ChaosStage

        plan = ChaosPlan(name="vm-actions", stages=(
            ChaosStage(at=SECONDS, action="exploit", victims=("c4_1",),
                       shift=-24_000),
            ChaosStage(at=2 * SECONDS, action="vm_stop", victims=("c1_1",)),
        ))
        assert attack_allowance(plan, 4) == 0.0


# ----------------------------------------------------------------------
# Domination: prediction >= measurement on clean registry scenarios
# ----------------------------------------------------------------------
def _assert_prediction_dominates(scenario_name, seed, duration=2 * MINUTES,
                                 fidelity="full"):
    spec = get_scenario(scenario_name)
    tb = Testbed(spec.testbed_config(seed=seed), fidelity=fidelity)
    predicted_cold = predict_bounds(spec, seed=seed)
    tb.run_until(duration)
    bounds = tb.derive_bounds()
    predicted = bounds.predicted
    assert predicted is not None
    # Spec-level and testbed-level prediction agree: the closed form only
    # needs the scenario, not a built system.
    assert predicted_cold.to_dict() == predicted.to_dict()
    # The predicted latency window brackets the surveyed one ...
    assert predicted.d_min <= bounds.d_min
    assert predicted.d_max >= bounds.d_max
    assert predicted.gamma >= bounds.measurement_error
    # ... so the envelope dominates the measured threshold ...
    assert predicted.envelope >= bounds.bound_with_error
    # ... and the system actually performs inside it.
    records = tb.series.records[30:]
    assert records, "no steady-state records"
    assert max(r.precision for r in records) <= predicted.envelope


class TestPredictionDominatesMeasurement:
    @pytest.mark.parametrize("seed", [1, 21, 42])
    def test_paper_mesh4(self, seed):
        _assert_prediction_dominates("paper-mesh4", seed)

    @pytest.mark.parametrize("scenario", ["ring", "line", "star", "mesh8"])
    def test_small_registry_shapes(self, scenario):
        _assert_prediction_dominates(scenario, seed=1)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [21, 42])
    @pytest.mark.parametrize("scenario", ["ring", "line", "star", "mesh8"])
    def test_small_registry_shapes_more_seeds(self, scenario, seed):
        _assert_prediction_dominates(scenario, seed=seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 21, 42])
    def test_torus_64(self, seed):
        _assert_prediction_dominates("torus-64", seed, fidelity="adaptive")


# ----------------------------------------------------------------------
# Acceptance: the envelope catches the PR-6 breaking-point adversary
# ----------------------------------------------------------------------
class TestEnvelopeCatchesCollusion:
    @pytest.mark.slow
    def test_k2_colluders_flagged_without_retuning(self):
        """k=2 > f=1 colluding GMs must cross the *predicted* envelope —
        the committed results/envelope_sweep.json acceptance arm at its
        own 900 s. On paper-mesh4 seed 9 the k=2 bias breaks the bound
        near t ≈ 800 s, so a shorter arm would still sit inside it."""
        from repro.experiments.sweeps import envelope_verdict, sweep_envelope
        from repro.monitoring.invariants import FAIL, PASS

        rows = sweep_envelope(
            scenarios=(),
            seed=9,
            attack_check=True,
            attack_colluders=2,
        )
        (row,) = rows
        assert row.attack == "collude-k2"
        assert row.within is False
        assert row.verdict == FAIL
        assert row.max_precision_ns > row.envelope_ns
        assert envelope_verdict(rows) == PASS


# ----------------------------------------------------------------------
# Testbed plumbing
# ----------------------------------------------------------------------
class TestSwitchGraph:
    # A testbed-free graph must pick the same trunks in the same order as
    # a built testbed: the link-failure experiment's default victim (the
    # first trunk clear of the measurement switch) is read from it.
    @pytest.mark.parametrize("name,seed", [
        (name, 3) for name in (
            "paper-mesh4", "mesh8", "ring", "line", "star", "torus-64",
            "torus-256", "fat-tree-64", "fat-tree-256", "geo-64",
        )
    ] + [("geo-64", 11)])
    def test_trunks_match_the_built_testbed(self, name, seed):
        cfg = get_scenario(name).testbed_config(seed=seed)
        assert list(switch_graph(cfg).trunks) == \
            list(Testbed(cfg).topology.trunks)

    def test_geometric_edges_depend_on_the_seed(self):
        spec = get_scenario("geo-64")
        graphs = [set(switch_graph(spec.testbed_config(seed=seed)).trunks)
                  for seed in (3, 11)]
        assert graphs[0] != graphs[1]


class TestTestbedThreading:
    def test_derive_bounds_attaches_prediction(self):
        spec = get_scenario("paper-mesh4")
        tb = Testbed(spec.testbed_config(seed=1))
        tb.run_until(30 * SECONDS)
        bounds = tb.derive_bounds()
        assert bounds.predicted is not None
        assert bounds.predicted.to_dict() == predict_testbed_bounds(tb).to_dict()
        assert "envelope*" in bounds.describe()
        doc = bounds.to_dict()
        assert doc["predicted"]["envelope_ns"] == bounds.predicted.envelope

    def test_attack_plan_widens_testbed_prediction(self):
        spec = get_scenario("paper-mesh4")
        clean_cfg = spec.testbed_config(seed=1)
        attacked_cfg = dataclasses.replace(
            clean_cfg, chaos=_delay_attack_plan(12_000)
        )
        clean = predict_testbed_bounds(Testbed(clean_cfg))
        attacked = predict_testbed_bounds(Testbed(attacked_cfg))
        assert attacked.attack_allowance == 12_000.0
        assert attacked.envelope > clean.envelope
