"""Tests for the sweep framework and the Monte-Carlo study runner."""

import pytest

from repro.experiments.montecarlo import MonteCarloResult, SeedOutcome, run_monte_carlo
from repro.experiments.sweeps import (
    SweepRow,
    render_rows,
    sweep,
    sweep_axis,
)
from repro.experiments.testbed import TestbedConfig
from repro.sim.timebase import MINUTES, SECONDS


class TestSweepFramework:
    def test_generic_sweep_shapes(self):
        rows = sweep(
            "seed", [1, 2],
            lambda s: TestbedConfig(seed=s),
            duration=90 * SECONDS, warmup_records=20,
        )
        assert len(rows) == 2
        assert all(r.parameter == "seed" for r in rows)
        assert all(r.converged for r in rows)
        assert all(r.avg_precision_ns < r.bound_ns for r in rows)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep("x", [], lambda v: TestbedConfig())

    def test_domain_count_sweep_tightens_bound_factor(self):
        rows = sweep_axis("domains", values=(4, 5), duration=90 * SECONDS,
                          warmup_records=20)
        # More domains: more GMs surveyed, but u-factor drops 2.0 -> 1.5;
        # both must converge inside their bounds.
        assert all(r.converged for r in rows)
        assert all(r.max_precision_ns < r.bound_ns for r in rows)

    def test_sync_interval_sweep_scales_gamma(self):
        rows = sweep_axis("interval", values=(62.5, 250.0),
                          duration=90 * SECONDS, warmup_records=20)
        # Γ doubles with S: the 250ms bound exceeds the 62.5ms bound.
        assert rows[1].bound_ns > rows[0].bound_ns

    def test_aggregation_sweep_steady_state_similar(self):
        rows = sweep_axis("aggregation", values=("fta", "median"),
                          duration=90 * SECONDS, warmup_records=20)
        avg = [r.avg_precision_ns for r in rows]
        assert max(avg) < 3 * min(avg)  # fault-free: no dramatic difference

    def test_render_rows(self):
        rows = [SweepRow("p", 4, 10000.0, 500.0, 900.0, True)]
        text = render_rows(rows)
        assert "converged" in text and "10000" in text
        assert render_rows([]) == "(empty sweep)"

    def test_as_dict(self):
        row = SweepRow("p", 4, 1.0, 2.0, 3.0, True)
        d = row.as_dict()
        assert d["parameter"] == "p" and d["max_precision_ns"] == 3.0


@pytest.mark.slow
class TestMonteCarlo:
    @pytest.fixture(scope="class")
    def study(self):
        return run_monte_carlo(seeds=[101, 102, 103], hours=0.05)

    def test_one_outcome_per_seed(self, study):
        assert study.n == 3
        assert [o.seed for o in study.outcomes] == [101, 102, 103]

    def test_all_runs_bounded(self, study):
        assert study.bounded_rate == 1.0
        assert all(o.violations == 0 for o in study.outcomes)

    def test_aggregates(self, study):
        assert study.mean_of_means() < 3_000
        assert study.worst_max() >= study.max_percentile(50)
        assert study.total_masked_faults >= 0

    def test_text_rendering(self, study):
        text = study.to_text()
        assert "monte-carlo study over 3 seeds" in text
        assert "100%" in text

    def test_seeds_produce_different_outcomes(self, study):
        maxima = {round(o.max_ns) for o in study.outcomes}
        assert len(maxima) > 1

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_monte_carlo(seeds=[])
