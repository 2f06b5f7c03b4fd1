"""Golden byte-parity: refactored entry points vs. pre-pipeline results.

The fingerprints in ``tests/golden/studies_golden.json`` were captured by
running every entry point *before* the study-pipeline refactor (PR 9) and
hashing ``repr`` of the returned result objects (canonical-JSON for the
chaos document). The refactored compilers must reproduce them exactly —
any drift means the pipeline changed observable results, not just
plumbing. Do not regenerate this file from post-refactor code; that would
turn the parity check into a tautology.
"""

import hashlib
import json
import os

import pytest

from repro.experiments.chaos import (
    ChaosExperimentConfig,
    compile_chaos_study,
    result_digest,
    run_chaos_experiment,
)
from repro.experiments.montecarlo import run_monte_carlo
from repro.experiments.sweeps import sweep, sweep_axis, sweep_envelope
from repro.experiments.testbed import TestbedConfig
from repro.chaos.plan import single_loss_plan
from repro.sim.timebase import SECONDS
from repro.studies import run_study

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "studies_golden.json")
with open(GOLDEN_PATH, encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


def repr_hash(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


class TestGoldenParity:
    def test_monte_carlo(self):
        study = run_monte_carlo(seeds=[1, 21, 42], hours=0.02)
        assert (repr_hash(study.outcomes)
                == GOLDEN["montecarlo_seeds_1_21_42_hours_0.02"])

    def test_generic_sweep(self):
        rows = sweep("seed", [1, 2], lambda s: TestbedConfig(seed=s),
                     duration=60 * SECONDS, warmup_records=10)
        assert repr_hash(rows) == GOLDEN["sweep_generic_seed_1_2_60s"]

    @pytest.mark.slow
    def test_domain_count_sweep(self):
        rows = sweep_axis("domains", values=(4, 5), duration=60 * SECONDS,
                          warmup_records=10)
        assert repr_hash(rows) == GOLDEN["sweep_domains_4_5_60s"]

    @pytest.mark.slow
    def test_loss_rate_sweep(self):
        rows = sweep_axis("lossrate", values=(0.0, 0.2),
                          duration=90 * SECONDS, warmup_records=10)
        assert repr_hash(rows) == GOLDEN["sweep_lossrate_0_0.2_90s"]

    @pytest.mark.slow
    def test_attack_budget_sweep(self):
        rows = sweep_axis("attackbudget", values=(0, 1),
                          duration=120 * SECONDS, warmup_records=10)
        assert repr_hash(rows) == GOLDEN["sweep_attackbudget_0_1_120s"]

    def test_envelope_sweep(self):
        rows = sweep_envelope(scenarios=("paper-mesh4",), attack_check=False,
                              duration=60 * SECONDS)
        assert repr_hash(rows) == GOLDEN["sweep_envelope_mesh4_60s"]

    def test_chaos_experiment(self):
        result = run_chaos_experiment(ChaosExperimentConfig(
            duration=90 * SECONDS, seed=1,
            plan=single_loss_plan(0.1, start=30 * SECONDS),
        ))
        assert result_digest(result) == GOLDEN["chaos_loss_0.1_90s_seed_1"]

    def test_chaos_study_row_carries_same_digest(self):
        """The study row's provenance digest equals the direct-run hash."""
        plan = compile_chaos_study([ChaosExperimentConfig(
            duration=90 * SECONDS, seed=1,
            plan=single_loss_plan(0.1, start=30 * SECONDS),
        )])
        (row,) = plan.collect(run_study(plan.study))
        assert row.digest == GOLDEN["chaos_loss_0.1_90s_seed_1"]
