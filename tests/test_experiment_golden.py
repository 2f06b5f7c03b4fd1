"""Golden results of the fixed-schedule experiment runners.

The cyber-resilience experiment, the trunk-failure experiment and the
single-domain baseline each apply interventions at fixed simulated times
(exploits, a trunk flap, a GM kill). This pins what each runner *returns*
for seeds 1, 21 and 42 on short runs, so a change to how those
interventions are scheduled must leave every result byte-identical:

* cyber (``identical`` and ``diverse``, ``.scaled(0.05)``): the precision
  records and buckets, the exploit attempts, the four window figures and
  the bounds;
* link failure (30 s each of settle, outage and recovery, victim trunk
  picked by the default rule): the trunk, the silenced domains, both
  maxima, ``violations``, ``recovered``, the verdict and the bounds;
* single-domain baseline (2 min, once with ``gm_fails_at`` and once with
  ``byzantine_at``): the precision and GM-spread series and the bounds.

The trace and the dispatched-event count are left out on purpose: neither
is part of a runner's result, and a scheduler that runs the interventions
as events of its own (with a trace record each) changes both without
changing any result.

The hashes in ``golden/experiment_golden.json`` were captured on the code
that still scheduled these interventions by hand, before they became
chaos-plan stages. Do not regenerate them from code that changes the
schedule; that would turn the check into a tautology.
"""

import hashlib
import json
import os

import pytest

from repro.experiments.baselines import run_single_domain_baseline
from repro.experiments.cyber import CyberExperimentConfig, run_cyber_experiment
from repro.experiments.link_failure import (
    LinkFailureConfig,
    run_link_failure_experiment,
)
from repro.sim.timebase import MINUTES, SECONDS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "experiment_golden.json")
with open(GOLDEN_PATH, encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def cyber_fingerprint(policy: str, seed: int) -> str:
    result = run_cyber_experiment(
        CyberExperimentConfig(kernel_policy=policy, seed=seed).scaled(0.05)
    )
    return _digest(
        result.records,
        result.buckets,
        [(a.time, a.target, a.kernel, a.succeeded) for a in result.attempts],
        (result.max_before_attacks, result.max_between_attacks,
         result.max_after_second, result.final_precision),
        result.bounds,
    )


def link_failure_fingerprint(seed: int) -> str:
    result = run_link_failure_experiment(LinkFailureConfig(
        seed=seed, trunk=None,
        settle=30 * SECONDS, outage=30 * SECONDS, recovery=30 * SECONDS,
    ))
    return _digest(
        result.config.trunk,
        sorted((vm, sorted(domains)) for vm, domains in result.silenced.items()),
        result.max_precision_during_outage,
        result.max_precision_after_recovery,
        result.violations,
        result.recovered,
        json.dumps(result.verdict.to_dict(), sort_keys=True),
        result.bounds,
    )


def baseline_fingerprint(intervention: str, seed: int) -> str:
    result = run_single_domain_baseline(
        duration=2 * MINUTES, seed=seed, **{intervention: 1 * MINUTES}
    )
    return _digest(result.precisions, result.gm_spread_series, result.bounds)


RUNS = {
    "cyber-identical": lambda seed: cyber_fingerprint("identical", seed),
    "cyber-diverse": lambda seed: cyber_fingerprint("diverse", seed),
    "link-failure": link_failure_fingerprint,
    "baseline-gm-fails": lambda seed: baseline_fingerprint("gm_fails_at", seed),
    "baseline-byzantine": lambda seed: baseline_fingerprint("byzantine_at",
                                                            seed),
}


def _cases():
    for seed in sorted(GOLDEN["fingerprints"], key=int):
        marks = () if seed == "1" else (pytest.mark.slow,)
        for run in sorted(RUNS):
            yield pytest.param(run, seed, id=f"{run}-{seed}", marks=marks)


class TestExperimentGolden:
    @pytest.mark.parametrize("run,seed", list(_cases()))
    def test_runner_result_matches_golden(self, run, seed):
        assert RUNS[run](int(seed)) == GOLDEN["fingerprints"][seed][run]
