"""Shared fixtures for the figure-reproduction benchmarks.

Each heavyweight experiment runs once per session and is shared by every
bench that reads a different figure off the same run — exactly as the paper
derives Fig. 4a, Fig. 4b and Fig. 5 from one 24 h experiment.

Scale control
-------------
``REPRO_BENCH_SCALE`` (default ``0.12``) compresses the cyber-resilience
timeline; ``REPRO_BENCH_HOURS`` (default ``0.5``) sets the fault-injection
duration: below 24 with a proportionally compressed schedule, from 24 up
with the paper's schedule for that many hours. Full-fidelity paper
settings: ``REPRO_BENCH_SCALE=1.0 REPRO_BENCH_HOURS=24`` (budget roughly a
minute of wall time per simulated hour).
"""

import os

import pytest

from repro.experiments.cyber import CyberExperimentConfig, run_cyber_experiment
from repro.experiments.fault_injection import (
    FaultInjectionExperimentConfig,
    run_fault_injection_experiment,
)

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.12"))
BENCH_HOURS = float(os.environ.get("REPRO_BENCH_HOURS", "0.5"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "11"))


@pytest.fixture(scope="session")
def cyber_identical_result():
    """The Fig. 3a run (identical kernels)."""
    return run_cyber_experiment(
        CyberExperimentConfig(kernel_policy="identical", seed=BENCH_SEED).scaled(
            BENCH_SCALE
        )
    )


@pytest.fixture(scope="session")
def cyber_diverse_result():
    """The Fig. 3b run (diverse kernels)."""
    return run_cyber_experiment(
        CyberExperimentConfig(kernel_policy="diverse", seed=BENCH_SEED).scaled(
            BENCH_SCALE
        )
    )


@pytest.fixture(scope="session")
def fault_injection_result():
    """The §III-C run backing Fig. 4a, Fig. 4b and Fig. 5."""
    return run_fault_injection_experiment(
        FaultInjectionExperimentConfig(seed=BENCH_SEED).for_hours(
            BENCH_HOURS, compress=BENCH_HOURS < 24.0
        )
    )
