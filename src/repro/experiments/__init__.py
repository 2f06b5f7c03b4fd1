"""Experiment harness: the Fig. 2 testbed, the paper's two experiments,
and the baselines.

* :mod:`repro.experiments.testbed` — builds the full virtualized distributed
  real-time system: 4 ECDs × 2 clock synchronization VMs, 4 gPTP domains
  with spatially separated GMs, switch mesh, per-domain external port
  configuration, measurement VLAN, probe service.
* :mod:`repro.experiments.cyber` — the 1 h cyber-resilience experiment
  (§III-B, Fig. 3a/3b): root exploits against two virtual GMs under
  identical vs diversified kernels.
* :mod:`repro.experiments.fault_injection` — the 24 h fault injection
  experiment (§III-C, Fig. 4a/4b, Fig. 5).
* :mod:`repro.experiments.baselines` — single-domain gPTP (no FTA) and the
  Kyriakakis-style client-only aggregation with free-running GMs.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "testbed": ("Testbed", "TestbedConfig"),
    "cyber": ("CyberExperimentConfig", "CyberResult", "run_cyber_experiment"),
    "fault_injection": (
        "FaultInjectionExperimentConfig",
        "FaultInjectionResult",
        "run_fault_injection_experiment",
    ),
    "baselines": (
        "BaselineResult",
        "run_single_domain_baseline",
        "run_client_only_baseline",
        "run_full_architecture",
    ),
    "holdover": ("HoldoverConfig", "HoldoverResult", "run_holdover_experiment"),
    "link_failure": (
        "LinkFailureConfig",
        "LinkFailureResult",
        "run_link_failure_experiment",
    ),
    "montecarlo": ("MonteCarloResult", "SeedOutcome", "run_monte_carlo"),
    "chaos": ("ChaosExperimentConfig", "ChaosResult", "run_chaos_experiment"),
    "sweeps": (
        "SWEEP_AXES",
        "SweepRow",
        "render_rows",
        "sweep",
        "sweep_axis",
    ),
})
