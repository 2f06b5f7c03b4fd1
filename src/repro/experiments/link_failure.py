"""Trunk-link failure experiment.

Fig. 2's mesh "ensur[es] redundant data paths" — but gPTP's per-domain
spanning trees are static under external port configuration, so a trunk
failure does not reroute: it silences the domains whose trees cross the
dead trunk for the nodes behind it. The architecture's answer is not
rerouting but *redundancy in time sources*: the affected VMs lose one of M
domains, staleness excludes it, and the FTA carries on with the rest.

This experiment kills one trunk (not incident to the measurement device, so
the probe paths stay alive), verifies which VMs lose which domain, checks
the measured precision stays within Π + γ throughout, and confirms full
recovery after the link comes back.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.bounds_theory import switch_graph
from repro.chaos.plan import ChaosPlan, ChaosStage
from repro.measurement.bounds import ExperimentBounds
from repro.monitoring.invariants import Verdict
from repro.sim.timebase import MINUTES
from repro.experiments.monitored import run_monitored
from repro.experiments.testbed import (
    Testbed,
    TestbedConfig,
    resolve_testbed_config,
)


@dataclass(frozen=True)
class LinkFailureConfig:
    """Experiment parameters.

    ``trunk=None`` picks the first trunk (in topology construction order)
    not incident to the measurement switch — on the paper's mesh that is
    sw1–sw3, and the same rule finds a legal victim on every shape.
    """

    seed: int = 1
    trunk: Optional[Tuple[str, str]] = ("sw1", "sw3")
    settle: int = 2 * MINUTES
    outage: int = 3 * MINUTES
    recovery: int = 3 * MINUTES


@dataclass
class LinkFailureResult:
    """Outcome of the scenario."""

    config: LinkFailureConfig
    bounds: ExperimentBounds
    silenced: Dict[str, Set[int]]  # VM -> domains that went stale
    max_precision_during_outage: float
    max_precision_after_recovery: float
    violations: int
    recovered: bool
    verdict: Verdict = field(default_factory=Verdict)

    def to_text(self) -> str:
        """Summary block."""
        silenced = {
            vm: sorted(domains) for vm, domains in sorted(self.silenced.items())
            if domains
        }
        lines = [
            f"trunk failure {self.config.trunk[0]}–{self.config.trunk[1]} "
            f"for {self.config.outage / 1e9:.0f} s",
            self.bounds.describe(),
            f"silenced domains: {silenced}",
            f"max Π* during outage:  {self.max_precision_during_outage:.0f} ns",
            f"max Π* after recovery: {self.max_precision_after_recovery:.0f} ns",
            f"violations: {self.violations}  recovered: {self.recovered}",
            self.verdict.describe(),
        ]
        return "\n".join(lines)


def _stale_domains(testbed: Testbed) -> Dict[str, Set[int]]:
    """Per running VM: domains whose FTSHMEM slot is stale right now."""
    out: Dict[str, Set[int]] = {}
    for name, vm in testbed.vms.items():
        if not vm.running:
            continue
        aggregator = vm.aggregator
        now = vm.nic.clock.time()
        fresh = aggregator.shmem.fresh_offsets(
            now, aggregator.config.validity.staleness
        )
        out[name] = {
            d.number for d in testbed.domains if d.number not in fresh
        }
    return out


def run_link_failure_experiment(
    config: Optional[LinkFailureConfig] = None,
    testbed_config: Optional[TestbedConfig] = None,
    scenario=None,
) -> LinkFailureResult:
    """Run the experiment end to end.

    ``scenario`` (a spec, registered name, or JSON path) supplies the
    testbed when ``testbed_config`` is not given. The flap is a
    ``link_down``/``link_up`` stage pair merged onto the testbed's chaos
    plan; the silenced domains are read at the end of the outage.
    """
    config = config if config is not None else LinkFailureConfig()
    tb_config = testbed_config or resolve_testbed_config(scenario, config.seed)
    sw_m = f"sw{tb_config.measurement_device}"
    victim = config.trunk
    if victim is None:
        victim = next(
            (pair for pair in switch_graph(tb_config).trunks
             if sw_m not in pair),
            None,
        )
        if victim is None:
            raise ValueError(
                "every trunk is incident to the measurement switch "
                f"({sw_m}); no legal victim trunk on this topology"
            )
        config = replace(config, trunk=victim)
    if sw_m in victim:
        raise ValueError(
            f"trunk {victim} carries the measurement VLAN ({sw_m}); "
            "pick a trunk not incident to the measurement device"
        )
    outage_start = config.settle
    recovery_start = outage_start + config.outage
    trunk = ("-".join(victim),)
    flap = ChaosPlan(name="trunk-flap", stages=(
        ChaosStage(at=outage_start, action="link_down", links=trunk),
        ChaosStage(at=recovery_start, action="link_up", links=trunk),
    ))
    testbed, monitor, _ = run_monitored(tb_config.with_chaos(flap),
                                        recovery_start)
    silenced = _stale_domains(testbed)
    testbed.run_until(recovery_start + config.recovery)

    bounds = testbed.derive_bounds()
    during = [
        r.precision
        for r in testbed.series.records
        if outage_start <= r.time < recovery_start
    ]
    after = [
        r.precision
        for r in testbed.series.records
        if r.time >= recovery_start + config.recovery // 2
    ]
    stale_after = _stale_domains(testbed)
    recovered = all(not domains for domains in stale_after.values())
    return LinkFailureResult(
        config=config,
        bounds=bounds,
        silenced=silenced,
        max_precision_during_outage=max(during) if during else 0.0,
        max_precision_after_recovery=max(after) if after else 0.0,
        violations=len(testbed.series.violations(bounds.bound_with_error)),
        recovered=recovered,
        verdict=monitor.verdict(),
    )
