"""One monitored run: a testbed under the online invariant monitor.

Fault injection, chaos, and every sweep and envelope arm run their
testbed through :func:`run_monitored`, which fixes the order of the
pieces and records the run's ``experiment.*`` metrics. It lives apart
from :mod:`repro.experiments.testbed` so that a plain testbed loads no
monitor or injector code.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional, Tuple

from repro.experiments.testbed import Testbed, TestbedConfig
from repro.faults.injector import FaultInjectionConfig, FaultInjector
from repro.monitoring.invariants import InvariantMonitor, InvariantSpec


def run_monitored(
    config: TestbedConfig,
    duration: int,
    invariants: Optional[InvariantSpec] = None,
    f: Optional[int] = None,
    injector: Optional[FaultInjectionConfig] = None,
    metrics=None,
    fidelity: str = "full",
) -> Tuple[Testbed, InvariantMonitor, Optional[FaultInjector]]:
    """Build ``config``, run it to ``duration`` under the invariant monitor.

    Returns the testbed, its monitor and the fault injector (``None``
    without ``injector``).

    The order is fixed, because it fixes the RNG draws and the event
    sequence numbers: the testbed, then the optional fault ``injector``
    (never injecting the measurement VM, so the probe stream stays
    continuous), then the monitor (``invariants``, grading fault
    hypothesis ``f``). With a ``metrics`` registry the testbed's gauges
    are published and the run adds to ``experiment.runs``,
    ``experiment.events_dispatched``, the ``experiment.run_wall_s``
    histogram and the ``experiment.events_per_sec`` gauge.
    """
    wall_start = time.perf_counter()
    testbed = Testbed(config, metrics=metrics, fidelity=fidelity)
    fault_injector = None
    if injector is not None:
        if testbed.measurement_vm_name not in injector.exclude:
            injector = replace(
                injector,
                exclude=tuple(injector.exclude)
                + (testbed.measurement_vm_name,),
            )
        fault_injector = FaultInjector(
            testbed.sim,
            list(testbed.nodes.values()),
            injector,
            testbed.rng.stream("fault-injector"),
            testbed.trace,
        )
        fault_injector.start()
    monitor = InvariantMonitor(testbed, invariants, metrics=metrics, f=f)
    monitor.start()
    testbed.run_until(duration)
    if metrics is not None:
        from repro.metrics.registry import WALL_S_BUCKETS

        testbed.publish_metrics()
        wall = time.perf_counter() - wall_start
        events = testbed.sim.dispatched_events
        metrics.counter("experiment.runs").inc()
        metrics.counter("experiment.events_dispatched").inc(events)
        metrics.histogram(
            "experiment.run_wall_s", edges=WALL_S_BUCKETS
        ).observe(wall)
        if wall > 0:
            metrics.gauge("experiment.events_per_sec").set(events / wall)
    return testbed, monitor, fault_injector
