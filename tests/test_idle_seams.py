"""Idle observer seams cost exact call counts, not wall-clock ratios.

Two optional observers hang off guarded seams in the production path: a
``MetricsRegistry`` on the simulator and testbed (guarded emits), and a
``FaultInjector`` on the study runner's cache, ledger and job seams
(``pre_op``). Detached, each seam is one ``is None`` check, so it must
call nothing in the observer's code. Attached, the added work is
bounded per event or per seam operation.

Calls are counted with a ``sys.setprofile`` hook, so the counts are the
same on any host and Python speed. The hook chains to whatever profile
function was already installed (``tools/reach_audit.py`` installs one
over the whole suite) and restores it afterwards; ``cProfile`` would
replace that hook and hide every later test from the audit.
"""

import contextlib
import os
import sys
from collections import Counter

import repro.metrics
from tests import _study_helpers as helpers
from repro.experiments.testbed import Testbed
from repro.metrics import MetricsRegistry
from repro.parallel import ResultsCache, config_fingerprint
from repro.resilience import FaultInjector, FaultPlan
from repro.resilience import injector as injector_module
from repro.scenarios import get_scenario
from repro.sim.timebase import SECONDS
from repro.studies import Job, Study, StudyLedger, run_study

METRICS_DIR = os.path.dirname(os.path.abspath(repro.metrics.__file__)) + os.sep
INJECTOR_FILE = os.path.abspath(injector_module.__file__)


@contextlib.contextmanager
def counting_calls():
    """Count Python-function calls per source file while the block runs."""
    calls = Counter()
    previous = sys.getprofile()

    def hook(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_filename] += 1
        if previous is not None:
            previous(frame, event, arg)

    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def _calls_in(calls, path):
    """Calls counted in the file ``path``, or under the directory ``path``."""
    return sum(n for filename, n in calls.items()
               if os.path.abspath(filename).startswith(path))


class TestMetricsSeam:
    """paper-mesh4 for 20 simulated seconds, with and without a registry."""

    def _run(self, registry):
        config = get_scenario("paper-mesh4").testbed_config(seed=1)
        testbed = Testbed(config, metrics=registry)
        with counting_calls() as calls:
            testbed.run_until(20 * SECONDS)
        return calls, testbed.sim.dispatched_events

    def test_idle_seams_call_nothing_and_a_registry_adds_a_bounded_share(self):
        plain, plain_events = self._run(None)
        assert _calls_in(plain, METRICS_DIR) == 0

        observed, observed_events = self._run(MetricsRegistry())
        assert observed_events == plain_events
        added = sum(observed.values()) - sum(plain.values())
        assert _calls_in(observed, METRICS_DIR) > 0
        assert 0 < added < 0.25 * sum(plain.values())


class TestResilienceSeam:
    """A serial 50-job study with a store and an on-disk ledger."""

    JOBS = 50

    def _run(self, workdir, faults):
        jobs = tuple(
            Job(key=config_fingerprint("idle-seams", n), fn=helpers.double,
                args=(n,), label=f"n={n}", kind="unit", seed=n)
            for n in range(self.JOBS)
        )
        study = Study(name="idle-seams", jobs=jobs)
        cache = ResultsCache(os.path.join(workdir, "store"))
        ledger = StudyLedger.for_study(
            study, path=os.path.join(workdir, "study.ledger.json"))
        with counting_calls() as calls:
            run = run_study(study, cache=cache, ledger=ledger, faults=faults)
        assert run.complete
        return calls, repr(run.collected())

    def test_idle_injector_adds_at_most_two_calls_per_seam_operation(
            self, tmp_path):
        detached, detached_results = self._run(str(tmp_path / "detached"),
                                               None)
        assert _calls_in(detached, INJECTOR_FILE) == 0

        injector = FaultInjector(FaultPlan(name="idle"))
        attached, attached_results = self._run(str(tmp_path / "attached"),
                                               injector)
        assert attached_results == detached_results
        assert injector.fire_count == 0
        operations = sum(injector.calls.values())
        # Every seam a study with a store and a ledger goes through.
        assert set(injector.calls) == {"cache.get", "cache.put", "job.fn",
                                       "ledger.flush"}
        assert operations >= 4 * self.JOBS
        added = sum(attached.values()) - sum(detached.values())
        assert 0 < added <= 2 * operations
