"""Import budgets: what a process loads before and during a run.

Every experiment runs in a fresh interpreter, so each module it imports
costs a compile at start-up. The package ``__init__``s export their names
lazily (``repro._lazy``), and these tests pin the consequences:

* the §III-C fault-injection entry point loads none of the study,
  parallel or resilience layers, the other experiments, or
  ``multiprocessing``;
* each benchmark workload (``perfbench/workloads.py``, toy size) imports
  everything its run needs during set-up, so no import lands in a timed
  phase. The one exception is the adaptive engine, which a ``Testbed``
  has always loaded on its first ``run_until``;
* ``--help``, ``study status`` and ``cache`` load no simulation code.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.studies.core import Job, Study
from repro.studies.ledger import StudyLedger
from tests import _study_helpers as helpers

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ROOT = os.path.dirname(SRC)
PERFBENCH = os.path.join(ROOT, "perfbench")


def _fresh_modules(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _under(modules, packages):
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in packages))


def test_fault_injection_loads_no_study_or_pool_code():
    loaded = _fresh_modules("""
        import json, sys
        import repro.experiments.fault_injection
        from repro.scenarios import resolve_scenario
        resolve_scenario("paper-mesh4")
        print(json.dumps(sorted(sys.modules)))
    """)
    assert _under(loaded, (
        "repro.studies",
        "repro.parallel",
        "repro.resilience",
        "repro.experiments.sweeps",
        "repro.experiments.montecarlo",
        "repro.experiments.baselines",
        "repro.experiments.cyber",
        "repro.experiments.holdover",
        "repro.experiments.link_failure",
        "multiprocessing",
    )) == []


#: Modules a toy run of each workload may import after its set-up.
RUN_IMPORTS = {
    "mesh4-faults": set(),
    "torus64-adaptive": {"repro.experiments.fidelity"},
    "study-chaos": set(),
}


@pytest.mark.skipif(not os.path.isdir(PERFBENCH), reason="no perfbench/")
@pytest.mark.parametrize("workload", sorted(RUN_IMPORTS))
def test_benchmark_run_imports_nothing_new(workload, tmp_path):
    report = _fresh_modules(f"""
        import json, sys
        sys.path.insert(0, {PERFBENCH!r})
        import workloads
        size = workloads.SIZES["toy"][{workload!r}]
        work = workloads.WORKLOADS[{workload!r}](1, size, {str(tmp_path)!r})
        before = set(sys.modules)
        work.run(count_events=False)
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    assert set(report) - RUN_IMPORTS[workload] == set()


SIMULATION = (
    "repro.analysis",
    "repro.chaos",
    "repro.clocks",
    "repro.core",
    "repro.experiments",
    "repro.faults",
    "repro.gptp",
    "repro.hypervisor",
    "repro.measurement",
    "repro.monitoring",
    "repro.network",
    "repro.scenarios",
    "repro.security",
    "repro.sim",
)


def _cli_modules(*argv: str) -> list:
    return _fresh_modules(f"""
        import contextlib, io, json, sys
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main({list(argv)!r})
            except SystemExit:
                pass
        print(json.dumps(sorted(sys.modules)))
    """)


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("cache", "stats"),
    ("cache", "verify"),
    ("cache", "prune", "--older-than", "0", "--dry-run"),
])
def test_cli_housekeeping_loads_no_simulation_code(argv, tmp_path):
    argv = argv + (("--cache-dir", str(tmp_path)) if argv[0] == "cache" else ())
    assert _under(_cli_modules(*argv), SIMULATION) == []


def test_study_status_loads_no_simulation_code(tmp_path):
    study = Study(name="budget", jobs=(
        Job(key="k1", fn=helpers.double, args=(1,), label="x=1"),
    ))
    ledger = StudyLedger.for_study(study, path=str(tmp_path / "l.json"))
    ledger.save()
    assert _under(_cli_modules("study", "status", ledger.path), SIMULATION) == []
