"""The repository benchmark: one command, one named workload, one result.

    python3 perfbench/run.py --workload mesh4-faults --seed 1 --seconds 35 --trace 0

Every set-up and every run of the workload happens in its own process
(``child.py``). With ``--trace 0`` the workload is set up
``SETUP_SAMPLES`` times, ``setup_s`` is the median, and the last process
repeats the workload's timed phases for ``--seconds`` and times each
piece of work by its fastest repetition (``workloads.fastest``). With
``--trace 1`` the workload makes one pass untraced and one under
``cProfile``, and the per-layer metrics are reported. Every run prints
the digest of its simulated outputs and checks it: repetitions and the
traced pass must reproduce it, and on the default seed it must equal the
committed one in ``digests.json``.

The last stdout line is the JSON result; the exit code is 0 only when
every check passed. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from layers import SIM_LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOAD_NAMES = ("mesh4-faults", "torus64-adaptive", "study-chaos")
DEFAULT_SEED = 1
#: Set-ups timed per --trace 0 run, the measuring process's included.
SETUP_SAMPLES = 5
#: Longest a single child may take before it is killed.
CHILD_TIMEOUT_S = 170

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cold_s": ("s", "lower"),
    "sim_s_per_wall_s": ("sim_s/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

_STUDY_PASS = (
    ("studies.compile_s", "s", "lower"),
    ("studies.collect_s", "s", "lower"),
    ("studies.ledger_saves", "count", "lower"),
    ("studies.ledger_save_s", "s", "lower"),
    ("studies.ledger_bytes", "B", "lower"),
    ("parallel.cache_gets", "count", "lower"),
    ("parallel.cache_get_s", "s", "lower"),
    ("parallel.cache_puts", "count", "lower"),
    ("parallel.cache_put_s", "s", "lower"),
    ("parallel.cache_hit_ratio", "ratio", "higher"),
    ("studies.jobs_failed", "count", "lower"),
    ("studies.retries", "count", "lower"),
    ("parallel.cache_quarantined", "count", "lower"),
)


def _events_name(layer: str) -> str:
    """``sim.events`` is the kernel's total, so the sim layer's share is
    ``sim.own_events``."""
    return "sim.own_events" if layer == "sim" else f"{layer}.events"


def _per_layer_spec() -> Dict[str, tuple]:
    spec: Dict[str, tuple] = {}
    for layer in SIM_LAYERS:
        spec[f"{layer}.self_s"] = ("s", "lower")
        spec[f"{layer}.calls"] = ("count", "lower")
        spec[_events_name(layer)] = ("count", "lower")
    spec["sim.events"] = ("count", "lower")
    spec["sim.events_per_s"] = ("1/s", "higher")
    spec["fidelity.jumps"] = ("count", "higher")
    spec["fidelity.skipped_s"] = ("s", "higher")
    spec["fidelity.quiescence_checks"] = ("count", "lower")
    for suffix in ("cold", "warm"):
        for name, unit, better in _STUDY_PASS:
            spec[f"{name}.{suffix}"] = (unit, better)
    spec["studies.jobs"] = ("count", "higher")
    spec["studies.job_s.p50"] = ("s", "lower")
    spec["studies.job_s.p90"] = ("s", "lower")
    spec["trace_overhead"] = ("ratio", "lower")
    return spec


#: Per-layer metrics: name -> (unit, better).
PER_LAYER = _per_layer_spec()


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, size: str, *flags: str) -> dict:
    """Run ``child.py`` once and return its report (``error`` on failure)."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--size", size, *flags]
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    # Its own session, so that a timeout also stops the forks it runs.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    stdout = None
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if stdout is None:  # timed out or interrupted
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass
            proc.communicate()
    if stdout is None:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else {}
    except ValueError:
        report = {}
    if proc.returncode != 0 and "error" not in report:
        report["error"] = f"exit code {proc.returncode}"
    if not report:
        report["error"] = "no report"
    return report


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": nproc, "cpu": _cpu_model(),
        "python": platform.python_version(), "commit": _git_commit(),
    }


# ----------------------------------------------------------------------
# Checks shared by both modes
# ----------------------------------------------------------------------
class Checks:
    """Operation counts plus every failed check, with its reason."""

    def __init__(self, expected_digest: Optional[str]) -> None:
        self.expected = expected_digest
        self.digest: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, report: dict, label: str) -> bool:
        """Fold one child report in; False when the child itself failed."""
        if "error" in report:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{label}: {report['error'].strip()[-300:]}")
            return False
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.problems += [f"{label}: {p}" for p in report["problems"]]
        if report["failed"] and not report["problems"]:
            self.problems.append(f"{label}: {report['failed']} failed")
        digest = report["digest"]
        reference = self.digest or self.expected
        if reference is not None and digest != reference:
            # A run whose outputs differ failed every operation it made.
            self.failed += report["attempted"] - report["failed"]
            self.problems.append(f"{label}: digest {digest} != {reference}")
        if self.digest is None:
            self.digest = digest
        return True

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.problems.append(reason)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_untraced(args, checks: Checks) -> Dict[str, dict]:
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        report = spawn(args.workload, args.seed, args.size, "--setup-only")
        if "error" in report:
            checks.fail(f"set-up {i + 1}: {report['error'].strip()[-300:]}")
            return {}
        setups.append(report["setup_s"])
    deadline = time.monotonic() + args.seconds
    report = spawn(args.workload, args.seed, args.size,
                   "--deadline", repr(deadline))
    if not checks.add(report, "measured run"):
        return {}
    setups.append(report["setup_s"])
    values = {
        "setup_s": statistics.median(setups),
        "cold_s": report["timings"]["cold_s"],
        "sim_s_per_wall_s": report["timings"]["sim_s_per_wall_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    print("set-ups: " + json.dumps(setups))
    print(f"operations: {report['attempted']}, timed wall: "
          f"{report['run_wall_s']:.3f} s")
    print("timings: " + json.dumps(report["timings"], sort_keys=True))
    print("samples: " + json.dumps(report["samples"], sort_keys=True))
    return {name: _metric(values[name], END_TO_END[name][0])
            for name in END_TO_END}


def measure_traced(args, checks: Checks) -> Dict[str, dict]:
    plain = spawn(args.workload, args.seed, args.size, "--layers")
    if not checks.add(plain, "untraced run"):
        return {}
    traced = spawn(args.workload, args.seed, args.size, "--layers",
                   "--traced")
    if not checks.add(traced, "traced run"):
        return {}
    layers = traced["layers"]
    events = plain["sim_events"]
    attributed = sum(layers["events"].values())
    if events is None or attributed != events:
        checks.fail(f"layer events sum to {attributed}, kernel counted "
                    f"{events}")
    if traced["sim_events"] is not None and traced["sim_events"] != events:
        checks.fail(f"traced kernel counted {traced['sim_events']}, "
                    f"untraced {events}")
    values: Dict[str, float] = {}
    for layer in SIM_LAYERS:
        values[f"{layer}.self_s"] = layers["self_s"].get(layer, 0.0)
        values[f"{layer}.calls"] = layers["calls"].get(layer, 0)
        values[_events_name(layer)] = layers["events"].get(layer, 0)
    values["sim.events"] = events or 0
    values["sim.events_per_s"] = ((events or 0) / plain["event_wall_s"]
                                  if plain["event_wall_s"] else 0.0)
    values["trace_overhead"] = traced["run_wall_s"] / plain["run_wall_s"]
    for name in PER_LAYER:
        if name not in values:
            values[name] = traced["counters"].get(name, 0)
    other = {k: v for k, v in layers["self_s"].items() if k not in SIM_LAYERS}
    print("traced self_s outside the simulation layers: "
          + json.dumps(other, sort_keys=True))
    return {name: _metric(values[name], PER_LAYER[name][0])
            for name in PER_LAYER}


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "toy"),
                        help="toy sizes are for the harness self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: the repro sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    with open(DIGESTS, encoding="utf-8") as fh:
        committed = json.load(fh)
    expected = None
    if args.seed == committed["seed"]:
        expected = committed[args.size].get(args.workload)
    checks = Checks(expected)
    info = provenance(args.workload, args.seed, args.seconds, args.trace)
    print("provenance: " + json.dumps(info, sort_keys=True))
    if args.trace:
        metrics = measure_traced(args, checks)
    else:
        metrics = measure_untraced(args, checks)
    print(f"digest: {checks.digest} "
          f"(committed for seed {committed['seed']}: {expected or 'n/a'})")
    for problem in checks.problems:
        print(f"check failed: {problem}")
    if not metrics:
        print("perfbench: no result", file=sys.stderr)
        return 1
    failed_frac = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"failed_frac: {failed_frac} ({checks.failed}/{checks.attempted})")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
