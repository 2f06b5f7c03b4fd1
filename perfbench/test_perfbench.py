"""Self-test of the benchmark harness at toy sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
    python3 -m unittest discover -s perfbench -p "test_*.py"

Runs every workload through ``run.py`` in both modes, checks the result
line against ``BENCHMARK.json``, checks the layer fold against the
kernel's own counter, and checks that the command refuses to run without
the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from layers import LayerFolder, layer_of_file  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


class TestBenchmarkFile(unittest.TestCase):
    def test_names_match_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(bench.WORKLOAD_NAMES))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]},
            bench.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]},
            bench.PER_LAYER)
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in doc["end_to_end"]))


class TestToyRuns(unittest.TestCase):
    def _result(self, workload: str, trace: int) -> dict:
        proc = _bench("--workload", workload, "--size", "toy", "--seed", "1",
                      "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_untraced_reports_every_end_to_end_metric(self):
        for workload in bench.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                metrics = self._result(workload, 0)["metrics"]
                self.assertEqual(set(metrics), set(bench.END_TO_END))
                for name, metric in metrics.items():
                    self.assertEqual(metric["unit"], bench.END_TO_END[name][0])
                    self.assertGreater(metric["value"], 0)

    def test_traced_reports_every_per_layer_metric(self):
        for workload in bench.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                metrics = self._result(workload, 1)["metrics"]
                self.assertEqual(set(metrics), set(bench.PER_LAYER))
                values = {k: m["value"] for k, m in metrics.items()}
                layer_events = sum(values[bench._events_name(layer)]
                                   for layer in bench.SIM_LAYERS)
                self.assertEqual(layer_events, values["sim.events"])
                self.assertGreater(values["sim.events"], 0)
                if workload == "torus64-adaptive":
                    self.assertGreater(values["fidelity.quiescence_checks"], 0)
                else:
                    self.assertEqual(values["fidelity.events"], 0)
                if workload == "study-chaos":
                    self.assertEqual(values["parallel.cache_hit_ratio.warm"], 1)
                    self.assertEqual(values["parallel.cache_puts.warm"], 0)
                    self.assertGreater(values["studies.ledger_saves.cold"], 0)
                else:
                    self.assertEqual(values["studies.ledger_saves.cold"], 0)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench("--workload", "mesh4-faults", "--seconds", "1",
                          "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class TestFastest(unittest.TestCase):
    def test_each_piece_takes_its_fastest_repetition(self):
        from workloads import fastest

        self.assertEqual(fastest([[1.0, 5.0], [2.0, 3.0], [4.0, 4.0]]), 4.0)
        self.assertEqual(fastest([[2.5]]), 2.5)


class TestInFork(unittest.TestCase):
    def test_returns_the_result_and_leaves_this_process_alone(self):
        from workloads import in_fork

        state = {"n": 0}

        def bump():
            state["n"] += 1
            return [state["n"], 0.1]

        self.assertEqual(in_fork(bump), [1, 0.1])
        self.assertEqual(in_fork(bump), [1, 0.1])
        self.assertEqual(state["n"], 0)

    def test_raises_when_the_fork_fails(self):
        from workloads import in_fork

        def boom():
            raise ValueError("boom")

        with self.assertRaisesRegex(RuntimeError, "ValueError: boom"):
            in_fork(boom)

    def test_held_fork_runs_from_the_state_it_was_made_in(self):
        from workloads import HeldFork

        state = {"n": 1}
        held = HeldFork(lambda: state["n"])
        unused = HeldFork(lambda: state["n"])
        state["n"] = 2
        self.assertEqual(held.run(), 1)
        unused.close()
        held.close()  # already ended: nothing to do


class TestLayerFold(unittest.TestCase):
    def test_layer_of_file(self):
        src = os.path.join(ROOT, "src")
        repro = os.path.join(src, "repro")
        cases = {
            os.path.join(repro, "sim", "kernel.py"): "sim",
            os.path.join(repro, "sim", "trace.py"): "trace",
            os.path.join(repro, "experiments", "fidelity.py"): "fidelity",
            os.path.join(repro, "experiments", "testbed.py"): "experiments",
            os.path.join(repro, "cli.py"): "cli",
            "/usr/lib/python3/json/encoder.py": "",
            "~": "",
        }
        for filename, layer in cases.items():
            self.assertEqual(layer_of_file(filename, src), layer, filename)

    def test_events_sum_to_the_kernel_counter(self):
        import cProfile
        import functools

        sys.path.insert(0, os.path.join(ROOT, "src"))
        from repro.core.fta import fault_tolerant_average
        from repro.sim.kernel import Simulator
        from repro.sim.process import PeriodicTask

        sim = Simulator()
        fired = []
        tick = functools.partial(fault_tolerant_average, [1.0, 2.0, 3.0, 4.0], 1)
        PeriodicTask(sim, 10, tick).start()  # wrapper around a core action
        sim.schedule_periodic(7, fired.append, 1)  # builtin callback
        for delay in range(1, 40):
            sim.post(delay, fault_tolerant_average, [1.0, 2.0, 3.0, 4.0], 1)
        profiler = cProfile.Profile(builtins=True)
        profiler.enable()
        sim.run_until(100)
        profiler.disable()
        profiler.create_stats()
        folder = LayerFolder(profiler.stats, os.path.join(ROOT, "src"))
        self.assertEqual(folder.events(), {"core": 10 + 39, "sim": 14})
        self.assertEqual(sim.dispatched_events, 10 + 39 + 14)


if __name__ == "__main__":
    unittest.main()
