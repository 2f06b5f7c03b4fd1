"""The three benchmark workloads, driven through public entry points only.

Each workload is built from a seed and a size. ``run`` makes one pass of
it, which the traced runs use. ``measure`` repeats its timed phases until
a deadline, which the untraced runs use, and times each piece of work by
its fastest repetition (see ``fastest``). Both return the simulated
outputs the digest covers, the end-to-end timings, the study-pipeline
counters where they apply, and how many operations were attempted and how
many failed. Nothing here changes code under ``src/``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Sizes. ``full`` is what the benchmark measures; ``toy`` keeps the
#: harness self-test fast.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "full": {
        # A compressed 6 minutes hold a GM shutdown, 2 redundant-VM
        # failures and 2 takeovers on the default seed, and take about 4 s,
        # so a run repeats it several times.
        "mesh4-faults": {"hours": 0.1},
        # 36 s is the earliest the adaptive engine may jump on torus-64
        # (probes start at 30 s and it needs 5 of them).
        "torus64-adaptive": {"warmup_s": 36, "window_s": 150},
        # p90 of the job times needs at least 100 jobs. A cold pass takes
        # about 10 s, so ``measure`` makes two and repeats the warm pass
        # (about 0.4 s) around them; a traced pass makes 3 warm passes.
        "study-chaos": {"jobs": 100, "duration_s": 8, "start_s": 3,
                        "warm_passes": 3},
    },
    "toy": {
        "mesh4-faults": {"hours": 0.01},
        "torus64-adaptive": {"warmup_s": 2, "window_s": 3},
        "study-chaos": {"jobs": 3, "duration_s": 3, "start_s": 1,
                        "warm_passes": 2},
    },
}


def digest(outputs: Any) -> str:
    """SHA-256 over a canonical JSON rendering (floats by ``repr``)."""
    body = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _records(records) -> List[list]:
    return [[r.seq, r.time, r.precision, r.n_receivers] for r in records]


def fastest(repetitions: List[List[float]]) -> float:
    """The wall time of one repetition of some work, each of whose pieces
    takes its fastest time over all the repetitions.

    ``repetitions`` holds, for every repetition, the wall times of the same
    pieces in the same order. The host's speed swings between two levels
    about 1.7x apart, from fractions of a second to half a minute, so a
    mean or median over a run measures the host. It only ever slows work
    down, though, and the fastest repetition of a short piece is nearly
    always timed at the fast level.
    """
    return sum(map(min, zip(*repetitions)))


def another_fits(deadline: float, walls: List[float]) -> bool:
    """Whether one more repetition, as long as the mean one so far, ends
    by ``deadline`` (a ``time.monotonic()`` value)."""
    return time.monotonic() + statistics.mean(walls) <= deadline


#: Parent-side pipe ends of the held forks still open. A new fork closes
#: its copies, so that it never keeps another held fork's pipes open.
_HELD_FDS: set = set()


class HeldFork:
    """A fork of this process, held at the state it was made in.

    ``run`` has the copy call ``fn`` from that state and returns the
    result, which travels back as JSON; ``close`` lets an unused copy
    exit. Either way the copy has ended when they return. This process's
    own state does not move, and only one of the two runs at a time.
    """

    def __init__(self, fn: Callable[[], Any]) -> None:
        gate_r, gate_w = os.pipe()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(gate_w)
            os.close(read_fd)
            _serve(fn, gate_r, write_fd)
        os.close(gate_r)
        os.close(write_fd)
        self._pid, self._gate, self._reply = pid, gate_w, read_fd
        self._held = True
        _HELD_FDS.update((gate_w, read_fd))

    def run(self) -> Any:
        return self._release(b"1")

    def close(self) -> None:
        if self._held:
            try:
                self._release(b"0")
            except RuntimeError:
                pass  # it exited unused, as asked

    def _release(self, word: bytes) -> Any:
        self._held = False
        _HELD_FDS.difference_update((self._gate, self._reply))
        try:
            os.write(self._gate, word)
        finally:
            os.close(self._gate)
        try:
            with os.fdopen(self._reply, "r", encoding="utf-8") as fh:
                body = fh.read()
        finally:
            _, status = os.waitpid(self._pid, 0)
        reply = json.loads(body) if body else {}
        if "result" not in reply:
            raise RuntimeError("forked run failed (wait status %d):\n%s"
                               % (status, reply.get("error", "no reply")))
        return reply["result"]


def _serve(fn: Callable[[], Any], gate: int, fd: int) -> None:
    """The body of a held fork: wait for the gate, run ``fn``, reply, exit."""
    code = 0
    try:
        for held in _HELD_FDS:
            os.close(held)
        if os.read(gate, 1) != b"1":
            os._exit(0)  # released unused
        body = json.dumps({"result": fn()})
    except BaseException:
        body = json.dumps({"error": traceback.format_exc()})
        code = 1
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(body)
    finally:
        os._exit(code)


def in_fork(fn: Callable[[], Any]) -> Any:
    """Run ``fn`` in a forked copy of this process and return its result,
    so that every call repeats the same work from the same state."""
    return HeldFork(fn).run()


@dataclass
class Outcome:
    """What one pass, or one measurement, of a workload produced."""

    outputs: Dict[str, Any]
    #: End-to-end timings (seconds, or sim_s per wall s).
    timings: Dict[str, float]
    attempted: int
    failed: int = 0
    #: The kernel's own dispatch counter, when the run could read it.
    sim_events: Optional[int] = None
    #: Wall seconds of the phases that dispatched simulator events.
    event_wall_s: float = 0.0
    #: Per-layer counters measured by the harness (fidelity, studies, ...).
    counters: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: Wall seconds of every repetition behind the timings, in run order.
    samples: Dict[str, list] = field(default_factory=dict)


class Mesh4Faults:
    """The paper's §III-C fault-injection run on paper-mesh4, compressed."""

    name = "mesh4-faults"

    def __init__(self, seed: int, size: Dict[str, float], scratch: str) -> None:
        from repro.experiments.fault_injection import (
            FaultInjectionExperimentConfig,
        )
        from repro.scenarios import resolve_scenario

        self.config = FaultInjectionExperimentConfig(
            seed=seed, scenario=resolve_scenario("paper-mesh4")
        ).scaled(size["hours"])

    def run(self, count_events: bool) -> Outcome:
        from repro.experiments.fault_injection import (
            run_fault_injection_experiment,
        )

        registry = None
        if count_events:
            # The experiment builds its own Testbed; its metrics hook is
            # the public way to read the kernel's dispatch counter.
            from repro.metrics import MetricsRegistry

            registry = MetricsRegistry()
        start = time.perf_counter()
        result = run_fault_injection_experiment(self.config, metrics=registry)
        wall = time.perf_counter() - start
        sim_s = self.config.duration / 1e9
        outputs = {
            "records": _records(result.records),
            "injections": result.injections,
            "takeovers": result.takeovers,
            "tx_timeouts": result.tx_timeouts,
            "deadline_misses": result.deadline_misses,
            "violations": result.violations,
            "verdict": result.verdict.to_dict(),
        }
        outcome = Outcome(
            outputs=outputs,
            timings={"cold_s": wall, "sim_s_per_wall_s": sim_s / wall},
            attempted=1,
            event_wall_s=wall,
        )
        if registry is not None:
            outcome.sim_events = int(
                registry.counters["experiment.events_dispatched"].value
            )
        if not result.records:
            outcome.problems.append("no precision records")
        return outcome

    def measure(self, deadline: float) -> Outcome:
        """Repeat the run until ``deadline`` and time the fastest. Every
        repetition must reproduce the first one's outputs."""
        outcome = self.run(count_events=False)
        expected = digest(outcome.outputs)
        walls = [outcome.event_wall_s]
        while another_fits(deadline, walls):
            again = self.run(count_events=False)
            walls.append(again.event_wall_s)
            outcome.attempted += again.attempted
            outcome.failed += again.failed
            outcome.problems += again.problems
            if digest(again.outputs) != expected:
                outcome.failed += 1
                outcome.problems.append(
                    f"repetition {len(walls)}: outputs differ from the first")
        run_s = fastest([[wall] for wall in walls])
        outcome.timings = {
            "cold_s": run_s,
            "sim_s_per_wall_s": self.config.duration / 1e9 / run_s,
        }
        outcome.samples = {"run_s": walls}
        return outcome


class Torus64Adaptive:
    """torus-64 at adaptive fidelity: event-level start-up, then a window."""

    name = "torus64-adaptive"
    #: The warm-up is timed in this many segments of equal simulated time.
    SEGMENTS = 4

    def __init__(self, seed: int, size: Dict[str, float], scratch: str) -> None:
        from repro.experiments.testbed import Testbed
        from repro.scenarios import resolve_scenario
        from repro.sim.timebase import SECONDS

        spec = resolve_scenario("torus-64")
        self.warmup = round(size["warmup_s"] * SECONDS)
        self.window = round(size["window_s"] * SECONDS)
        self.testbed = Testbed(spec.testbed_config(seed=seed),
                               fidelity="adaptive")

    def _advance(self, until: int) -> list:
        """Run to ``until``: the wall time and the kernel's event count."""
        start = time.perf_counter()
        self.testbed.run_until(until)
        return [time.perf_counter() - start, self.testbed.sim.dispatched_events]

    def _segment_ends(self) -> List[int]:
        return [self.warmup * (k + 1) // self.SEGMENTS
                for k in range(self.SEGMENTS)]

    def _window(self) -> dict:
        """Run the window from the warmed-up state: its wall time and the
        whole run's outputs."""
        testbed = self.testbed
        start = time.perf_counter()
        testbed.run_until(self.warmup + self.window)
        wall = time.perf_counter() - start
        probing = self.warmup + self.window > testbed.config.measurement_start
        return {
            "wall_s": wall,
            "outputs": {
                "records": _records(testbed.series.records),
                "sim_events": testbed.sim.dispatched_events,
                "fastforward": testbed.fastforward_summary(),
            },
            "problems": (["no precision records"]
                         if probing and not testbed.series.records else []),
        }

    def run(self, count_events: bool) -> Outcome:
        warm_s = sum(self._advance(end)[0] for end in self._segment_ends())
        return self._outcome(warm_s, [self._window()])

    def measure(self, deadline: float) -> Outcome:
        """Time the warm-up and the window, each by its fastest pieces.

        The warm-up runs once, segment by segment, leaving a held fork at
        the start of each segment. Then windows, each in a fork of the
        warmed-up process, alternate with a second timing of each segment
        by its held fork, and windows repeat until ``deadline``, so the
        repetitions of both lie across the run. Every window must
        reproduce the first one's outputs, and every segment its first
        event count.
        """
        held: List[HeldFork] = []
        firsts: List[list] = []
        seconds: List[list] = []
        windows: List[dict] = []
        try:
            for end in self._segment_ends():
                held.append(HeldFork(functools.partial(self._advance, end)))
                firsts.append(self._advance(end))
            windows.append(in_fork(self._window))
            for fork, first in zip(held, firsts):
                if not another_fits(deadline, [first[0]]):
                    break
                seconds.append(fork.run())
                if not another_fits(deadline, [w["wall_s"] for w in windows]):
                    break
                windows.append(in_fork(self._window))
            while another_fits(deadline, [w["wall_s"] for w in windows]):
                windows.append(in_fork(self._window))
        finally:
            for fork in held:
                fork.close()
        segment_s = [[first[0]] for first in firsts]
        for timings, second in zip(segment_s, seconds):
            timings.append(second[0])
        outcome = self._outcome(sum(map(min, segment_s)), windows)
        outcome.samples = {"warmup_segment_s": segment_s,
                           "window_s": [w["wall_s"] for w in windows]}
        for k, (first, second) in enumerate(zip(firsts, seconds)):
            if second[1] != first[1]:
                outcome.failed += 1
                outcome.problems.append(
                    f"warm-up segment {k + 1} dispatched {second[1]} "
                    f"events, first {first[1]}")
        return outcome

    def _outcome(self, warm_s: float, windows: List[dict]) -> Outcome:
        outputs = windows[0]["outputs"]
        summary = outputs["fastforward"]
        window_s = fastest([[w["wall_s"]] for w in windows])
        outcome = Outcome(
            outputs=outputs,
            timings={
                "cold_s": warm_s,
                "sim_s_per_wall_s": self.window / 1e9 / window_s,
            },
            attempted=len(windows),
            sim_events=outputs["sim_events"],
            event_wall_s=warm_s + windows[0]["wall_s"],
            counters={
                "fidelity.jumps": summary["jumps"],
                "fidelity.skipped_s": summary["skipped_ns"] / 1e9,
                "fidelity.quiescence_checks": summary["quiescence_checks"],
            },
            problems=windows[0]["problems"],
        )
        expected = digest(outputs)
        for i, window in enumerate(windows[1:], start=2):
            if digest(window["outputs"]) != expected:
                outcome.failed += 1
                outcome.problems.append(
                    f"window {i}: outputs differ from the first")
        return outcome


class StudyChaos:
    """A serial chaos study on paper-mesh4: a cold pass, then warm passes.

    5 % link loss plus one colluding GM (k = f = 1, masked). Every pass
    runs the same spec the way ``repro-sim study run`` does, into a fresh
    store under ``scratch``; warm passes get a fresh ledger each and are
    served entirely from the store the cold pass filled.
    """

    name = "study-chaos"

    def __init__(self, seed: int, size: Dict[str, float], scratch: str) -> None:
        # The planner imports the chaos and campaign modules lazily; load
        # them with the rest here, so that the passes time compilation,
        # not imports.
        import repro.experiments.chaos  # noqa: F401
        import repro.security.campaigns  # noqa: F401
        import repro.studies.specs  # noqa: F401
        import studyprobe  # noqa: F401

        jobs = int(size["jobs"])
        self.spec = {
            "schema_version": 1,
            "kind": "chaos",
            "name": "perfbench-chaos",
            "scenario": "paper-mesh4",
            "seeds": [seed * 1000 + i for i in range(jobs)],
            "duration_s": size["duration_s"],
            "loss": 0.05,
            "loss_start_s": size["start_s"],
            "colluders": 1,
            "attack_start_s": size["start_s"],
        }
        self.jobs = jobs
        self.warm_passes = int(size["warm_passes"])
        self.scratch = scratch

    def _pass(self, tag: str, work: str, registry=None,
              on_job: Optional[Callable[[dict], None]] = None) -> dict:
        from repro.studies import DONE, run_study
        from repro.studies.specs import plan_from_spec, run_payload

        from studyprobe import CountingCache, CountingLedger

        # The pass's pieces end at each job's progress event.
        stamps = [time.perf_counter()]

        def progress(event: dict) -> None:
            stamps.append(time.perf_counter())
            if on_job is not None:
                on_job(event)

        start = stamps[0]
        plan = plan_from_spec(self.spec)
        compiled = time.perf_counter()
        store = os.path.join(work, "store")
        cache = CountingCache(store)
        ledger = CountingLedger.for_study(
            plan.study, path=os.path.join(work, tag + ".ledger.json"),
            spec=self.spec, cache_dir=store,
        )
        run = run_study(plan.study, cache=cache, ledger=ledger,
                        metrics=registry, progress=progress,
                        on_error="continue")
        ran = time.perf_counter()
        payload = run_payload(self.spec, plan, run)
        end = time.perf_counter()
        stamps.append(end)
        not_done = sum(1 for e in ledger.entries.values() if e.status != DONE)
        return {
            "wall_s": end - start,
            "pieces_s": [b - a for a, b in zip(stamps, stamps[1:])],
            "payload": payload,
            "not_done": not_done,
            "executed": len(run.executed),
            "cached": len(run.cached),
            "counters": {
                "studies.compile_s": compiled - start,
                "studies.collect_s": end - ran,
                "studies.ledger_saves": ledger.saves,
                "studies.ledger_save_s": ledger.save_s,
                "studies.ledger_bytes": ledger.save_bytes,
                "parallel.cache_gets": cache.gets,
                "parallel.cache_get_s": cache.get_s,
                "parallel.cache_puts": cache.puts,
                "parallel.cache_put_s": cache.put_s,
                "parallel.cache_hit_ratio": (cache.hits / cache.gets
                                             if cache.gets else 0.0),
                "studies.jobs_failed": len(run.failed) + len(run.quarantined),
                "studies.retries": run.retries,
                "parallel.cache_quarantined": cache.quarantined,
            },
        }

    def run(self, count_events: bool) -> Outcome:
        return self._in_scratch(count_events, None)

    def measure(self, deadline: float) -> Outcome:
        """Two cold passes and warm passes around them, to ``deadline``."""
        return self._in_scratch(False, deadline)

    def _in_scratch(self, count_events: bool,
                    deadline: Optional[float]) -> Outcome:
        os.makedirs(self.scratch, exist_ok=True)
        work = tempfile.mkdtemp(prefix="study-", dir=self.scratch)
        try:
            return self._run(work, count_events, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(self.scratch)
            except OSError:
                pass  # another run still uses it

    def _warm_until(self, warms: List[dict], work: str,
                    deadline: Optional[float]) -> None:
        """Warm passes on the store in ``work``: at least ``warm_passes``
        in all, then more while they fit before ``deadline``."""
        while (len(warms) < self.warm_passes
               or (deadline is not None and another_fits(
                   deadline, [w["wall_s"] for w in warms]))):
            warms.append(self._pass(f"warm{len(warms)}", work))

    def _run(self, work: str, count_events: bool,
             deadline: Optional[float]) -> Outcome:
        registry = None
        events = [0]
        job_walls: List[float] = []
        if count_events:
            # Chaos jobs build their own Testbed; with a registry attached
            # each one publishes the kernel's dispatch counter as a gauge,
            # read here after every executed job.
            from repro.metrics import MetricsRegistry

            registry = MetricsRegistry()

        def on_job(event: dict) -> None:
            if event["source"] != "executed" or event["status"] != "done":
                return
            job_walls.append(event["wall_s"])
            if registry is not None:
                events[0] += int(
                    registry.gauges["kernel.events_dispatched"].value)

        cold = self._pass("cold", work, registry=registry, on_job=on_job)
        colds, warms = [cold], []
        if deadline is None:
            self._warm_until(warms, work, None)
        else:
            # The cold pass is timed a second time, into a fresh store,
            # halfway through the warm passes, so both timings span the run.
            halfway = (time.monotonic() + deadline - cold["wall_s"]) / 2
            self._warm_until(warms, work, halfway)
            if another_fits(deadline, [cold["wall_s"]]):
                work = os.path.join(work, "second")
                os.makedirs(work)
                colds.append(self._pass("cold", work))
            self._warm_until(warms, work, deadline)
        problems: List[str] = []
        failed = sum(p["not_done"] for p in colds + warms)
        cold_rows = cold["payload"].get("result", {}).get("rows", [])
        others = [("second cold pass", c) for c in colds[1:]]
        others += [(f"warm pass {i}", w) for i, w in enumerate(warms)]
        for label, other in others:
            rows = other["payload"].get("result", {}).get("rows", [])
            mismatched = sum(
                1 for a, b in zip(cold_rows, rows)
                if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)
            ) + abs(len(cold_rows) - len(rows))
            if mismatched:
                problems.append(f"{label}: {mismatched} rows differ from cold")
            failed += mismatched
        for i, other in enumerate(colds):
            if other["executed"] != self.jobs:
                problems.append(
                    f"cold pass {i + 1} executed {other['executed']} jobs")
        for i, warm in enumerate(warms):
            if warm["cached"] != self.jobs:
                problems.append(f"warm pass {i} served {warm['cached']} jobs")
        warm_wall = fastest([w["pieces_s"] for w in warms])
        sim_s = self.jobs * float(self.spec["duration_s"])
        counters: Dict[str, float] = {}
        for key, value in cold["counters"].items():
            counters[key + ".cold"] = value
        for key in warms[0]["counters"]:
            counters[key + ".warm"] = statistics.median_low(
                w["counters"][key] for w in warms)
        # The sample count of both job percentiles.
        counters["studies.jobs"] = len(job_walls)
        if len(job_walls) > 1:
            counters["studies.job_s.p50"] = statistics.median(job_walls)
            counters["studies.job_s.p90"] = statistics.quantiles(
                job_walls, n=10)[8]
        payload = cold["payload"]
        outputs = {
            "fingerprint": payload["fingerprint"],
            "jobs": payload["jobs"],
            "complete": payload["complete"],
            "result": payload.get("result"),
        }
        return Outcome(
            outputs=outputs,
            samples={"cold_pass_s": [c["wall_s"] for c in colds],
                     "warm_pass_s": [w["wall_s"] for w in warms]},
            timings={
                "cold_s": fastest([c["pieces_s"] for c in colds]),
                "study_warm_s": warm_wall,
                "sim_s_per_wall_s": sim_s / warm_wall,
            },
            attempted=self.jobs * (len(colds) + len(warms)),
            failed=failed,
            sim_events=events[0] if registry is not None else None,
            event_wall_s=sum(job_walls),
            counters=counters,
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (Mesh4Faults, Torus64Adaptive, StudyChaos)}
