"""A spawn-safe multiprocessing worker pool with ordered result collection.

Design constraints, in order of importance:

1. **Determinism** — :meth:`WorkerPool.map` returns results in *submission
   order*, never completion order, so a parallel study is bit-identical to
   its serial counterpart.
2. **Robustness** — every task runs in its own worker process with a
   per-task timeout; a wedged or crashed worker is terminated and the task
   retried on a fresh process under a configurable
   :class:`repro.resilience.RetryPolicy` (default: retry once, no
   backoff; exponential backoff with deterministic seeded jitter
   opt-in), so one bad arm cannot hang a 1000-seed study. Repeated
   worker-spawn failures (fd/pid exhaustion) degrade the pool to inline
   in-parent execution instead of failing the study. Deterministic
   Python exceptions raised *by the task function* are not retried
   (re-running deterministic code reproduces the same error) and surface
   as :class:`TaskFailedError` with the child traceback attached.
3. **Spawn safety** — task functions and arguments must be picklable
   (module-level functions, dataclass configs). The pool defaults to the
   ``spawn`` start method, which works identically on Linux/macOS/Windows
   and guarantees children never inherit half-built simulator state; pass
   ``start_method="fork"`` to trade that safety for faster startup on
   POSIX.

The implementation deliberately avoids :mod:`concurrent.futures`: a
``ProcessPoolExecutor`` turns any worker crash into a ``BrokenProcessPool``
that poisons every outstanding future, which is exactly the failure mode a
long fault-injection campaign cannot afford.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
import warnings
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.resilience.retry import RetryPolicy


class TaskFailedError(RuntimeError):
    """The task function raised; the child traceback is in ``args[0]``."""


class TaskTimeoutError(RuntimeError):
    """A task exceeded its timeout on every allowed attempt."""


class TaskCrashError(RuntimeError):
    """A worker process died without reporting a result on every attempt."""


@dataclass(frozen=True)
class TaskSpec:
    """One picklable unit of work: ``fn(*args, **kwargs)``.

    ``fn`` must be importable from the child process (a module-level
    function), which is what makes the spec spawn-safe.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def run(self) -> Any:
        """Execute in-process (the serial executor and the child both use this)."""
        return self.fn(*self.args, **self.kwargs)


def default_chunk_size(n_tasks: int, workers: int, oversubscribe: int = 4) -> int:
    """The ISSUE's chunking heuristic: ``~n_tasks / (oversubscribe * workers)``.

    Oversubscribing each worker by ~4 chunks keeps the pool busy when arms
    have uneven runtimes (a chunk that finishes early frees its worker for
    the next one) while amortizing process startup over several tasks.

    >>> default_chunk_size(32, 4)
    2
    >>> default_chunk_size(5, 8)
    1
    """
    if n_tasks <= 0:
        return 1
    workers = max(1, workers)
    return max(1, n_tasks // (oversubscribe * workers))


def _child_main(conn: Connection, fn: Callable[..., Any],
                args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> None:
    """Worker entry point: run the task, ship ``(ok, payload)`` back."""
    try:
        value = fn(*args, **kwargs)
        payload: Tuple[bool, Any] = (True, value)
    except BaseException:
        payload = (False, traceback.format_exc())
    try:
        conn.send(payload)
    finally:
        conn.close()


def _child_fault(mode: str, hang_s: float, fn: Callable[..., Any],
                 args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
    """Child-side ``worker.exec`` fault shim (module-level: must pickle
    under ``spawn``). ``crash`` hard-kills the worker before it can
    report; ``hang`` wedges it past the watchdog. The original spec is
    untouched, so a retry launches the real function."""
    if mode == "crash":
        os._exit(43)
    if mode == "hang":
        time.sleep(hang_s)
    return fn(*args, **kwargs)


@dataclass
class _Running:
    """Bookkeeping for one in-flight attempt."""

    index: int
    spec: TaskSpec
    attempt: int
    process: multiprocessing.process.BaseProcess
    conn: Connection
    deadline: Optional[float]
    started: float


class WorkerPool:
    """Run picklable tasks across worker processes, results in task order.

    Parameters
    ----------
    max_workers:
        Concurrent worker processes; defaults to ``os.cpu_count()``.
    task_timeout:
        Wall-clock seconds one attempt may take before its worker is
        terminated; ``None`` disables the watchdog.
    retry_policy:
        A :class:`repro.resilience.RetryPolicy` — total attempts after a
        crash or timeout plus exponential backoff with deterministic
        seeded jitter. Default: ``RetryPolicy()`` (retry once, no
        backoff). Task-function exceptions never retry.
    spawn_failure_limit:
        After this many consecutive ``Process.start()`` failures
        (fork/spawn ``OSError``: fd or pid exhaustion, low memory) the
        pool *degrades* to running the remaining tasks inline in the
        parent — slower, but the study finishes.
    start_method:
        ``"spawn"`` (default, portable and state-clean) or ``"fork"``.

    Example (not a doctest: spawn re-imports this module by package name,
    which the doctest runner's bare-module loading breaks)::

        pool = WorkerPool(max_workers=2)
        pool.map([TaskSpec(fn=abs, args=(-n,)) for n in range(4)])
        # -> [0, 1, 2, 3]
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        spawn_failure_limit: int = 3,
        start_method: str = "spawn",
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if spawn_failure_limit < 1:
            raise ValueError(
                f"spawn_failure_limit must be >= 1, got {spawn_failure_limit}"
            )
        self.max_workers = max_workers or os.cpu_count() or 1
        self.task_timeout = task_timeout
        self.retry_policy = retry_policy or RetryPolicy()
        self.spawn_failure_limit = spawn_failure_limit
        #: Wall-clock seconds of every *successful* attempt, in completion
        #: order, accumulated across :meth:`map` calls — the per-arm timing
        #: the metrics layer exports (launch overhead included, so it
        #: reflects what the study actually paid per arm).
        self.task_seconds: List[float] = []
        #: Crash/timeout retries granted so far (``pool.retries`` metric).
        self.retry_count = 0
        #: Total backoff seconds scheduled (``pool.backoff_seconds``).
        self.backoff_total_s = 0.0
        #: Consecutive worker-spawn failures seen so far.
        self.spawn_failures = 0
        #: True once the pool fell back to inline (in-parent) execution.
        self.degraded = False
        #: Parent-side success callback for the current map_partial call.
        self._on_result: Optional[Callable[[int, Any], None]] = None
        self._faults = None
        self._ctx = multiprocessing.get_context(start_method)

    def attach_faults(self, injector) -> None:
        """Attach (or with ``None``, detach) a ``worker.exec`` fault
        injector; a single ``is not None`` check per launch otherwise."""
        self._faults = injector

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def map(self, tasks: Sequence[TaskSpec]) -> List[Any]:
        """Run every task; return values ordered by task position.

        Raises the per-task error (:class:`TaskFailedError`,
        :class:`TaskTimeoutError`, :class:`TaskCrashError`) of the
        lowest-indexed task that exhausted its attempts.
        """
        results, errors = self.map_partial(tasks)
        if errors:
            raise errors[min(errors)]
        return results

    def map_partial(
        self,
        tasks: Sequence[TaskSpec],
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> Tuple[List[Any], Dict[int, BaseException]]:
        """Run every task; never raise on task failure.

        Returns ``(results, errors)``: ``results`` ordered by task
        position (``None`` where the task failed), ``errors`` mapping
        failed task indexes to their exhausted-attempt exception. This is
        what lets a resumable study mark one bad arm ``failed`` and keep
        the rest — :meth:`map`'s all-or-nothing raise is a wrapper.

        ``on_result`` (parent-side) is invoked as ``on_result(index,
        value)`` the moment a task succeeds, in *completion* order — the
        hook the study scheduler uses to persist and journal results
        incrementally so a killed run loses only in-flight tasks.
        """
        tasks = list(tasks)
        if not tasks:
            return [], {}
        results: List[Any] = [None] * len(tasks)
        errors: Dict[int, BaseException] = {}
        # (index, spec, attempt, ready_at) queue; retries re-enter at the
        # back carrying their backoff deadline.
        pending: List[Tuple[int, TaskSpec, int, float]] = [
            (i, spec, 0, 0.0) for i, spec in enumerate(tasks)
        ]
        running: List[_Running] = []
        self._on_result = on_result
        try:
            while pending or running:
                now = time.monotonic()
                i = 0
                while i < len(pending) and len(running) < self.max_workers:
                    if pending[i][3] <= now:
                        index, spec, attempt, _ = pending.pop(i)
                        slot = self._launch(index, spec, attempt, pending,
                                            results, errors)
                        if slot is not None:
                            running.append(slot)
                        now = time.monotonic()
                    else:
                        i += 1
                if running:
                    self._collect(running, pending, results, errors)
                elif pending:
                    # Everything queued is waiting out a backoff window.
                    wake = min(entry[3] for entry in pending)
                    time.sleep(max(0.0, wake - time.monotonic()))
        finally:
            self._on_result = None
            for slot in running:  # only non-empty if an error is propagating
                self._terminate(slot)
        return results, errors

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _launch(
        self,
        index: int,
        spec: TaskSpec,
        attempt: int,
        pending: List[Tuple[int, TaskSpec, int, float]],
        results: List[Any],
        errors: Dict[int, BaseException],
    ) -> Optional[_Running]:
        """Start one worker attempt; ``None`` when nothing is in flight
        (spawn failed and the task was re-enqueued, or the pool is
        degraded and the task already ran inline)."""
        fault = None
        if self._faults is not None:
            fault = self._faults.decide("worker.exec")
        if self.degraded:
            self._run_inline(index, spec, results, errors)
            return None
        fn, args, kwargs = spec.fn, spec.args, spec.kwargs
        if fault is not None and fault.mode in ("crash", "hang"):
            # Wrap (never mutate) the spec: the retry relaunches the
            # real function and the injector re-decides.
            fn, args = _child_fault, (
                fault.mode, fault.hang_s, spec.fn, spec.args, spec.kwargs
            )
            kwargs = {}
        parent_conn = None
        try:
            if fault is not None and fault.mode in ("oserror", "enospc"):
                raise OSError(
                    f"injected spawn failure ({fault.mode}) at worker.exec"
                )
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_child_main,
                args=(child_conn, fn, args, kwargs),
                daemon=True,
            )
            process.start()
        except OSError as exc:
            # fork/spawn failure: fd or pid exhaustion, low memory, or an
            # injected fault. The task never ran, so this is not a task
            # attempt — re-enqueue as-is and count the failure.
            if parent_conn is not None:
                parent_conn.close()
                child_conn.close()
            self.spawn_failures += 1
            if (not self.degraded
                    and self.spawn_failures >= self.spawn_failure_limit):
                self.degraded = True
                warnings.warn(
                    f"worker spawn failed {self.spawn_failures} times in a "
                    f"row ({exc}); pool degrading to inline serial "
                    "execution",
                    RuntimeWarning,
                    stacklevel=3,
                )
            pending.append((index, spec, attempt, time.monotonic()))
            return None
        self.spawn_failures = 0  # the limit counts *consecutive* failures
        child_conn.close()  # parent keeps only the receive end
        started = time.monotonic()
        deadline = started + self.task_timeout if self.task_timeout is not None else None
        return _Running(index, spec, attempt, process, parent_conn, deadline, started)

    def _run_inline(
        self,
        index: int,
        spec: TaskSpec,
        results: List[Any],
        errors: Dict[int, BaseException],
    ) -> None:
        """Degraded mode: run the task in the parent process. No
        watchdog, no crash isolation — but the study finishes."""
        started = time.monotonic()
        try:
            value = spec.run()
        except Exception:
            errors[index] = TaskFailedError(
                f"task {index} raised inline (degraded pool):\n"
                f"{traceback.format_exc()}"
            )
            return
        results[index] = value
        errors.pop(index, None)
        self.task_seconds.append(time.monotonic() - started)
        if self._on_result is not None:
            self._on_result(index, value)

    def _collect(
        self,
        running: List[_Running],
        pending: List[Tuple[int, TaskSpec, int, float]],
        results: List[Any],
        errors: Dict[int, BaseException],
    ) -> None:
        """Reap one round of finished / wedged / crashed attempts."""
        if not running:
            return
        poll = 0.25
        if self.task_timeout is not None:
            now = time.monotonic()
            nearest = min(s.deadline for s in running if s.deadline is not None)
            poll = max(0.0, min(poll, nearest - now))
        ready = connection_wait([slot.conn for slot in running], timeout=poll)
        ready_set = set(ready)
        now = time.monotonic()
        still_running: List[_Running] = []
        for slot in running:
            if slot.conn in ready_set:
                self._finish(slot, pending, results, errors)
            elif slot.deadline is not None and now >= slot.deadline:
                self._terminate(slot)
                self._retry_or_fail(
                    slot, pending, errors,
                    TaskTimeoutError(
                        f"task {slot.index} exceeded {self.task_timeout}s "
                        f"on attempt {slot.attempt + 1}"
                    ),
                )
            else:
                still_running.append(slot)
        running[:] = still_running

    def _finish(
        self,
        slot: _Running,
        pending: List[Tuple[int, TaskSpec, int, float]],
        results: List[Any],
        errors: Dict[int, BaseException],
    ) -> None:
        try:
            ok, payload = slot.conn.recv()
        except (EOFError, OSError):
            # Pipe closed with nothing in it: the worker died (OOM-kill,
            # segfault, signal) before reporting. This is the crash case.
            self._terminate(slot)
            self._retry_or_fail(
                slot, pending, errors,
                TaskCrashError(
                    f"worker for task {slot.index} died without a result "
                    f"on attempt {slot.attempt + 1}"
                ),
            )
            return
        slot.conn.close()
        slot.process.join()
        if ok:
            results[slot.index] = payload
            errors.pop(slot.index, None)
            self.task_seconds.append(time.monotonic() - slot.started)
            if self._on_result is not None:
                self._on_result(slot.index, payload)
        else:
            # Deterministic task exception: no retry, keep the child traceback.
            errors[slot.index] = TaskFailedError(
                f"task {slot.index} raised in worker:\n{payload}"
            )

    def _retry_or_fail(
        self,
        slot: _Running,
        pending: List[Tuple[int, TaskSpec, int, float]],
        errors: Dict[int, BaseException],
        error: BaseException,
    ) -> None:
        attempts_done = slot.attempt + 1
        if attempts_done < self.retry_policy.max_attempts:
            delay = self.retry_policy.delay_s(slot.index, attempts_done)
            self.retry_count += 1
            self.backoff_total_s += delay
            pending.append((slot.index, slot.spec, slot.attempt + 1,
                            time.monotonic() + delay))
        else:
            errors[slot.index] = error

    @staticmethod
    def _terminate(slot: _Running) -> None:
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join()
        slot.conn.close()
