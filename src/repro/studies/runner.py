"""The study scheduler: dedupe, execute, journal, collect.

``run_study`` is the single submit → schedule → collect engine every
experiment runner now rides (Monte-Carlo, all sweeps, the envelope and
chaos/campaign studies):

1. **Dedupe** — each job's content-addressed key is looked up in the
   :class:`repro.parallel.ResultsCache` job-result store; hits are
   collected without running anything.
2. **Execute** — misses run serially in-process (fully instrumented when
   a metrics registry is attached) or sharded across the existing
   :class:`repro.parallel.WorkerPool` in ``default_chunk_size`` chunks.
   Every fresh result is written to the store and journaled in the
   :class:`repro.studies.ledger.StudyLedger` *immediately*, so a killed
   study loses at most the arms in flight.
3. **Collect** — results are returned keyed by job in submission order;
   the compiler's ``collect`` closure folds them into the experiment's
   native result type, byte-identical to the historical serial runners.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.metrics.registry import WALL_S_BUCKETS
from repro.resilience.retry import RetryPolicy
from repro.studies.core import Job, Study
from repro.studies.ledger import (
    DONE,
    FAILED,
    PENDING,
    QUARANTINED,
    RUNNING,
    StudyLedger,
)


class StudyInterrupted(KeyboardInterrupt):
    """The study stopped early (Ctrl-C or ``max_jobs``); ledger is flushed.

    Subclasses :class:`KeyboardInterrupt` so an interactive interrupt still
    unwinds like one; the partially-populated :class:`StudyRun` rides on
    ``.run`` for callers that want to report progress before exiting.
    """

    def __init__(self, run: "StudyRun") -> None:
        super().__init__(f"study {run.study.name!r} interrupted")
        self.run = run


@dataclass
class StudyRun:
    """Mutable outcome of one ``run_study`` call."""

    study: Study
    #: Collected results by job key (cache hits decoded, fresh raw).
    results: Dict[str, Any] = field(default_factory=dict)
    #: Keys actually computed during *this* call (the resume tests assert
    #: finished jobs never re-enter this list).
    executed: List[str] = field(default_factory=list)
    #: Keys satisfied from the content-addressed store.
    cached: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    #: Poisoned jobs parked by ``on_error="quarantine"`` — the study
    #: finished around them, but they are *not* done (a resume retries
    #: them) and the run never reports ``complete``.
    quarantined: List[str] = field(default_factory=list)
    errors: Dict[str, BaseException] = field(default_factory=dict)
    #: True when ``max_jobs`` stopped the run before every job finished.
    interrupted: bool = False
    #: Crash/timeout/flaky-job retries granted during this run.
    retries: int = 0
    #: Total backoff seconds scheduled for those retries.
    backoff_s: float = 0.0
    #: True when the WorkerPool fell back to inline execution.
    pool_degraded: bool = False
    ledger: Optional[StudyLedger] = None

    @property
    def complete(self) -> bool:
        return (not self.failed and not self.quarantined
                and len(self.results) == len(self.study.jobs))

    def collected(self) -> List[Any]:
        """Per-job results in submission order (requires a complete run)."""
        return [self.results[job.key] for job in self.study.jobs]


def _run_job_chunk(jobs: List[Job]) -> List[Any]:
    """Worker task: run a chunk of jobs in order. Module-level so it
    pickles under ``spawn``; only compact results cross back."""
    return [job.run() for job in jobs]


def run_study(
    study: Study,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    cache=None,
    metrics=None,
    ledger: Optional[StudyLedger] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    max_jobs: Optional[int] = None,
    on_error: str = "raise",
    faults=None,
    retry_policy: Optional[RetryPolicy] = None,
) -> StudyRun:
    """Schedule a compiled study; return the (possibly partial) run.

    Parameters
    ----------
    executor, max_workers, task_timeout:
        Same semantics as the historical runners: ``"serial"`` in-process,
        ``"process"`` via :class:`WorkerPool` with per-chunk timeout and
        retry-once-on-crash.
    cache:
        The content-addressed job-result store. Hits skip arms entirely;
        fresh results are stored under the job key the moment they land.
    metrics:
        Optional registry. Serial arms run fully instrumented; process
        studies record per-chunk wall times, and cache hit/miss/disabled
        gauges are exported either way.
    ledger:
        Optional :class:`StudyLedger`; every status transition is flushed
        atomically, making the study resumable after a kill.
    progress:
        Callback receiving one dict per completed job
        (``{"index", "total", "label", "status", "source", "wall_s",
        "info", "error"}``) — the CLI's streaming per-job lines.
    max_jobs:
        Stop after this many *fresh* executions (cache hits are free) and
        mark the run ``interrupted`` — the deliberate-interrupt hook the
        resume tests and the CI smoke use.
    on_error:
        ``"raise"`` (library default) re-raises the first job error after
        flushing the ledger — matching the historical fail-fast runners.
        ``"continue"`` marks the job ``failed`` and keeps going, so one
        bad arm cannot sink a multi-hour study. ``"quarantine"`` parks a
        job that failed every allowed attempt as ``quarantined`` in the
        ledger (error attached) and keeps going — the study completes
        with a partial verdict; the run never reports ``complete``, and
        a resume retries quarantined jobs.
    faults:
        Optional :class:`repro.resilience.FaultInjector`; attached to
        the cache, ledger, and pool for the duration of the run (pass
        ``None`` to guarantee a clean run on shared objects).
    retry_policy:
        Optional :class:`repro.resilience.RetryPolicy` governing both
        the WorkerPool (crash/timeout retries, default retry-once) and
        the serial executor (task-exception retries for flaky/injected
        failures; historical default: one attempt, no retry).
    """
    if executor not in ("serial", "process"):
        raise ValueError(f"unknown executor {executor!r}")
    if on_error not in ("raise", "continue", "quarantine"):
        raise ValueError(f"unknown on_error {on_error!r}")
    run = StudyRun(study=study, ledger=ledger)
    if cache is not None:
        attach = getattr(cache, "attach_faults", None)
        if attach is not None:
            attach(faults)
    if ledger is not None:
        ledger.attach_faults(faults)
    if cache is not None and metrics is not None:
        attach = getattr(cache, "attach_metrics", None)
        if attach is not None:
            attach(metrics)
    total = len(study.jobs)
    emitted = 0

    def emit(job: Job, status: str, source: str, wall_s=None,
             info=None, error=None) -> None:
        nonlocal emitted
        emitted += 1
        if progress is not None:
            progress({
                "index": emitted, "total": total, "key": job.key,
                "label": job.label, "kind": job.kind, "status": status,
                "source": source, "wall_s": wall_s, "info": info,
                "error": error,
            })

    def record_done(job: Job, result: Any, source: str, wall_s=None) -> None:
        run.results[job.key] = result
        info = study.summarize(result) if study.summarize else None
        if ledger is not None:
            ledger.mark(job.key, DONE, source=source, wall_s=wall_s,
                        info=info)
        emit(job, DONE, source, wall_s=wall_s, info=info)

    # ------------------------------------------------------------------
    # Dedupe: satisfy what the job-result store already holds.
    # ------------------------------------------------------------------
    to_run: List[Job] = []
    for job in study.jobs:
        payload = cache.get(job.key) if cache is not None else None
        if payload is not None:
            run.cached.append(job.key)
            record_done(job, study.decode(payload), "cache")
        else:
            to_run.append(job)

    if max_jobs is not None and len(to_run) > max_jobs:
        to_run = to_run[:max_jobs]
        run.interrupted = True

    def store(job: Job, result: Any) -> None:
        run.results[job.key] = result
        run.executed.append(job.key)
        if cache is not None:
            cache.put(job.key, study.encode(result))

    # ------------------------------------------------------------------
    # Execute the remainder.
    # ------------------------------------------------------------------
    try:
        if to_run and executor == "process":
            _run_process(study, to_run, run, max_workers, task_timeout,
                         metrics, ledger, store, record_done, emit, on_error,
                         faults, retry_policy)
        elif to_run:
            _run_serial(study, to_run, run, metrics, ledger, store,
                        record_done, emit, on_error, faults, retry_policy)
    except KeyboardInterrupt:
        run.interrupted = True
        _finalize(run, cache, metrics, ledger)
        raise StudyInterrupted(run) from None

    _finalize(run, cache, metrics, ledger)
    return run


_NOT_DONE = object()  # sentinel: a job may legitimately return None


def _run_serial(study, to_run, run, metrics, ledger, store, record_done,
                emit, on_error, faults, retry_policy) -> None:
    arm_hist = None
    if metrics is not None:
        arm_hist = metrics.histogram(
            f"{study.metrics_prefix}.arm_seconds", edges=WALL_S_BUCKETS
        )
    policy = retry_policy or RetryPolicy(max_attempts=1)
    for position, job in enumerate(to_run):
        if ledger is not None:
            ledger.mark(job.key, RUNNING)
        arm_start = time.perf_counter()
        result = _NOT_DONE
        attempt = 0
        while result is _NOT_DONE:
            try:
                if faults is not None:
                    faults.pre_op("job.fn")
                result = job.run(metrics=metrics)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                attempt += 1
                if attempt < policy.max_attempts:
                    # A flaky (or injected-probabilistic) failure may
                    # heal on retry; a deterministic job reproduces the
                    # same bytes, so retrying never changes science.
                    delay = policy.delay_s(position, attempt)
                    run.retries += 1
                    run.backoff_s += delay
                    if delay > 0:
                        time.sleep(delay)
                    if ledger is not None:
                        ledger.mark(job.key, RUNNING)  # counts the attempt
                    continue
                _record_failure(run, job, exc, ledger, emit,
                                quarantine=(on_error == "quarantine"))
                if on_error == "raise":
                    raise
                break
        if result is _NOT_DONE:
            continue  # failed/quarantined; already recorded
        wall = time.perf_counter() - arm_start
        if arm_hist is not None:
            arm_hist.observe(wall)
        store(job, result)
        record_done(job, result, "executed", wall_s=wall)


def _run_process(study, to_run, run, max_workers, task_timeout, metrics,
                 ledger, store, record_done, emit, on_error, faults,
                 retry_policy) -> None:
    from repro.parallel import TaskSpec, WorkerPool, default_chunk_size

    workers = max_workers or WorkerPool().max_workers
    chunk = default_chunk_size(len(to_run), workers)
    chunks: List[List[Job]] = [
        to_run[i:i + chunk] for i in range(0, len(to_run), chunk)
    ]
    pool = WorkerPool(max_workers=workers, task_timeout=task_timeout,
                      retry_policy=retry_policy)
    pool.attach_faults(faults)
    if ledger is not None:
        ledger.mark_many([j.key for c in chunks for j in c], RUNNING)

    def on_chunk_done(index: int, results: List[Any]) -> None:
        # Parent-side, invoked the moment a chunk lands: persist and
        # journal immediately so a later kill loses only in-flight arms.
        for job, result in zip(chunks[index], results):
            store(job, result)
            record_done(job, result, "executed")

    _, errors = pool.map_partial(
        [TaskSpec(fn=_run_job_chunk, args=(c,)) for c in chunks],
        on_result=on_chunk_done,
    )
    run.retries += pool.retry_count
    run.backoff_s += pool.backoff_total_s
    run.pool_degraded = run.pool_degraded or pool.degraded
    if metrics is not None:
        chunk_hist = metrics.histogram(
            f"{study.metrics_prefix}.chunk_seconds", edges=WALL_S_BUCKETS
        )
        for seconds in pool.task_seconds:
            chunk_hist.observe(seconds)
    if errors:
        for index in sorted(errors):
            for job in chunks[index]:
                if job.key not in run.results:
                    _record_failure(run, job, errors[index], ledger, emit,
                                    quarantine=(on_error == "quarantine"))
        if on_error == "raise":
            raise errors[min(errors)]


def _record_failure(run, job, exc, ledger, emit, quarantine=False) -> None:
    message = f"{type(exc).__name__}: {exc}"
    status = QUARANTINED if quarantine else FAILED
    (run.quarantined if quarantine else run.failed).append(job.key)
    run.errors[job.key] = exc
    if ledger is not None:
        ledger.mark(job.key, status, error=message)
    emit(job, status, "executed", error=message)


def _finalize(run: StudyRun, cache, metrics, ledger) -> None:
    """Export cache gauges, persist store stats, flush the ledger."""
    if metrics is not None and cache is not None:
        lookups = cache.hits + cache.misses
        metrics.gauge("cache.hits").set(cache.hits)
        metrics.gauge("cache.misses").set(cache.misses)
        metrics.gauge("cache.hit_rate").set(
            cache.hits / lookups if lookups else 0.0
        )
        metrics.gauge("cache.disabled").set(int(cache.disabled))
    if metrics is not None:
        # Run-level resilience counters (the cache's own
        # ``cache.quarantined`` counter increments live in get()).
        if run.retries:
            metrics.counter("pool.retries").inc(run.retries)
        metrics.gauge("pool.backoff_seconds").set(run.backoff_s)
        metrics.gauge("pool.degraded").set(int(run.pool_degraded))
        if run.quarantined:
            metrics.counter("study.jobs_quarantined").inc(
                len(run.quarantined)
            )
    if cache is not None:
        write_stats = getattr(cache, "write_stats", None)
        if write_stats is not None:
            write_stats()
    if ledger is not None:
        ledger.stats = {
            "executed": len(run.executed),
            "cached": len(run.cached),
            "failed": len(run.failed),
            "quarantined": len(run.quarantined),
            "retries": run.retries,
            "backoff_s": run.backoff_s,
            "pool_degraded": run.pool_degraded,
            "interrupted": run.interrupted,
            "cache_disabled": bool(cache is not None and cache.disabled),
            "cache_quarantined": int(
                getattr(cache, "quarantined", 0) if cache is not None else 0
            ),
        }
        ledger.save()
