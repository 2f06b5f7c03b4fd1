"""Study core: frozen, fingerprinted sets of idempotent jobs.

A :class:`Job` is one schedulable unit of work — a module-level function
plus its arguments, identified by a *content-addressed key* (the same
SHA-256 configuration fingerprint the results cache uses). A
:class:`Study` is a frozen, ordered set of jobs compiled by an experiment
runner (Monte-Carlo seeds, sweep arms, envelope arms, chaos runs), with
the parent-side codecs needed to round-trip each job's result through the
``.repro_cache/`` job-result store.

The split is the submit → schedule → collect pipeline from ROADMAP item 2:

* **submit** — an experiment *compiles* its arms into a ``Study``, one
  compiler per study kind (``compile_monte_carlo``, ``compile_sweep`` and
  ``compile_axis``, ``compile_envelope``, ``compile_chaos_study``), which
  the library entry points, the CLI and study specs all call;
* **schedule** — :func:`repro.studies.runner.run_study` dedupes against
  the content-addressed store and runs the remainder on the existing
  :class:`repro.parallel.WorkerPool`, journaling progress in a
  :class:`repro.studies.ledger.StudyLedger` so a killed study resumes by
  re-submitting only unfinished jobs;
* **collect** — the compiler's ``collect`` closure folds per-job results
  (in submission order, so parallel == serial byte-for-byte) back into
  the experiment's existing result type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.parallel import config_fingerprint

#: Bump when Job/Study identity semantics change; enters study fingerprints.
STUDY_SCHEMA_VERSION = 1


def _identity(value: Any) -> Any:
    """Default codec: the result already is its stored JSON form."""
    return value


@dataclass(frozen=True)
class Job:
    """One idempotent, deduplicated unit of work.

    ``fn`` must be a module-level (picklable) function so the job survives
    the ``spawn`` start method; ``key`` is the content-addressed identity
    of the job's *result* — two jobs with equal keys are interchangeable,
    which is what makes studies deduplicated and resumable.
    """

    #: Content-addressed result key (a ``config_fingerprint`` digest).
    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Human-readable arm label (``seed=42``, ``loss_rate=0.2``).
    label: str = ""
    #: Job family (``montecarlo`` / ``sweep`` / ``envelope`` / ``chaos``).
    kind: str = "job"
    seed: Optional[int] = None
    #: Whether ``fn`` accepts a ``metrics=`` keyword; the serial executor
    #: passes the study registry through so arms run fully instrumented.
    accepts_metrics: bool = False

    def run(self, metrics=None) -> Any:
        """Execute in-process (serial executor and worker chunks both)."""
        if metrics is not None and self.accepts_metrics:
            return self.fn(*self.args, metrics=metrics, **self.kwargs)
        return self.fn(*self.args, **self.kwargs)


@dataclass(frozen=True)
class Study:
    """A frozen, fingerprinted set of jobs plus parent-side result codecs.

    ``encode``/``decode`` round-trip one job result through the JSON
    job-result store (identity by default, for results that already are
    plain JSON values); ``summarize`` extracts the compact per-job info
    dict (verdict, headline figure) the ledger journals and progress lines
    show. Codecs never cross the process boundary — only :class:`Job` does.
    """

    name: str
    jobs: Tuple[Job, ...]
    encode: Callable[[Any], Any] = _identity
    decode: Callable[[Any], Any] = _identity
    summarize: Optional[Callable[[Any], Dict[str, Any]]] = None
    #: Prefix for the scheduler's timing instruments; preserves historical
    #: names (``montecarlo.arm_seconds``, ``sweep.chunk_seconds``).
    metrics_prefix: str = "study"

    def fingerprint(self) -> str:
        """Identity of the whole study: ordered job keys + name."""
        return config_fingerprint(
            "study", STUDY_SCHEMA_VERSION, self.name,
            tuple(job.key for job in self.jobs),
        )


@dataclass
class StudyPlan:
    """A compiled study and its collector.

    ``collect`` folds a finished :class:`repro.studies.runner.StudyRun`
    back into the experiment's native result type (``MonteCarloResult``,
    ``List[SweepRow]``, ...); it requires a *complete* run.
    """

    study: Study
    collect: Callable[..., Any]
