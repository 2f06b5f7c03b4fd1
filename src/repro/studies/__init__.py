"""Resumable submit → schedule → collect study pipeline (ROADMAP item 2).

Every experiment runner — ``run_monte_carlo``, the generic ``sweep`` and
the canned ``SWEEP_AXES`` rows, the envelope sweep, and the chaos/campaign
studies — compiles its arms into a frozen, fingerprinted :class:`Study` of
content-addressed :class:`Job`\\ s, schedules them with :func:`run_study`
(dedupe against the ``.repro_cache/`` job-result store, serial or
:class:`WorkerPool` execution, an atomic on-disk :class:`StudyLedger`
journal), and collects results in submission order into its historical
result type — so fixed seeds stay byte-identical while any study becomes
idempotent, deduplicated, and resumable after a worker or host kill.

CLI: ``repro study run|status|resume`` (see :mod:`repro.studies.specs`
for the JSON study-spec format) and ``repro cache stats|prune``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "core": ("Job", "Study", "StudyPlan"),
    "ledger": (
        "DONE",
        "FAILED",
        "PENDING",
        "QUARANTINED",
        "RUNNING",
        "JobEntry",
        "LedgerCorruptError",
        "LedgerMismatchError",
        "StudyLedger",
    ),
    "runner": ("StudyInterrupted", "StudyRun", "run_study"),
    "specs": ("load_spec", "plan_from_spec", "validate_spec"),
})
