"""Deterministic infra fault injection + the self-healing it proves out.

The chaos layer (PR 5) and adversary campaigns (PR 6) attack the
*simulated* protocol; this package applies the same discipline to the
experiment harness itself. A seeded, JSON-round-trippable
:class:`FaultPlan` injects crashes, hangs, ``OSError``/ENOSPC, torn
writes, and bit flips at six named seams (``cache.get``, ``cache.put``,
``ledger.flush``, ``ledger.load``, ``worker.exec``, ``job.fn``) via thin
hooks in :class:`repro.parallel.ResultsCache`,
:class:`repro.studies.StudyLedger`, :class:`repro.parallel.WorkerPool`,
and :func:`repro.studies.run_study` — zero-overhead no-ops when no plan
is active.

The healing half: checksummed cache entries with verify-on-read and a
quarantine directory, :class:`RetryPolicy` (exponential backoff,
deterministic seeded jitter), poisoned-job quarantine
(``on_error="quarantine"``), pool→serial degradation after repeated
spawn failures, and ledger salvage (``study resume --salvage``, in
:mod:`repro.resilience.salvage`, which this package does not
re-export).

The acceptance bar (``tests/test_resilience_acceptance.py``): under
randomized fault campaigns, any study that reports success must be
byte-identical to a fault-free run. Healing never changes science.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "faultplan": (
        "FAULT_PLAN_SCHEMA_VERSION",
        "MODES",
        "SEAMS",
        "FaultPlan",
        "FaultPoint",
        "dump_fault_plan",
        "load_fault_plan",
        "random_fault_campaign",
    ),
    "injector": ("FaultInjector", "InjectedCrash", "InjectedJobError"),
    "retry": ("RetryPolicy",),
})
