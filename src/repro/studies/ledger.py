"""The study ledger: on-disk per-job status journal for resumable studies.

One JSON document per study run (atomic tmp + rename on every flush, like
the results cache) recording the study identity, the original study spec
(so ``repro study resume`` can recompile the exact same job set), and one
entry per job: status (``pending`` / ``running`` / ``done`` / ``failed``),
attempt count, wall seconds, the compact result summary (verdict and
headline figures), and the job's content-addressed result key — which *is*
the manifest ref into the ``.repro_cache/`` job-result store.

Resume semantics: the ledger never stores results, only refs. A killed
study leaves ``done`` jobs in the cache under their keys; resuming
recompiles the study (fingerprints must match), re-reads finished jobs
from the store, and re-submits only unfinished ones. Jobs stuck in
``running`` (the worker died mid-arm) simply miss the cache and re-run.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional

from repro.studies.core import Study

LEDGER_SCHEMA_VERSION = 1

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
#: A poisoned job: failed on every allowed attempt and parked with its
#: error so the study can finish with a partial verdict. A resume
#: re-submits quarantined jobs (they are "unfinished").
QUARANTINED = "quarantined"

_STATUSES = (PENDING, RUNNING, DONE, FAILED, QUARANTINED)


@dataclass
class JobEntry:
    """Ledger line for one job."""

    key: str
    label: str = ""
    kind: str = "job"
    seed: Optional[int] = None
    status: str = PENDING
    attempts: int = 0
    wall_s: Optional[float] = None
    #: Where the result came from: ``executed`` / ``cache`` / ``resume``.
    source: Optional[str] = None
    #: Compact result summary (``Study.summarize``): verdict, figures.
    info: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


_ENTRY_FIELDS = tuple(f.name for f in fields(JobEntry))


def _entry_doc(entry: JobEntry) -> Dict[str, Any]:
    """``dataclasses.asdict(entry)`` without its per-field deep copy.

    Every field is a scalar except ``info``, a flat dict of scalars
    (``Study.summarize``), which gets a new dict as ``asdict`` gives it;
    the document has the same keys, order and values, so the journal
    keeps its bytes.
    """
    doc = {name: getattr(entry, name) for name in _ENTRY_FIELDS}
    if entry.info is not None:
        doc["info"] = dict(entry.info)
    return doc


class LedgerMismatchError(RuntimeError):
    """The ledger belongs to a different (or drifted) study."""


class LedgerCorruptError(RuntimeError):
    """The ledger file on disk is torn or corrupt (interrupted flush,
    bit rot). The embedded spec usually survives — recover with
    ``repro-sim study resume LEDGER --salvage``."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(
            f"ledger {path!r} is corrupt ({reason}); finished jobs are "
            "still in the result store — rebuild the journal with "
            f"`study resume {path} --salvage`"
        )
        self.path = path
        self.reason = reason


class StudyLedger:
    """Ordered job journal with atomic persistence.

    ``path=None`` keeps the ledger purely in memory (library callers that
    only want bookkeeping); ``save()`` is then a no-op.
    """

    def __init__(
        self,
        path: Optional[str],
        study_name: str,
        fingerprint: str,
        spec: Optional[Dict[str, Any]] = None,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.path = path
        self.study_name = study_name
        self.fingerprint = fingerprint
        self.spec = spec
        self.cache_dir = cache_dir
        self.created_at = time.time()
        self.updated_at = self.created_at
        self.entries: Dict[str, JobEntry] = {}
        self.order: List[str] = []
        self.stats: Dict[str, Any] = {}
        self._faults = None

    def attach_faults(self, injector) -> None:
        """Attach (or with ``None``, detach) a fault injector; the hook in
        :meth:`save` is a single ``is not None`` check when detached."""
        self._faults = injector

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_study(
        cls,
        study: Study,
        path: Optional[str] = None,
        spec: Optional[Dict[str, Any]] = None,
        cache_dir: Optional[str] = None,
    ) -> "StudyLedger":
        """A fresh all-pending ledger for ``study``.

        If ``path`` already holds a ledger for the *same* study
        fingerprint, its entries are adopted instead (so ``study run``
        pointed at an existing ledger continues rather than restarts);
        a ledger for a different study raises :class:`LedgerMismatchError`.
        """
        if path is not None and os.path.exists(path):
            ledger = cls.load(path)
            if ledger.fingerprint != study.fingerprint():
                raise LedgerMismatchError(
                    f"ledger {path!r} records study "
                    f"{ledger.fingerprint[:12]} but the compiled study is "
                    f"{study.fingerprint()[:12]}; delete the ledger or fix "
                    "the spec"
                )
            if spec is not None:
                ledger.spec = spec
            if cache_dir is not None:
                ledger.cache_dir = cache_dir
            return ledger
        ledger = cls(path, study.name, study.fingerprint(), spec=spec,
                     cache_dir=cache_dir)
        for job in study.jobs:
            ledger.entries[job.key] = JobEntry(
                key=job.key, label=job.label, kind=job.kind, seed=job.seed
            )
            ledger.order.append(job.key)
        return ledger

    @classmethod
    def load(cls, path: str, faults=None) -> "StudyLedger":
        """Parse the on-disk journal.

        A torn or corrupt file raises :class:`LedgerCorruptError` (naming
        the salvage command) instead of leaking a raw
        ``JSONDecodeError``; a missing file still raises
        ``FileNotFoundError``. ``faults`` optionally injects
        ``ledger.load`` faults before the read.
        """
        if faults is not None:
            point = faults.pre_op("ledger.load")
            if point is not None:
                faults.corrupt(point, path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise
        except (ValueError, UnicodeDecodeError, OSError) as exc:
            raise LedgerCorruptError(path, f"unreadable: {exc}") from exc
        if not isinstance(doc, dict):
            raise LedgerCorruptError(path, "not a JSON object")
        version = doc.get("schema_version")
        if version != LEDGER_SCHEMA_VERSION:
            raise LedgerMismatchError(
                f"ledger {path!r} has schema {version!r}, expected "
                f"{LEDGER_SCHEMA_VERSION}"
            )
        try:
            ledger = cls(
                path,
                doc["study"],
                doc["fingerprint"],
                spec=doc.get("spec"),
                cache_dir=doc.get("cache_dir"),
            )
            ledger.created_at = doc.get("created_at", ledger.created_at)
            ledger.updated_at = doc.get("updated_at", ledger.updated_at)
            ledger.stats = dict(doc.get("stats", {}))
            for key in doc.get("order", []):
                entry_doc = doc["jobs"][key]
                ledger.entries[key] = JobEntry(**entry_doc)
                ledger.order.append(key)
        except (KeyError, TypeError) as exc:
            raise LedgerCorruptError(
                path, f"missing or malformed field: {exc}"
            ) from exc
        return ledger

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def mark(self, key: str, status: str, save: bool = True, **fields: Any) -> None:
        """Transition one job and (by default) flush the journal."""
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        entry = self.entries[key]
        entry.status = status
        if status == RUNNING:
            entry.attempts += 1
        for name, value in fields.items():
            setattr(entry, name, value)
        if save:
            self.save()

    def mark_many(self, keys: List[str], status: str, **fields: Any) -> None:
        """Transition a batch (one flush), e.g. a dispatched worker chunk."""
        for key in keys:
            self.mark(key, status, save=False, **fields)
        self.save()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in _STATUSES}
        for entry in self.entries.values():
            counts[entry.status] = counts.get(entry.status, 0) + 1
        return counts

    def unfinished(self) -> List[str]:
        """Keys not ``done`` — what a resume re-submits."""
        return [key for key in self.order
                if self.entries[key].status != DONE]

    @property
    def complete(self) -> bool:
        return all(e.status == DONE for e in self.entries.values())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "study": self.study_name,
            "fingerprint": self.fingerprint,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "cache_dir": self.cache_dir,
            "spec": self.spec,
            "stats": dict(self.stats),
            "order": list(self.order),
            "jobs": {key: _entry_doc(self.entries[key]) for key in self.order},
        }

    def save(self) -> None:
        """Atomic flush (tmp + rename); in-memory ledgers are a no-op."""
        if self.path is None:
            return
        fault_point = None
        if self._faults is not None:
            fault_point = self._faults.pre_op("ledger.flush")
        self.updated_at = time.time()
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self.to_dict(), fh, indent=1)
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        if fault_point is not None:
            self._faults.corrupt(fault_point, self.path)

    def describe(self) -> str:
        """Status block for ``repro study status``."""
        counts = self.counts()
        lines = [
            f"study {self.study_name!r} ({self.fingerprint[:12]}), "
            f"{len(self.order)} jobs: "
            + " ".join(f"{s}={counts[s]}" for s in _STATUSES if counts[s]),
        ]
        resilience = {
            k: self.stats[k]
            for k in ("retries", "backoff_s", "quarantined",
                      "cache_quarantined", "pool_degraded")
            if self.stats.get(k)
        }
        if resilience:
            lines.append(
                "  last run: "
                + " ".join(f"{k}={v}" for k, v in resilience.items())
            )
        for key in self.order:
            entry = self.entries[key]
            info = entry.info or {}
            verdict = info.get("verdict")
            detail = f" verdict={verdict}" if verdict else ""
            wall = f" {entry.wall_s:.1f}s" if entry.wall_s is not None else ""
            src = f" ({entry.source})" if entry.source else ""
            err = f" error={entry.error.splitlines()[-1]}" if entry.error else ""
            lines.append(
                f"  [{entry.status:>7}] {entry.label or entry.key[:12]}"
                f"{detail}{wall}{src}{err}"
            )
        return "\n".join(lines)
