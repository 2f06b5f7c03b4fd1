"""On-disk results cache for experiment arms.

Re-running a sweep with one changed parameter should only recompute the
changed arms. Every cacheable unit (one Monte-Carlo seed, one sweep point)
is keyed by a SHA-256 fingerprint of its *full* configuration — the frozen
dataclass ``repr`` covers every knob, so any parameter change, however
small, produces a new key and a clean miss. Values are JSON documents under
``.repro_cache/`` (two-level fan-out directories, atomic writes), so the
cache survives process crashes and is safe to share between the serial and
process executors.

Invalidation is purely key-based: there is no TTL. Delete the cache root
(or pass ``--no-cache``) after changing *code* rather than configuration —
the fingerprint sees parameters, not simulator source. ``SCHEMA_VERSION``
is baked into every key so cache layout changes never read stale entries.

Integrity: entries are written inside a checksum envelope
(``{"sha256": <hex of the canonical payload JSON>, "payload": ...}``)
and verified on every read. A corrupt, truncated, or checksum-mismatched
entry is *quarantined* — moved to ``<root>/quarantine/`` for forensics —
and counted as a miss, so a bit flip or torn write costs one recompute,
never a poisoned study. A document that is not an envelope at all (such
as a raw payload from before the envelope) has nothing to verify and is
quarantined the same way. ``repro cache verify`` sweeps the whole store
offline.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import warnings
from typing import Any, Dict, Optional

#: Bump when the cached payload shape changes; old entries become misses.
#: It is hashed into every key, so a bump also changes every study
#: fingerprint.
SCHEMA_VERSION = 1

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Root-level file recording the last run's hit/miss/disabled figures
#: (written by the study scheduler; read by ``repro cache stats``).
STATS_FILENAME = "last_run_stats.json"

#: Subdirectory (under the cache root) holding quarantined entries.
QUARANTINE_DIRNAME = "quarantine"

#: The envelope's exact key set — how a versioned entry is recognized.
_ENVELOPE_KEYS = frozenset(("sha256", "payload"))


def _canonical_body(payload: Any) -> str:
    """The canonical JSON serialization the checksum covers.

    ``json.dumps`` with compact separators round-trips exactly
    (``dumps(loads(body)) == body`` for JSON-native types), so the
    digest computed at write time can be recomputed at read time from
    the decoded payload alone.
    """
    return json.dumps(payload, separators=(",", ":"))


def config_fingerprint(*parts: Any) -> str:
    """SHA-256 hex digest of the ``repr`` of every part, order-sensitive.

    Frozen dataclass reprs are deterministic functions of their field
    values (nested dataclasses included), which makes them a stable,
    dependency-free serialization for hashing:

    >>> a = config_fingerprint(("x", 1.5))
    >>> a == config_fingerprint(("x", 1.5))
    True
    >>> a == config_fingerprint(("x", 1.6))
    False
    """
    digest = hashlib.sha256()
    digest.update(f"schema={SCHEMA_VERSION}".encode("utf-8"))
    for part in parts:
        digest.update(b"\x1f")
        digest.update(repr(part).encode("utf-8"))
    return digest.hexdigest()


class ResultsCache:
    """A tiny content-addressed JSON store.

    >>> import tempfile
    >>> cache = ResultsCache(tempfile.mkdtemp())
    >>> key = config_fingerprint("mc", 101)
    >>> cache.get(key) is None
    True
    >>> cache.put(key, {"seed": 101, "bounded": True})
    >>> cache.get(key)["seed"]
    101
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.disabled = False
        self._metrics = None
        self._faults = None

    def attach_metrics(self, registry) -> None:
        """Attach a metrics registry so a mid-run self-disable is *loud*.

        A cache that silently turns itself off looks exactly like a cold
        cache from the outside; with a registry attached the disable event
        increments ``cache.disable_events`` the moment it happens (the
        end-of-study gauges only show the final state). Quarantine events
        likewise increment ``cache.quarantined`` live.
        """
        self._metrics = registry

    def attach_faults(self, injector) -> None:
        """Attach (or with ``None``, detach) a fault injector.

        The hooks in :meth:`get`/:meth:`put` are a single ``is not
        None`` check when no injector is attached, so they call nothing
        in the injector; ``tests/test_idle_seams.py`` counts the calls
        both ways.
        """
        self._faults = injector

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside (never delete evidence); count it."""
        dest_dir = os.path.join(self.root, QUARANTINE_DIRNAME)
        try:
            os.makedirs(dest_dir, exist_ok=True)
            os.replace(path, os.path.join(dest_dir, os.path.basename(path)))
        except OSError:
            # Quarantine dir unwritable: fall back to removing the entry
            # so the corrupt bytes can never be served again.
            try:
                os.remove(path)
            except OSError:
                pass
        self.quarantined += 1
        if self._metrics is not None:
            self._metrics.counter("cache.quarantined").inc()

    def get(self, key: str) -> Optional[Any]:
        """Return the cached payload, or ``None`` on a miss.

        A corrupt entry — torn write, bit flip, invalid UTF-8, manual
        edit, a document that is not a checksum envelope, or a checksum
        mismatch against the envelope — is quarantined to
        ``<root>/quarantine/`` and reported as a miss rather than
        poisoning (or crashing) the study.
        """
        if self.disabled:
            # Still a miss: hit/miss accounting must stay meaningful (and
            # exportable as metrics) even after the cache disables itself.
            self.misses += 1
            return None
        path = self._path(key)
        if self._faults is not None:
            point = self._faults.pre_op("cache.get")
            if point is not None:
                self._faults.corrupt(point, path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, UnicodeDecodeError, OSError):
            # ValueError covers JSONDecodeError; UnicodeDecodeError is
            # *not* a ValueError subclass path json.load reports — a
            # bit-flipped byte can make the file invalid UTF-8 and used
            # to escape this handler entirely (the pre-envelope bug).
            doc = None
        if isinstance(doc, dict) and set(doc) == _ENVELOPE_KEYS:
            digest = hashlib.sha256(
                _canonical_body(doc["payload"]).encode("utf-8")
            ).hexdigest()
            if digest == doc["sha256"]:
                self.hits += 1
                return doc["payload"]
        self._quarantine(path)
        self.misses += 1
        return None

    def put(self, key: str, payload: Any) -> None:
        """Store a payload atomically (tmp + rename) inside a checksum
        envelope.

        Caching is an optimization: if the cache root is unwritable (path
        collides with a file, disk full, permissions), the cache disables
        itself with a warning instead of killing a multi-hour study on the
        first write.
        """
        if self.disabled:
            return
        path = self._path(key)
        tmp = None
        try:
            fault_point = None
            if self._faults is not None:
                # Inside the try: an injected OSError/ENOSPC exercises
                # the same self-disable path a real full disk does.
                fault_point = self._faults.pre_op("cache.put")
            body = _canonical_body(payload)
            digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write('{"sha256":"%s","payload":%s}' % (digest, body))
            os.replace(tmp, path)
            if fault_point is not None:
                self._faults.corrupt(fault_point, path)
        except OSError as exc:
            if tmp is not None:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
            self.disabled = True
            if self._metrics is not None:
                self._metrics.counter("cache.disable_events").inc()
            warnings.warn(
                f"results cache at {self.root!r} is unwritable ({exc}); "
                "caching disabled for this run",
                RuntimeWarning,
                stacklevel=2,
            )

    def write_stats(self) -> None:
        """Persist this run's hit/miss/disabled figures to the cache root.

        Best-effort (an unwritable root is already the *disabled* case);
        ``repro cache stats`` reads the file back as "last run" figures.
        """
        doc = {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (
                self.hits / (self.hits + self.misses)
                if (self.hits + self.misses) else 0.0
            ),
            "quarantined": self.quarantined,
            "disabled": self.disabled,
            "written_at": time.time(),
        }
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
            os.replace(tmp, os.path.join(self.root, STATS_FILENAME))
        except OSError:
            pass

    def __repr__(self) -> str:
        return (
            f"ResultsCache(root={self.root!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )


# ----------------------------------------------------------------------
# Store maintenance (the ``repro cache`` CLI)
# ----------------------------------------------------------------------
def _iter_entries(root: str):
    """Yield ``(path, size, mtime)`` for every cache entry under ``root``."""
    try:
        fanouts = sorted(os.listdir(root))
    except OSError:
        return
    for fanout in fanouts:
        directory = os.path.join(root, fanout)
        if len(fanout) != 2 or not os.path.isdir(directory):
            continue  # root-level stats file, stray tmp files
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            continue
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            yield path, stat.st_size, stat.st_mtime


def cache_stats(root: str = DEFAULT_CACHE_DIR) -> Dict[str, Any]:
    """Entry count, total bytes, and the last run's hit/miss figures."""
    entries = 0
    total_bytes = 0
    oldest: Optional[float] = None
    newest: Optional[float] = None
    for _, size, mtime in _iter_entries(root):
        entries += 1
        total_bytes += size
        oldest = mtime if oldest is None else min(oldest, mtime)
        newest = mtime if newest is None else max(newest, mtime)
    last_run = None
    try:
        with open(os.path.join(root, STATS_FILENAME), encoding="utf-8") as fh:
            last_run = json.load(fh)
    except (OSError, json.JSONDecodeError):
        pass
    quarantine_dir = os.path.join(root, QUARANTINE_DIRNAME)
    try:
        quarantined = len([
            n for n in os.listdir(quarantine_dir) if n.endswith(".json")
        ])
    except OSError:
        quarantined = 0
    return {
        "root": root,
        "entries": entries,
        "bytes": total_bytes,
        "oldest_mtime": oldest,
        "newest_mtime": newest,
        "quarantined": quarantined,
        "last_run": last_run,
    }


def prune_cache(
    root: str = DEFAULT_CACHE_DIR,
    older_than_s: Optional[float] = None,
    max_bytes: Optional[int] = None,
    now: Optional[float] = None,
    dry_run: bool = False,
) -> Dict[str, int]:
    """Garbage-collect the job-result store.

    ``older_than_s`` removes entries whose mtime predates ``now -
    older_than_s``; ``max_bytes`` then evicts oldest-first until the store
    fits the budget. Either criterion may be used alone. Returns a summary
    (``scanned`` / ``removed`` / ``bytes_removed`` / ``bytes_kept``).
    """
    if older_than_s is None and max_bytes is None:
        raise ValueError("prune needs older_than_s and/or max_bytes")
    now = time.time() if now is None else now
    entries = sorted(_iter_entries(root), key=lambda e: e[2])  # oldest first
    keep_bytes = sum(size for _, size, _ in entries)
    removed = 0
    bytes_removed = 0
    for path, size, mtime in entries:
        expired = older_than_s is not None and mtime < now - older_than_s
        over_budget = max_bytes is not None and keep_bytes > max_bytes
        if not (expired or over_budget):
            continue
        if not dry_run:
            try:
                os.remove(path)
            except OSError:
                continue
        removed += 1
        bytes_removed += size
        keep_bytes -= size
    if not dry_run:
        for fanout in sorted(set(os.path.dirname(p) for p, _, _ in entries)):
            try:
                os.rmdir(fanout)  # only succeeds when emptied
            except OSError:
                pass
    return {
        "scanned": len(entries),
        "removed": removed,
        "bytes_removed": bytes_removed,
        "bytes_kept": keep_bytes,
    }


def verify_store(root: str = DEFAULT_CACHE_DIR) -> Dict[str, int]:
    """Offline integrity sweep (the ``repro cache verify`` CLI).

    Reads every entry through :meth:`ResultsCache.get`, so the store is
    healed eagerly by the same verification and quarantine that a study
    applies lazily.

    Returns ``{"scanned", "ok", "quarantined"}``.
    """
    cache = ResultsCache(root)
    scanned = 0
    for path, _, _ in list(_iter_entries(root)):
        scanned += 1
        cache.get(os.path.basename(path)[:-len(".json")])
    return {
        "scanned": scanned,
        "ok": cache.hits,
        "quarantined": cache.quarantined,
    }
