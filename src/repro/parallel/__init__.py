"""Parallel execution engine for multi-seed and multi-point studies.

The experiments in :mod:`repro.experiments` are embarrassingly parallel —
every Monte-Carlo seed and every sweep point builds its own testbed with an
independently forked RNG universe — yet the seed runner executed them
strictly serially. This package supplies the missing machinery:

* :class:`~repro.parallel.pool.WorkerPool` — a spawn-safe multiprocessing
  pool with picklable task specs, per-task timeouts, retry-once-on-crash
  robustness, and *ordered* result collection so parallel output is
  bit-identical to the serial path.
* :class:`~repro.parallel.cache.ResultsCache` — an on-disk results cache
  keyed by ``(config-hash, seed)`` under ``.repro_cache/`` so re-running a
  study with one changed parameter only recomputes the changed arms.

``experiments/montecarlo.py`` and ``experiments/sweeps.py`` accept an
``executor=`` strategy (``"serial"`` default, ``"process"`` opt-in) built on
these primitives; the CLI exposes ``--workers`` / ``--no-cache``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "cache": (
        "QUARANTINE_DIRNAME",
        "ResultsCache",
        "cache_stats",
        "config_fingerprint",
        "prune_cache",
        "verify_store",
    ),
    "pool": (
        "TaskCrashError",
        "TaskFailedError",
        "TaskSpec",
        "TaskTimeoutError",
        "WorkerPool",
        "default_chunk_size",
    ),
})
