"""Study-pipeline counters measured from outside ``repro.studies``.

``run_study`` takes its result store and its ledger as parameters, so the
benchmark hands it these subclasses, which count and time each call and
change nothing else. Per-job wall times come from ``run_study``'s
``progress`` callback.
"""

from __future__ import annotations

import os
import time

from repro.parallel import ResultsCache
from repro.studies import StudyLedger


class CountingCache(ResultsCache):
    """A :class:`ResultsCache` that counts and times ``get`` and ``put``."""

    def __init__(self, root: str) -> None:
        super().__init__(root)
        self.gets = 0
        self.get_s = 0.0
        self.puts = 0
        self.put_s = 0.0

    def get(self, key):
        start = time.perf_counter()
        try:
            return super().get(key)
        finally:
            self.get_s += time.perf_counter() - start
            self.gets += 1

    def put(self, key, payload) -> None:
        start = time.perf_counter()
        try:
            super().put(key, payload)
        finally:
            self.put_s += time.perf_counter() - start
            self.puts += 1


class CountingLedger(StudyLedger):
    """A :class:`StudyLedger` that counts its flushes and the bytes each writes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.saves = 0
        self.save_s = 0.0
        self.save_bytes = 0

    def save(self) -> None:
        start = time.perf_counter()
        try:
            super().save()
        finally:
            self.save_s += time.perf_counter() - start
            self.saves += 1
        if self.path is not None:
            self.save_bytes += os.path.getsize(self.path)
