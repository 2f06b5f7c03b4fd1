"""Unit tests for the parallel execution engine (pool + cache)."""

import json
import os

import pytest

from tests import _parallel_helpers as helpers
from repro.parallel import (
    ResultsCache,
    TaskCrashError,
    TaskFailedError,
    TaskSpec,
    TaskTimeoutError,
    WorkerPool,
    config_fingerprint,
    default_chunk_size,
)
from repro.resilience import RetryPolicy

#: Two attempts in all: retry once after a crash or timeout.
RETRY_ONCE = RetryPolicy(max_attempts=2)
#: One attempt: never retry.
NO_RETRY = RetryPolicy(max_attempts=1)


@pytest.fixture
def pool():
    return WorkerPool(max_workers=2)


class TestWorkerPool:
    def test_results_ordered_by_submission(self, pool):
        # Uneven delays: later tasks finish first, order must not change.
        tasks = [
            TaskSpec(fn=helpers.slow_square, args=(n, 0.3 if n == 0 else 0.0))
            for n in range(4)
        ]
        assert pool.map(tasks) == [0, 1, 4, 9]

    def test_empty_task_list(self, pool):
        assert pool.map([]) == []

    def test_task_exception_not_retried_and_carries_traceback(self, pool):
        with pytest.raises(TaskFailedError) as err:
            pool.map([TaskSpec(fn=helpers.raise_value_error, args=("boom",))])
        assert "ValueError: boom" in str(err.value)

    def test_crash_exhausts_retries(self):
        pool = WorkerPool(max_workers=1, retry_policy=RETRY_ONCE)
        with pytest.raises(TaskCrashError, match="attempt 2"):
            pool.map([TaskSpec(fn=helpers.crash)])

    def test_crash_retried_once_then_succeeds(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        pool = WorkerPool(max_workers=1, retry_policy=RETRY_ONCE)
        result = pool.map(
            [TaskSpec(fn=helpers.crash_once_then, args=(marker, "ok"))]
        )
        assert result == ["ok"]

    def test_timeout_kills_wedged_worker_and_retries(self, tmp_path):
        marker = str(tmp_path / "hung-once")
        pool = WorkerPool(max_workers=1, task_timeout=1.5,
                          retry_policy=RETRY_ONCE)
        result = pool.map(
            [TaskSpec(fn=helpers.hang_once_then, args=(marker, "ok"))]
        )
        assert result == ["ok"]

    def test_timeout_exhausts_retries(self):
        pool = WorkerPool(max_workers=1, task_timeout=0.5,
                          retry_policy=NO_RETRY)
        with pytest.raises(TaskTimeoutError):
            pool.map([TaskSpec(fn=helpers.slow_square, args=(2, 30.0))])

    def test_one_bad_task_does_not_sink_the_rest(self):
        pool = WorkerPool(max_workers=2, retry_policy=NO_RETRY)
        with pytest.raises(TaskCrashError, match="task 1 "):
            pool.map([
                TaskSpec(fn=helpers.square, args=(2,)),
                TaskSpec(fn=helpers.crash),
                TaskSpec(fn=helpers.square, args=(3,)),
            ])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)
        with pytest.raises(ValueError):
            WorkerPool(spawn_failure_limit=0)

    def test_chunk_heuristic(self):
        assert default_chunk_size(32, 4) == 2
        assert default_chunk_size(1000, 8) == 31
        assert default_chunk_size(3, 8) == 1
        assert default_chunk_size(0, 4) == 1


class TestResultsCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultsCache(str(tmp_path))
        key = config_fingerprint("unit", 1)
        assert cache.get(key) is None
        cache.put(key, {"v": 7})
        assert cache.get(key) == {"v": 7}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultsCache(str(tmp_path))
        key = config_fingerprint("unit", 2)
        cache.put(key, [1, 2, 3])
        path = cache._path(key)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert cache.get(key) is None
        assert not os.path.exists(path)

    def test_atomic_layout(self, tmp_path):
        cache = ResultsCache(str(tmp_path))
        key = config_fingerprint("unit", 3)
        cache.put(key, {"nested": {"ok": True}})
        path = cache._path(key)
        assert path.startswith(os.path.join(str(tmp_path), key[:2]))
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        # Entries live inside the checksum envelope (verify-on-read).
        assert set(doc) == {"sha256", "payload"}
        assert doc["payload"] == {"nested": {"ok": True}}
        assert cache.get(key) == {"nested": {"ok": True}}
        assert not [
            name for name in os.listdir(os.path.dirname(path))
            if name.endswith(".tmp")
        ]

    def test_fingerprint_sensitivity(self):
        base = config_fingerprint("mc", ("cfg", 125), 101)
        assert base == config_fingerprint("mc", ("cfg", 125), 101)
        assert base != config_fingerprint("mc", ("cfg", 126), 101)
        assert base != config_fingerprint("mc", ("cfg", 125), 102)
        assert base != config_fingerprint("sweep", ("cfg", 125), 101)
