"""WorkerPool under injected infra faults.

Satellite coverage: hang/timeout recovery, spawn-failure degradation to
in-process execution, worker crashes healed by retry, and the
determinism of the seeded backoff jitter the pool accounts for in
``backoff_total_s``.
"""

import warnings

import pytest

from tests import _parallel_helpers as helpers
from repro.parallel import TaskCrashError, TaskFailedError, TaskSpec, WorkerPool
from repro.resilience import FaultInjector, FaultPlan, FaultPoint, RetryPolicy


def _injector(*points, seed=0, salt=0):
    return FaultInjector(FaultPlan(name="pool", seed=seed,
                                   points=tuple(points)), salt=salt)


class TestWorkerExecFaults:
    def test_hang_fault_times_out_then_retries(self):
        pool = WorkerPool(max_workers=1, task_timeout=0.5,
                          retry_policy=RetryPolicy(max_attempts=2))
        pool.attach_faults(_injector(
            FaultPoint(seam="worker.exec", mode="hang", trigger_calls=(1,),
                       hang_s=30.0)
        ))
        result = pool.map([TaskSpec(fn=helpers.square, args=(4,))])
        assert result == [16]
        assert pool.retry_count == 1

    def test_crash_fault_healed_by_retry(self):
        pool = WorkerPool(max_workers=2,
                          retry_policy=RetryPolicy(max_attempts=2))
        pool.attach_faults(_injector(
            FaultPoint(seam="worker.exec", mode="crash", trigger_calls=(2,))
        ))
        assert pool.map(
            [TaskSpec(fn=helpers.square, args=(n,)) for n in range(4)]
        ) == [0, 1, 4, 9]
        assert pool.retry_count == 1
        assert not pool.degraded

    def test_spawn_failures_degrade_to_inline(self):
        pool = WorkerPool(max_workers=2, spawn_failure_limit=2,
                          retry_policy=RetryPolicy(max_attempts=1))
        pool.attach_faults(_injector(
            FaultPoint(seam="worker.exec", mode="oserror", probability=1.0)
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = pool.map(
                [TaskSpec(fn=helpers.square, args=(n,)) for n in range(3)]
            )
        assert result == [0, 1, 4]
        assert pool.degraded
        assert pool.spawn_failures >= 2
        assert pool.retry_count == 0  # spawn failures are not task attempts
        assert any("degrad" in str(w.message) for w in caught)

    def test_spawn_failure_count_is_consecutive(self):
        pool = WorkerPool(max_workers=1, spawn_failure_limit=3)
        pool.attach_faults(_injector(
            FaultPoint(seam="worker.exec", mode="enospc",
                       trigger_calls=(1, 3))
        ))
        result = pool.map(
            [TaskSpec(fn=helpers.square, args=(n,)) for n in range(4)]
        )
        assert result == [0, 1, 4, 9]
        # Successful spawns between the two failures reset the streak.
        assert not pool.degraded

    def test_inline_degraded_failures_still_raise(self):
        pool = WorkerPool(max_workers=1, spawn_failure_limit=1,
                          retry_policy=RetryPolicy(max_attempts=1))
        pool.attach_faults(_injector(
            FaultPoint(seam="worker.exec", mode="oserror", probability=1.0)
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TaskFailedError):
                pool.map([TaskSpec(fn=helpers.raise_value_error,
                                   args=("boom",))])


class TestBackoffAccounting:
    def test_backoff_total_matches_policy_exactly(self):
        policy = RetryPolicy(max_attempts=3, backoff_s=0.05, jitter=0.5,
                             seed=11)
        pool = WorkerPool(max_workers=1, retry_policy=policy)
        with pytest.raises(TaskCrashError):
            pool.map([TaskSpec(fn=helpers.crash)])
        # Two retries for task index 0, delays drawn deterministically.
        expected = policy.delay_s(0, 1) + policy.delay_s(0, 2)
        assert pool.retry_count == 2
        assert pool.backoff_total_s == pytest.approx(expected)
        assert expected > 0.0

    def test_backoff_accounting_repeats_across_pools(self):
        def run_once():
            policy = RetryPolicy(max_attempts=2, backoff_s=0.02,
                                 jitter=1.0, seed=3)
            pool = WorkerPool(max_workers=1, retry_policy=policy)
            with pytest.raises(TaskCrashError):
                pool.map([TaskSpec(fn=helpers.crash)])
            return pool.backoff_total_s

        assert run_once() == run_once()
