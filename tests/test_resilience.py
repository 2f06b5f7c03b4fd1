"""Units for the infra fault-injection layer and the healing it proves.

Covers the fault-plan schema (round trip + validation), injector
determinism, the RetryPolicy's seeded backoff, and the two satellite
bugfix regressions: a corrupt cache entry must be a quarantined miss
(never an exception), and a torn ledger must raise a clear
``LedgerCorruptError`` naming the salvage command (never a raw
``JSONDecodeError``).
"""

import json
import os

import pytest

from tests import _study_helpers as helpers
from repro.metrics import MetricsRegistry
from repro.parallel import (
    QUARANTINE_DIRNAME,
    ResultsCache,
    cache_stats,
    config_fingerprint,
    verify_store,
)
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultPoint,
    InjectedCrash,
    InjectedJobError,
    RetryPolicy,
    dump_fault_plan,
    load_fault_plan,
    random_fault_campaign,
)
from repro.resilience.salvage import (
    LedgerSalvageError,
    salvage_fields,
    salvage_study,
)
from repro.studies import (
    Job,
    LedgerCorruptError,
    QUARANTINED,
    Study,
    StudyLedger,
    run_study,
)


def _study(values, fn=helpers.double, name="unit", **job_kwargs):
    jobs = tuple(
        Job(
            key=config_fingerprint("resilience", fn.__name__, v),
            fn=fn,
            args=(v,),
            label=f"v={v}",
            kind="unit",
            seed=v,
            **job_kwargs,
        )
        for v in values
    )
    return Study(name=name, jobs=jobs)


def _plan(*points, name="test", seed=0):
    return FaultPlan(name=name, seed=seed, points=tuple(points))


# ----------------------------------------------------------------------
# Fault-plan schema
# ----------------------------------------------------------------------
class TestFaultPlanSchema:
    def test_json_round_trip(self, tmp_path):
        plan = _plan(
            FaultPoint(seam="cache.put", mode="torn_write",
                       trigger_calls=(3, 1), torn_offset=8),
            FaultPoint(seam="job.fn", mode="error", probability=0.25,
                       max_fires=2, label="flaky"),
            seed=42,
        )
        assert FaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        ) == plan
        path = str(tmp_path / "plan.json")
        dump_fault_plan(plan, path)
        assert load_fault_plan(path) == plan

    def test_trigger_calls_normalized_sorted(self):
        point = FaultPoint(seam="cache.get", mode="bit_flip",
                           trigger_calls=(5, 2, 9))
        assert point.trigger_calls == (2, 5, 9)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(seam="nope", mode="crash", trigger_calls=(1,)),
         "unknown seam"),
        (dict(seam="cache.get", mode="nope", trigger_calls=(1,)),
         "unknown mode"),
        (dict(seam="cache.get", mode="error", trigger_calls=(1,)),
         "not valid at seam"),
        (dict(seam="job.fn", mode="torn_write", trigger_calls=(1,)),
         "not valid at seam"),
        (dict(seam="job.fn", mode="error", probability=1.5),
         "probability"),
        (dict(seam="job.fn", mode="error"), "trigger_calls or probability"),
        (dict(seam="job.fn", mode="error", trigger_calls=(0,)), "1-based"),
        (dict(seam="job.fn", mode="error", trigger_calls=(1,),
              max_fires=0), "max_fires"),
    ])
    def test_invalid_points_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FaultPoint(**kwargs)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="needs a name"):
            FaultPlan(name="")
        with pytest.raises(ValueError, match="schema"):
            FaultPlan(name="x", schema_version=99)

    def test_random_campaign_deterministic(self):
        assert random_fault_campaign(21) == random_fault_campaign(21)
        assert random_fault_campaign(1) != random_fault_campaign(2)
        for seed in (1, 21, 42):
            plan = random_fault_campaign(seed)
            assert plan.points  # validated on construction
            assert all(p.mode != "hang" for p in plan.points)


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_trigger_calls_fire_exactly_there(self):
        inj = FaultInjector(_plan(
            FaultPoint(seam="job.fn", mode="error", trigger_calls=(2, 4))
        ))
        fired = []
        for call in range(1, 6):
            try:
                inj.pre_op("job.fn")
            except InjectedJobError:
                fired.append(call)
        assert fired == [2, 4]
        assert inj.calls["job.fn"] == 5
        assert inj.fire_count == 2

    def test_max_fires_bounds_probability_points(self):
        inj = FaultInjector(_plan(
            FaultPoint(seam="job.fn", mode="error", probability=1.0,
                       max_fires=3)
        ))
        fired = 0
        for _ in range(10):
            try:
                inj.pre_op("job.fn")
            except InjectedJobError:
                fired += 1
        assert fired == 3

    def test_probability_stream_is_deterministic(self):
        plan = _plan(
            FaultPoint(seam="cache.get", mode="bit_flip", probability=0.5),
            seed=7,
        )

        def pattern(salt):
            inj = FaultInjector(plan, salt=salt)
            return [inj.decide("cache.get") is not None
                    for _ in range(200)]

        assert pattern(0) == pattern(0)
        assert pattern(0) != pattern(1)  # salt gives fresh draws

    def test_crash_is_not_an_ordinary_exception(self):
        inj = FaultInjector(_plan(
            FaultPoint(seam="job.fn", mode="crash", trigger_calls=(1,))
        ))
        assert not issubclass(InjectedCrash, Exception)
        with pytest.raises(InjectedCrash):
            try:
                inj.pre_op("job.fn")
            except Exception:  # a job's handler must NOT absorb it
                pytest.fail("InjectedCrash was caught by except Exception")

    def test_oserror_modes_carry_errno(self):
        import errno

        inj = FaultInjector(_plan(
            FaultPoint(seam="cache.put", mode="enospc", trigger_calls=(1,)),
            FaultPoint(seam="cache.put", mode="oserror", trigger_calls=(2,)),
        ))
        with pytest.raises(OSError) as err:
            inj.pre_op("cache.put")
        assert err.value.errno == errno.ENOSPC
        with pytest.raises(OSError) as err:
            inj.pre_op("cache.put")
        assert err.value.errno == errno.EIO

    def test_torn_write_truncates(self, tmp_path):
        path = str(tmp_path / "f.json")
        with open(path, "w") as fh:
            fh.write("x" * 100)
        inj = FaultInjector(_plan(
            FaultPoint(seam="cache.get", mode="torn_write",
                       trigger_calls=(1,), torn_offset=10)
        ))
        point = inj.pre_op("cache.get")
        inj.corrupt(point, path)
        assert os.path.getsize(path) == 10

    def test_bit_flip_changes_exactly_one_byte(self, tmp_path):
        path = str(tmp_path / "f.json")
        original = b'{"payload": [1, 2, 3]}'
        with open(path, "wb") as fh:
            fh.write(original)
        inj = FaultInjector(_plan(
            FaultPoint(seam="cache.get", mode="bit_flip",
                       trigger_calls=(1,))
        ))
        point = inj.pre_op("cache.get")
        inj.corrupt(point, path)
        with open(path, "rb") as fh:
            flipped = fh.read()
        assert len(flipped) == len(original)
        assert sum(a != b for a, b in zip(original, flipped)) == 1

    def test_corrupt_missing_file_is_noop(self, tmp_path):
        inj = FaultInjector(_plan(
            FaultPoint(seam="cache.get", mode="bit_flip",
                       trigger_calls=(1,))
        ))
        point = inj.pre_op("cache.get")
        inj.corrupt(point, str(tmp_path / "absent.json"))  # no raise

    def test_summary_reports_fires(self):
        inj = FaultInjector(_plan(
            FaultPoint(seam="job.fn", mode="error", trigger_calls=(1,),
                       label="first")
        ))
        with pytest.raises(InjectedJobError):
            inj.pre_op("job.fn")
        summary = inj.summary()
        assert summary["fires"] == [
            {"seam": "job.fn", "mode": "error", "call": 1, "label": "first"}
        ]


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_deterministic_jitter(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.5, jitter=0.5,
                             seed=7)
        again = RetryPolicy(max_attempts=4, backoff_s=0.5, jitter=0.5,
                            seed=7)
        for index in range(3):
            for attempt in (1, 2, 3):
                assert policy.delay_s(index, attempt) == \
                    again.delay_s(index, attempt)
        # Different seeds / indexes / attempts draw different jitter.
        other = RetryPolicy(max_attempts=4, backoff_s=0.5, jitter=0.5,
                            seed=8)
        assert policy.delay_s(0, 1) != other.delay_s(0, 1)
        assert policy.delay_s(0, 1) != policy.delay_s(1, 1)

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(max_attempts=10, backoff_s=1.0,
                             backoff_factor=2.0, max_backoff_s=5.0)
        assert policy.delay_s(0, 1) == 1.0
        assert policy.delay_s(0, 2) == 2.0
        assert policy.delay_s(0, 3) == 4.0
        assert policy.delay_s(0, 4) == 5.0  # capped

    def test_no_backoff_means_zero_delay(self):
        assert RetryPolicy(max_attempts=3).delay_s(0, 2) == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(max_attempts=0),
        dict(backoff_s=-1.0),
        dict(backoff_factor=0.5),
        dict(jitter=-0.1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# Cache healing (satellite bugfix: corrupt entry => quarantined miss)
# ----------------------------------------------------------------------
class TestCacheHealing:
    def _cache_with_entry(self, tmp_path, payload=None):
        cache = ResultsCache(str(tmp_path / "store"))
        key = config_fingerprint("heal", 1)
        cache.put(key, payload if payload is not None else {"v": 1})
        return cache, key, cache._path(key)

    def _quarantine_dir(self, cache):
        return os.path.join(cache.root, QUARANTINE_DIRNAME)

    def test_invalid_utf8_entry_is_quarantined_miss(self, tmp_path):
        """The pre-fix failing regression: a bit flip can leave the file
        invalid UTF-8, and ``get()`` used to raise UnicodeDecodeError
        instead of healing (only JSONDecodeError/OSError were caught)."""
        cache, key, path = self._cache_with_entry(tmp_path)
        with open(path, "wb") as fh:
            fh.write(b'\xff\xfe{"v": 1}')
        assert cache.get(key) is None  # raised before the fix
        assert cache.quarantined == 1
        assert not os.path.exists(path)
        assert os.listdir(self._quarantine_dir(cache)) == [
            os.path.basename(path)
        ]

    def test_checksum_mismatch_is_quarantined_miss(self, tmp_path):
        cache, key, path = self._cache_with_entry(tmp_path, {"v": 111})
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # Valid JSON, valid UTF-8 — only the checksum can catch this.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("111", "999"))
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_truncated_entry_is_quarantined_miss(self, tmp_path):
        cache, key, path = self._cache_with_entry(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        assert cache.get(key) is None
        assert cache.quarantined == 1
        # The healed slot accepts a fresh write + read.
        cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}

    def test_raw_entry_without_envelope_is_quarantined_miss(self, tmp_path):
        cache = ResultsCache(str(tmp_path / "store"))
        key = config_fingerprint("heal", 2)
        path = cache._path(key)
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"raw": True}, fh)
        assert cache.get(key) is None
        assert cache.hits == 0 and cache.quarantined == 1
        assert not os.path.exists(path)

    def test_quarantine_counter_in_metrics_registry(self, tmp_path):
        cache, key, path = self._cache_with_entry(tmp_path)
        registry = MetricsRegistry()
        cache.attach_metrics(registry)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{torn")
        cache.get(key)
        assert registry.counters["cache.quarantined"].value == 1

    def test_verify_store_sweeps_and_quarantines(self, tmp_path):
        root = str(tmp_path / "store")
        cache = ResultsCache(root)
        keys = [config_fingerprint("heal", n) for n in range(3)]
        for n, key in enumerate(keys):
            cache.put(key, {"n": n})
        # One entry without a checksum envelope, one torn entry.
        raw_key = config_fingerprint("heal", "raw")
        raw_path = cache._path(raw_key)
        os.makedirs(os.path.dirname(raw_path), exist_ok=True)
        with open(raw_path, "w", encoding="utf-8") as fh:
            json.dump([1, 2], fh)
        with open(cache._path(keys[0]), "r+b") as fh:
            fh.truncate(12)
        summary = verify_store(root)
        assert summary == {"scanned": 4, "ok": 2, "quarantined": 2}
        stats = cache_stats(root)
        assert stats["quarantined"] == 2
        assert stats["entries"] == 2  # quarantine dir is not an entry

    def test_write_stats_records_quarantines(self, tmp_path):
        cache, key, path = self._cache_with_entry(tmp_path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{")
        cache.get(key)
        cache.write_stats()
        stats = cache_stats(cache.root)
        assert stats["last_run"]["quarantined"] == 1


# ----------------------------------------------------------------------
# Ledger corruption (satellite bugfix: torn load => LedgerCorruptError)
# ----------------------------------------------------------------------
class TestLedgerCorruption:
    def _saved_ledger(self, tmp_path, values=(1, 2, 3)):
        study = _study(list(values))
        path = str(tmp_path / "study.ledger.json")
        spec = {"kind": "montecarlo", "name": "salvage-me",
                "seeds": list(values), "hours": 0.02}
        ledger = StudyLedger.for_study(study, path=path, spec=spec,
                                       cache_dir="store")
        ledger.save()
        return study, path, spec

    def test_torn_ledger_raises_clear_error(self, tmp_path):
        """Pre-fix, a torn flush surfaced as a raw JSONDecodeError with
        no hint that the study was recoverable."""
        _, path, _ = self._saved_ledger(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(int(os.path.getsize(path) * 0.6))
        with pytest.raises(LedgerCorruptError, match="--salvage"):
            StudyLedger.load(path)

    def test_invalid_utf8_ledger_raises_clear_error(self, tmp_path):
        _, path, _ = self._saved_ledger(tmp_path)
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfe not a ledger")
        with pytest.raises(LedgerCorruptError):
            StudyLedger.load(path)

    def test_non_object_ledger_raises_clear_error(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[1, 2, 3]")
        with pytest.raises(LedgerCorruptError):
            StudyLedger.load(path)

    def test_missing_file_still_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            StudyLedger.load(str(tmp_path / "absent.json"))

    def test_salvage_recovers_embedded_spec(self, tmp_path):
        _, path, spec = self._saved_ledger(tmp_path)
        with open(path, "r+b") as fh:
            # Tear inside the jobs map: identity fields survive.
            fh.truncate(int(os.path.getsize(path) * 0.6))
        recovered = salvage_study(path)
        assert recovered["spec"] == spec
        assert recovered["study"] == "unit"
        assert recovered["cache_dir"] == "store"

    def test_salvage_fields_partial_text(self):
        text = '{\n "study": "x",\n "fingerprint": "abc",\n "spec": {"k": 1'
        fields = salvage_fields(text)
        assert fields["study"] == "x" and fields["fingerprint"] == "abc"
        assert "spec" not in fields  # the spec value itself is torn

    def test_salvage_without_spec_raises(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"study": "x", "jobs"')
        with pytest.raises(LedgerSalvageError, match="did not survive"):
            salvage_study(path)


# ----------------------------------------------------------------------
# Quarantined jobs (on_error="quarantine")
# ----------------------------------------------------------------------
class TestJobQuarantine:
    def test_poisoned_job_parks_and_study_finishes(self, tmp_path):
        registry = MetricsRegistry()
        ledger_path = str(tmp_path / "ledger.json")
        study = _study([1, 2], fn=helpers.boom, name="poison")
        good = _study([3], name="poison").jobs
        study = Study(name="poison", jobs=study.jobs + good)
        ledger = StudyLedger.for_study(study, path=ledger_path)
        run = run_study(study, ledger=ledger, metrics=registry,
                        on_error="quarantine",
                        retry_policy=RetryPolicy(max_attempts=2))
        # The good job finished; the poisoned ones are parked, with the
        # deterministic error retried once and recorded.
        assert len(run.results) == 1 and len(run.quarantined) == 2
        assert not run.complete
        assert run.retries == 2  # one retry per poisoned job
        on_disk = StudyLedger.load(ledger_path)
        entries = [on_disk.entries[k] for k in run.quarantined]
        assert all(e.status == QUARANTINED for e in entries)
        assert all("boom" in e.error for e in entries)
        assert registry.counters["study.jobs_quarantined"].value == 2
        assert registry.counters["pool.retries"].value == 2
        # Quarantined jobs are unfinished: a resume re-submits them.
        assert set(on_disk.unfinished()) == set(run.quarantined)

    def test_quarantine_never_reports_success(self):
        study = _study([1], fn=helpers.boom)
        run = run_study(study, on_error="quarantine")
        assert not run.complete
        with pytest.raises(KeyError):
            run.collected()

    def test_injected_flaky_job_heals_on_retry(self):
        """A probabilistic job.fn fault that misses on the retry: the
        study completes with the exact same results as a clean run."""
        study = _study([5, 6])
        clean = run_study(study).collected()
        inj = FaultInjector(_plan(
            FaultPoint(seam="job.fn", mode="error", trigger_calls=(1,))
        ))
        run = run_study(study, faults=inj,
                        retry_policy=RetryPolicy(max_attempts=2))
        assert run.complete
        assert run.collected() == clean
        assert run.retries == 1
