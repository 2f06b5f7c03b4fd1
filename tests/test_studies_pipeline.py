"""Unit tests for the submit → schedule → collect study pipeline."""

import json
import os
import time

import pytest

from tests import _study_helpers as helpers
from repro.parallel import (
    ResultsCache,
    TaskCrashError,
    cache_stats,
    config_fingerprint,
    prune_cache,
)
from repro.studies import (
    DONE,
    FAILED,
    PENDING,
    Job,
    LedgerMismatchError,
    Study,
    StudyInterrupted,
    StudyLedger,
    run_study,
)


def _study(values, fn=helpers.double, name="unit", **job_kwargs):
    jobs = tuple(
        Job(
            key=config_fingerprint("unit", fn.__name__, v),
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


class TestRunStudy:
    def test_serial_collects_in_submission_order(self):
        study = _study([3, 1, 2])
        run = run_study(study)
        assert run.complete
        assert run.collected() == [6, 2, 4]
        assert len(run.executed) == 3 and not run.cached

    def test_cache_dedupes_second_run(self, tmp_path):
        cache = ResultsCache(str(tmp_path / "store"))
        study = _study([1, 2])
        first = run_study(study, cache=cache)
        second = run_study(study, cache=cache)
        assert first.collected() == second.collected() == [2, 4]
        assert second.executed == [] and len(second.cached) == 2
        assert cache.hits == 2

    def test_metrics_passed_only_to_accepting_jobs(self):
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        study = _study([1, 2], fn=helpers.double_with_metrics,
                       accepts_metrics=True)
        run = run_study(study, metrics=registry)
        assert run.collected() == [2, 4]
        assert registry.counters["helper.calls"].value == 2
        # Arm timing histogram uses the study's metrics prefix.
        assert registry.histograms["study.arm_seconds"].n == 2

    def test_max_jobs_interrupts_deterministically(self, tmp_path):
        ledger_path = str(tmp_path / "ledger.json")
        study = _study([1, 2, 3])
        ledger = StudyLedger.for_study(study, path=ledger_path)
        run = run_study(study, ledger=ledger, max_jobs=1)
        assert run.interrupted and not run.complete
        assert len(run.executed) == 1
        on_disk = StudyLedger.load(ledger_path)
        assert on_disk.counts()[DONE] == 1
        assert on_disk.counts()[PENDING] == 2
        assert on_disk.stats["interrupted"] is True

    def test_on_error_raise_is_fail_fast(self):
        study = _study([1], fn=helpers.boom)
        with pytest.raises(RuntimeError, match="boom on 1"):
            run_study(study, on_error="raise")

    def test_on_error_continue_marks_failed_and_keeps_going(self, tmp_path):
        jobs = (
            Job(key="k-bad", fn=helpers.boom, args=(9,), label="bad"),
            Job(key="k-good", fn=helpers.double, args=(5,), label="good"),
        )
        study = Study(name="mixed", jobs=jobs)
        ledger = StudyLedger.for_study(study, path=str(tmp_path / "l.json"))
        run = run_study(study, ledger=ledger, on_error="continue")
        assert not run.complete
        assert run.failed == ["k-bad"]
        assert run.results["k-good"] == 10
        assert ledger.entries["k-bad"].status == FAILED
        assert "boom on 9" in ledger.entries["k-bad"].error

    def test_keyboard_interrupt_flushes_ledger(self, tmp_path):
        jobs = (
            Job(key="a", fn=helpers.double, args=(1,)),
            Job(key="b", fn=helpers.interrupt, args=(0,)),
            Job(key="c", fn=helpers.double, args=(3,)),
        )
        study = Study(name="interrupted", jobs=jobs)
        ledger_path = str(tmp_path / "ledger.json")
        ledger = StudyLedger.for_study(study, path=ledger_path)
        with pytest.raises(StudyInterrupted) as err:
            run_study(study, ledger=ledger)
        assert err.value.run.results["a"] == 2
        assert err.value.run.interrupted
        assert StudyLedger.load(ledger_path).stats["interrupted"] is True

    def test_progress_events_stream_per_job(self):
        events = []
        study = _study([1, 2])
        run_study(study, progress=events.append)
        assert [e["index"] for e in events] == [1, 2]
        assert all(e["total"] == 2 and e["status"] == DONE for e in events)
        assert {e["source"] for e in events} == {"executed"}

    def test_invalid_executor_and_on_error_rejected(self):
        study = _study([1])
        with pytest.raises(ValueError, match="executor"):
            run_study(study, executor="threads")
        with pytest.raises(ValueError, match="on_error"):
            run_study(study, on_error="retry")


class TestProcessExecutor:
    def test_process_matches_serial(self):
        study = _study([1, 2, 3, 4])
        serial = run_study(study)
        process = run_study(study, executor="process", max_workers=2)
        assert process.collected() == serial.collected()

    def test_worker_crash_retried_on_fresh_process(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        jobs = (
            Job(key="crashy",
                fn=helpers.crash_once_then_double, args=(marker, 7)),
        )
        run = run_study(Study(name="retry", jobs=jobs), executor="process",
                        max_workers=1)
        assert run.collected() == [14]

    def test_worker_crash_exhausting_retries_marks_failed(self, tmp_path):
        cache = ResultsCache(str(tmp_path / "store"))
        ledger = StudyLedger.for_study(
            _study([5], fn=helpers.crash_always),
            path=str(tmp_path / "ledger.json"),
        )
        study = _study([5], fn=helpers.crash_always)
        run = run_study(study, executor="process", max_workers=1,
                        cache=cache, ledger=ledger, on_error="continue")
        assert not run.complete and len(run.failed) == 1
        assert isinstance(list(run.errors.values())[0], TaskCrashError)
        entry = list(ledger.entries.values())[0]
        assert entry.status == FAILED and entry.attempts == 1

    def test_process_crash_then_serial_resume(self, tmp_path):
        """A crashed process study resumes: done jobs come from the store."""
        cache = ResultsCache(str(tmp_path / "store"))
        ledger_path = str(tmp_path / "ledger.json")
        mixed = (
            Job(key="ok-1", fn=helpers.double, args=(1,)),
            Job(key="dies", fn=helpers.crash_always, args=(0,)),
        )
        study = Study(name="crashy", jobs=mixed)
        ledger = StudyLedger.for_study(study, path=ledger_path)
        run = run_study(study, executor="process", max_workers=2,
                        cache=cache, ledger=ledger, on_error="continue")
        assert "ok-1" in run.results and run.failed == ["dies"]
        # Resume with the crasher fixed (same key → same store slot).
        fixed = Study(name="crashy", jobs=(
            mixed[0], Job(key="dies", fn=helpers.double, args=(2,)),
        ))
        ledger2 = StudyLedger.for_study(fixed, path=ledger_path)
        resumed = run_study(fixed, cache=cache, ledger=ledger2)
        assert resumed.complete
        assert resumed.cached == ["ok-1"]       # never recomputed
        assert resumed.executed == ["dies"]
        assert resumed.collected() == [2, 4]


class TestLedger:
    def test_round_trip_preserves_order_and_fields(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        study = _study([2, 1])
        ledger = StudyLedger.for_study(study, path=path)
        ledger.mark(study.jobs[0].key, DONE, source="executed", wall_s=1.5,
                    info={"verdict": "PASS"})
        loaded = StudyLedger.load(path)
        assert loaded.order == [j.key for j in study.jobs]
        assert loaded.entries[study.jobs[0].key].info == {"verdict": "PASS"}
        assert loaded.unfinished() == [study.jobs[1].key]
        assert not loaded.complete

    def test_for_study_adopts_matching_ledger(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        study = _study([1, 2])
        first = StudyLedger.for_study(study, path=path)
        first.mark(study.jobs[0].key, DONE)
        adopted = StudyLedger.for_study(study, path=path)
        assert adopted.entries[study.jobs[0].key].status == DONE

    def test_for_study_rejects_foreign_ledger(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        StudyLedger.for_study(_study([1]), path=path).save()
        with pytest.raises(LedgerMismatchError):
            StudyLedger.for_study(_study([1, 2]), path=path)

    def test_spec_rides_in_the_document(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        spec = {"kind": "montecarlo", "seeds": [1]}
        StudyLedger.for_study(_study([1]), path=path, spec=spec,
                              cache_dir=".cache").save()
        loaded = StudyLedger.load(path)
        assert loaded.spec == spec and loaded.cache_dir == ".cache"

    def test_running_increments_attempts(self, tmp_path):
        from repro.studies import RUNNING

        ledger = StudyLedger.for_study(_study([1]))
        key = ledger.order[0]
        ledger.mark(key, RUNNING)
        ledger.mark(key, RUNNING)
        assert ledger.entries[key].attempts == 2

    def test_describe_mentions_every_job(self):
        ledger = StudyLedger.for_study(_study([1, 2]))
        text = ledger.describe()
        assert "v=1" in text and "v=2" in text and "pending=2" in text

    def test_saved_file_keeps_the_asdict_bytes(self, tmp_path, monkeypatch):
        """The journal is ``json.dumps(doc, indent=1)`` of a document whose
        jobs are ``dataclasses.asdict`` of each entry, byte for byte, and
        ``to_dict()`` (what ``study status --json`` prints) is that document."""
        import dataclasses

        from repro.studies import QUARANTINED, RUNNING

        monkeypatch.setattr(time, "time", lambda: 1700000000.25)
        path = str(tmp_path / "ledger.json")
        study = _study([1, 2, 3, 4, 5])
        ledger = StudyLedger.for_study(study, path=path,
                                       spec={"kind": "unit", "seeds": [1]},
                                       cache_dir="store")
        ledger.stats = {"retries": 1, "backoff_s": 0.125}
        keys = ledger.order
        ledger.entries[keys[0]].label = "Präzision ±1 µs"
        ledger.mark(keys[1], RUNNING, save=False)
        ledger.mark(keys[2], DONE, save=False, source="cache", wall_s=0.1 + 0.2,
                    info={"verdict": "PASS", "max_ns": 1234.5,
                          "rows": {"a": [1, 2.5], "b": None}})
        ledger.mark(keys[3], FAILED, save=False, wall_s=1e-7,
                    error="Traceback (most recent call last):\nValueError: x")
        ledger.mark(keys[4], QUARANTINED, save=False, attempts=3, wall_s=2.0,
                    info=None, error="boom")
        ledger.save()

        doc = {
            "schema_version": 1,
            "study": ledger.study_name,
            "fingerprint": ledger.fingerprint,
            "created_at": 1700000000.25,
            "updated_at": 1700000000.25,
            "cache_dir": "store",
            "spec": {"kind": "unit", "seeds": [1]},
            "stats": {"retries": 1, "backoff_s": 0.125},
            "order": list(keys),
            "jobs": {key: dataclasses.asdict(ledger.entries[key])
                     for key in keys},
        }
        assert [ledger.entries[k].status for k in keys] == \
            [PENDING, RUNNING, DONE, FAILED, QUARANTINED]
        with open(path, "rb") as fh:
            assert fh.read() == json.dumps(doc, indent=1).encode("utf-8")
        assert ledger.to_dict() == doc

        returned = ledger.to_dict()["jobs"][keys[2]]["info"]
        returned["verdict"] = "FAIL"
        returned["extra"] = 1
        assert ledger.entries[keys[2]].info == {
            "verdict": "PASS", "max_ns": 1234.5,
            "rows": {"a": [1, 2.5], "b": None}}


class TestStudyFingerprint:
    def test_fingerprint_depends_on_job_set(self):
        assert _study([1, 2]).fingerprint() == _study([1, 2]).fingerprint()
        assert _study([1, 2]).fingerprint() != _study([1, 3]).fingerprint()
        assert (_study([1], name="a").fingerprint()
                != _study([1], name="b").fingerprint())


class TestCacheStore:
    def test_stats_counts_entries_and_bytes(self, tmp_path):
        root = str(tmp_path / "store")
        cache = ResultsCache(root)
        for i in range(3):
            cache.put(config_fingerprint("s", i), {"i": i})
        stats = cache_stats(root)
        assert stats["entries"] == 3 and stats["bytes"] > 0
        assert stats["oldest_mtime"] <= stats["newest_mtime"]

    def test_stats_reads_last_run_figures(self, tmp_path):
        root = str(tmp_path / "store")
        cache = ResultsCache(root)
        cache.get(config_fingerprint("s", 1))          # miss
        cache.put(config_fingerprint("s", 1), {"x": 1})
        cache.get(config_fingerprint("s", 1))          # hit
        cache.write_stats()
        last = cache_stats(root)["last_run"]
        assert last["hits"] == 1 and last["misses"] == 1
        assert last["disabled"] is False

    def test_prune_requires_a_criterion(self, tmp_path):
        with pytest.raises(ValueError):
            prune_cache(str(tmp_path))

    def test_prune_older_than(self, tmp_path):
        root = str(tmp_path / "store")
        cache = ResultsCache(root)
        old_key = config_fingerprint("s", "old")
        new_key = config_fingerprint("s", "new")
        cache.put(old_key, {"v": 0})
        cache.put(new_key, {"v": 1})
        old_path = os.path.join(root, old_key[:2], old_key + ".json")
        past = time.time() - 10 * 86400
        os.utime(old_path, (past, past))
        summary = prune_cache(root, older_than_s=5 * 86400)
        assert summary["removed"] == 1
        assert cache_stats(root)["entries"] == 1
        assert ResultsCache(root).get(new_key) == {"v": 1}

    def test_prune_max_bytes_evicts_oldest_first(self, tmp_path):
        root = str(tmp_path / "store")
        cache = ResultsCache(root)
        keys = [config_fingerprint("s", i) for i in range(4)]
        now = time.time()
        for i, key in enumerate(keys):
            cache.put(key, {"payload": "x" * 50, "i": i})
            path = os.path.join(root, key[:2], key + ".json")
            os.utime(path, (now - 100 + i, now - 100 + i))
        total = cache_stats(root)["bytes"]
        per_entry = total // 4
        summary = prune_cache(root, max_bytes=per_entry * 2)
        assert summary["removed"] == 2
        assert ResultsCache(root).get(keys[0]) is None   # oldest went
        assert ResultsCache(root).get(keys[3]) is not None

    def test_prune_dry_run_removes_nothing(self, tmp_path):
        root = str(tmp_path / "store")
        cache = ResultsCache(root)
        cache.put(config_fingerprint("s", 1), {"v": 1})
        summary = prune_cache(root, max_bytes=0, dry_run=True)
        assert summary["removed"] == 1
        assert cache_stats(root)["entries"] == 1


class TestCacheSelfDisableSurfacing:
    def test_disable_event_counter_fires(self, tmp_path):
        from repro.metrics import MetricsRegistry

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        cache = ResultsCache(str(blocker))
        registry = MetricsRegistry()
        cache.attach_metrics(registry)
        with pytest.warns(RuntimeWarning, match="caching disabled"):
            cache.put(config_fingerprint("s", 1), {"v": 1})
        assert cache.disabled
        assert registry.counters["cache.disable_events"].value == 1

    def test_run_study_exports_disabled_gauge_and_ledger_flag(self, tmp_path):
        from repro.metrics import MetricsRegistry

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        cache = ResultsCache(str(blocker))
        registry = MetricsRegistry()
        study = _study([1])
        ledger = StudyLedger.for_study(study,
                                       path=str(tmp_path / "ledger.json"))
        with pytest.warns(RuntimeWarning, match="caching disabled"):
            run_study(study, cache=cache, metrics=registry, ledger=ledger)
        assert registry.gauges["cache.disabled"].value == 1
        assert registry.counters["cache.disable_events"].value == 1
        assert ledger.stats["cache_disabled"] is True

    def test_montecarlo_manifest_surfaces_cache_disabled(self, tmp_path):
        from repro.experiments.montecarlo import run_monte_carlo
        from repro.metrics import MetricsRegistry

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        cache = ResultsCache(str(blocker))
        registry = MetricsRegistry()
        with pytest.warns(RuntimeWarning, match="caching disabled"):
            result = run_monte_carlo(seeds=[5], hours=0.01, cache=cache,
                                     metrics=registry)
        assert result.manifest.extra["cache_disabled"] is True
        assert registry.counters["cache.disable_events"].value == 1

    def test_healthy_cache_reports_not_disabled(self, tmp_path):
        from repro.experiments.montecarlo import run_monte_carlo
        from repro.metrics import MetricsRegistry

        cache = ResultsCache(str(tmp_path / "store"))
        registry = MetricsRegistry()
        result = run_monte_carlo(seeds=[5], hours=0.01, cache=cache,
                                 metrics=registry)
        assert result.manifest.extra["cache_disabled"] is False
        assert "cache.disable_events" not in registry.counters

    def test_stats_file_records_disabled_state(self, tmp_path):
        root = str(tmp_path / "store")
        cache = ResultsCache(root)
        cache.get(config_fingerprint("s", 1))
        cache.disabled = True
        cache.write_stats()
        doc = json.loads(
            (tmp_path / "store" / "last_run_stats.json").read_text()
        )
        assert doc["disabled"] is True and doc["misses"] == 1
