"""Tests for the repro-sim command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["survey"],
            ["cyber", "--policy", "diverse", "--scale", "0.1"],
            ["faults", "--hours", "0.2", "--compress"],
            ["baselines", "--minutes", "2"],
            ["vulnerabilities"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cyber", "--policy", "nope"])


class TestVulnerabilitiesCommand:
    def test_database_listing(self, capsys):
        assert main(["vulnerabilities"]) == 0
        out = capsys.readouterr().out
        assert "CVE-2018-18955" in out

    def test_kernel_query(self, capsys):
        assert main(["vulnerabilities", "--kernel", "linux-4.19.1"]) == 0
        assert "CVE-2018-18955" in capsys.readouterr().out

    def test_compare_json(self, capsys):
        code = main(
            ["vulnerabilities", "--compare", "linux-4.19.1", "linux-5.10.0",
             "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shared"] == []


class TestSurveyCommand:
    def test_survey_text(self, capsys):
        assert main(["survey", "--warmup", "5", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Π=" in out and "d_min=" in out

    def test_survey_json(self, capsys):
        assert main(["survey", "--warmup", "5", "--seed", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["precision_bound_ns"] > 0
        assert payload["d_max_ns"] > payload["d_min_ns"]


class TestExperimentCommands:
    def test_cyber_identical_exit_code_and_json(self, capsys):
        code = main(["cyber", "--policy", "identical", "--scale", "0.08",
                     "--seed", "3", "--json"])
        payload = json.loads(capsys.readouterr().out)
        # Exit 0 means the expected outcome (violation) occurred.
        assert code == 0
        assert payload["second_attack_violates"] is True
        assert payload["compromised"] == ["c4_1", "c1_1"]

    @pytest.mark.slow
    def test_faults_compressed_run(self, capsys):
        code = main(["faults", "--hours", "0.1", "--compress", "--seed", "4",
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["bounded"] is True
        assert payload["violations"] == 0


class _Intercepted(Exception):
    """Raised by a stub runner once it has captured its config."""


class TestFaultsHours:
    """``faults --hours N`` and ``export --hours N`` run the same N
    simulated hours: of the paper's fault schedule, or with ``--compress``
    of that schedule compressed into them."""

    def _config(self, monkeypatch, argv):
        from repro.experiments import fault_injection

        seen = []

        def intercept(config, metrics=None):
            seen.append(config)
            raise _Intercepted

        monkeypatch.setattr(fault_injection, "run_fault_injection_experiment",
                            intercept)
        with pytest.raises(_Intercepted):
            main(argv)
        (config,) = seen
        return config

    @pytest.mark.parametrize("command,hours", [
        pytest.param(["faults"], hours, id=hours)
        for hours in ("0.5", "30", "48")
    ] + [
        pytest.param(["export", "bundle"], hours, id=f"export-{hours}")
        for hours in ("0.5", "30", "48")
    ])
    def test_uncompressed_run_lasts_the_hours_asked(self, command, hours,
                                                    monkeypatch):
        from repro.sim.timebase import HOURS

        config = self._config(monkeypatch, command + ["--hours", hours])
        assert config.duration == round(float(hours) * HOURS)

    @pytest.mark.parametrize("flags", [[], ["--compress"]],
                             ids=["paper-schedule", "compressed"])
    def test_export_runs_the_faults_config(self, flags, monkeypatch):
        argv = ["--hours", "0.5"] + flags
        faults = self._config(monkeypatch, ["faults"] + argv)
        export = self._config(monkeypatch, ["export", "bundle"] + argv)
        assert export == faults

    def test_24_hours_is_the_papers_config(self, monkeypatch):
        from repro.experiments.fault_injection import (
            FaultInjectionExperimentConfig,
        )
        from repro.parallel import config_fingerprint

        paper = FaultInjectionExperimentConfig(seed=1)
        for command in (["faults"], ["export", "bundle"]):
            config = self._config(monkeypatch, command + ["--hours", "24"])
            assert config == paper
            assert (config_fingerprint("faults", config)
                    == config_fingerprint("faults", paper))


class TestSweepCommand:
    def test_interval_sweep_text(self, capsys):
        assert main(["sweep", "interval", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "converged" in out

    def test_aggregation_sweep_json(self, capsys):
        assert main(["sweep", "aggregation", "--duration", "60", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["study"] == "aggregation"
        assert len(payload["rows"]) == 4

    def test_unknown_study_rejected(self):
        import pytest as _pytest
        with _pytest.raises(SystemExit):
            main(["sweep", "nonsense"])


class TestMonteCarloCommand:
    def test_small_study(self, capsys):
        code = main(["montecarlo", "--runs", "2", "--hours", "0.04", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["bounded_rate"] == 1.0
        assert len(payload["outcomes"]) == 2


class TestLinkFailCommand:
    @pytest.mark.slow
    def test_linkfail_json(self, capsys):
        code = main(["linkfail", "--seed", "12", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["recovered"] is True
        assert payload["violations"] == 0
        assert payload["silenced"]  # someone lost a domain during the outage

    def test_linkfail_measurement_trunk_rejected(self, capsys):
        assert main(["linkfail", "--trunk", "sw1", "sw2"]) == 2
        err = capsys.readouterr().err
        assert "carries the measurement VLAN" in err
        assert len(err.splitlines()) == 1

    def test_linkfail_missing_trunk_exits_2_before_simulating(
            self, capsys, monkeypatch):
        from repro.sim.kernel import Simulator

        def no_events(self, time):
            raise AssertionError("simulated before rejecting the trunk")

        monkeypatch.setattr(Simulator, "run_until", no_events)
        assert main(["linkfail", "--trunk", "sw1", "sw9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("linkfail: chaos plan ")
        assert "'sw1-sw9'" in line and "sw3-sw4" in line


class TestExportCommand:
    def test_export_bundle(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        code = main(["export", str(out), "--hours", "0.04", "--seed", "6",
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["bounded"] is True
        assert (out / "series.csv").exists()
        assert (out / "summary.txt").exists()


class TestCampaignCommand:
    def test_parses(self):
        args = build_parser().parse_args(["campaign", "--colluders", "1"])
        assert callable(args.func)

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["campaign"]) == 2
        assert main(["campaign", "--file", str(tmp_path / "c.json"),
                     "--colluders", "1"]) == 2
        capsys.readouterr()

    def test_zero_colluders_rejected(self, capsys):
        assert main(["campaign", "--colluders", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_single_colluder_is_masked(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code = main(["campaign", "--colluders", "1", "--duration", "60",
                     "--start", "15", "--seed", "3",
                     "--metrics", str(metrics), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        info = payload["campaign"]
        assert info["campaign"] == "colluders-1"
        assert info["colluders"] == 1
        assert info["design_f"] == 1
        assert info["floor_m"] == 4
        manifest = json.loads(metrics.read_text())["manifest"]
        assert manifest["experiment"] == "campaign"
        assert manifest["extra"]["colluders"] == 1
        assert manifest["extra"]["floor_m"] == 4

    def test_campaign_file_round_trip(self, tmp_path, capsys):
        from repro.security.campaigns import (
            AttackCampaign,
            AttackStage,
            dump_campaign,
        )
        from repro.sim.timebase import SECONDS

        path = tmp_path / "campaign.json"
        dump_campaign(
            AttackCampaign(name="file-run", stages=(
                AttackStage(start=15 * SECONDS, kind="collude",
                            victims=("c4_1",)),
            )),
            path,
        )
        code = main(["campaign", "--file", str(path), "--duration", "60",
                     "--seed", "3", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["campaign"]["campaign"] == "file-run"
        assert payload["campaign"]["stages"] == 1


class TestEnvelopeSweepCommand:
    def test_single_scenario_smoke(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code = main(["sweep", "envelope", "--scenario", "paper-mesh4",
                     "--duration", "60", "--no-cache",
                     "--metrics", str(metrics), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["study"] == "envelope"
        assert payload["verdict"] in ("PASS", "DEGRADED")
        (row,) = payload["rows"]
        assert row["scenario"] == "paper-mesh4"
        assert row["attack"] == ""
        assert row["within"] is True
        assert row["max_precision_ns"] <= row["envelope_ns"]
        manifest = json.loads(metrics.read_text())["manifest"]
        assert manifest["experiment"] == "sweep:envelope"
        assert manifest["extra"]["min_margin_ns"] == pytest.approx(
            row["margin_ns"]
        )

    def test_workers_run_the_arms_on_the_pool(self, tmp_path, capsys):
        # Pool runs report per-chunk wall times; serial runs, per arm.
        metrics = tmp_path / "metrics.json"
        code = main(["sweep", "envelope", "--scenario", "paper-mesh4",
                     "--duration", "60", "--no-cache", "--workers", "2",
                     "--metrics", str(metrics), "--json"])
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert code == 0
        assert row["scenario"] == "paper-mesh4"
        recorded = json.loads(metrics.read_text())["metrics"]
        assert "envelope.chunk_seconds" in recorded
        assert "envelope.arm_seconds" not in recorded


class TestEnvelopeManifestScenario:
    """The envelope run record names the scenario ``--scenario`` gave."""

    def _manifest(self, tmp_path, capsys, monkeypatch, scenario_args):
        from repro.experiments import sweeps

        real = sweeps.sweep_envelope

        def one_short_arm(**kwargs):
            # Without --scenario the command runs every registry arm; keep
            # only paper-mesh4 and no attack arm, so the test stays fast.
            kwargs.update(scenarios=("paper-mesh4",), attack_check=False)
            return real(**kwargs)

        monkeypatch.setattr(sweeps, "sweep_envelope", one_short_arm)
        path = tmp_path / "metrics.json"
        main(["sweep", "envelope", *scenario_args, "--duration", "40",
              "--no-cache", "--metrics", str(path), "--json"])
        capsys.readouterr()
        return json.loads(path.read_text())["manifest"]

    def test_named_scenario_is_recorded(self, tmp_path, capsys, monkeypatch):
        from repro.scenarios import resolve_scenario

        manifest = self._manifest(tmp_path, capsys, monkeypatch,
                                  ["--scenario", "paper-mesh4"])
        assert manifest["scenario"] == "paper-mesh4"
        assert (manifest["scenario_fingerprint"]
                == resolve_scenario("paper-mesh4").fingerprint())

    def test_every_arm_records_no_scenario(self, tmp_path, capsys,
                                           monkeypatch):
        manifest = self._manifest(tmp_path, capsys, monkeypatch, [])
        assert manifest["scenario"] is None
        assert manifest["scenario_fingerprint"] is None


class TestMetricsManifestEvents:
    """Every ``--metrics`` record carries the events its run dispatched."""

    @pytest.mark.parametrize("argv, single_run", [
        (["faults", "--hours", "0.005", "--compress"], True),
        (["chaos", "--loss", "0.05", "--loss-start", "5",
          "--duration", "20"], True),
        (["campaign", "--colluders", "1", "--start", "5",
          "--duration", "20"], True),
        (["sweep", "interval", "--duration", "20", "--no-cache"], False),
    ], ids=["faults", "chaos", "campaign", "sweep"])
    def test_manifest_counts_dispatched_events(self, argv, single_run,
                                               tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(argv + ["--metrics", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        manifest = doc["manifest"]
        events = manifest["events_dispatched"]
        assert isinstance(events, int) and events > 0
        assert manifest["events_per_sec"] > 0
        if single_run:
            gauge = doc["metrics"]["kernel.events_dispatched"]["value"]
            assert events == gauge


class TestStudyCommand:
    def _spec(self, tmp_path, doc=None):
        spec = tmp_path / "study.json"
        spec.write_text(json.dumps(doc or {
            "kind": "montecarlo", "name": "cli-mc",
            "seeds": [1, 21], "hours": 0.02,
        }))
        return spec

    def test_run_interrupt_status_resume_cycle(self, tmp_path, capsys):
        spec = self._spec(tmp_path)
        cache_dir = str(tmp_path / "store")
        ledger = str(tmp_path / "study.ledger.json")

        # Interrupted run exits 3 and journals the kill point.
        code = main(["study", "run", str(spec), "--max-jobs", "1",
                     "--cache-dir", cache_dir, "--json"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 3
        assert payload["interrupted"] is True
        assert payload["executed"] == 1
        assert "[1/2]" in captured.err          # streaming progress line
        assert payload["ledger"] == ledger

        # Status shows one done / one pending, exits nonzero (incomplete).
        assert main(["study", "status", ledger]) == 1
        out = capsys.readouterr().out
        assert "done=1" in out and "pending=1" in out

        # Resume finishes from the ledger: one cache hit, one fresh arm.
        code = main(["study", "resume", ledger,
                     "--cache-dir", cache_dir, "--json"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 0
        assert payload["complete"] is True
        assert payload["cached"] == 1 and payload["executed"] == 1
        assert payload["result"]["bounded_rate"] == 1.0
        assert len(payload["result"]["outcomes"]) == 2
        assert main(["study", "status", ledger]) == 0
        capsys.readouterr()

    def test_run_sweep_spec(self, tmp_path, capsys):
        spec = self._spec(tmp_path, {
            "kind": "sweep", "study": "domains", "values": [4, 5],
            "duration_s": 30, "warmup_records": 5,
        })
        code = main(["study", "run", str(spec),
                     "--cache-dir", str(tmp_path / "store"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        rows = payload["result"]["rows"]
        assert [r["value"] for r in rows] == [4, 5]
        assert all(r["parameter"] == "n_domains" for r in rows)

    def test_bad_spec_kind_rejected(self, tmp_path):
        spec = self._spec(tmp_path, {"kind": "nonsense"})
        with pytest.raises(ValueError, match="unknown study kind"):
            main(["study", "run", str(spec)])

    def test_resume_foreign_ledger_mismatch(self, tmp_path, capsys):
        from repro.studies import LedgerMismatchError

        spec = self._spec(tmp_path)
        cache_dir = str(tmp_path / "store")
        ledger = str(tmp_path / "study.ledger.json")
        main(["study", "run", str(spec), "--max-jobs", "0",
              "--cache-dir", cache_dir])
        capsys.readouterr()
        # Drifted spec (different seeds) against the same ledger file.
        spec.write_text(json.dumps({
            "kind": "montecarlo", "seeds": [7], "hours": 0.02,
        }))
        with pytest.raises(LedgerMismatchError):
            main(["study", "run", str(spec), "--ledger", ledger,
                  "--cache-dir", cache_dir])


class TestCacheCommand:
    def test_stats_and_prune_cycle(self, tmp_path, capsys):
        from repro.parallel import ResultsCache, config_fingerprint

        root = str(tmp_path / "store")
        cache = ResultsCache(root)
        for i in range(3):
            cache.put(config_fingerprint("cli", i), {"i": i})
        cache.get(config_fingerprint("cli", 0))
        cache.write_stats()

        assert main(["cache", "stats", "--cache-dir", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 3
        assert payload["last_run"]["hits"] == 1

        assert main(["cache", "prune", "--cache-dir", root,
                     "--max-bytes", "0", "--dry-run", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed"] == 3 and payload["dry_run"] is True

        assert main(["cache", "prune", "--cache-dir", root,
                     "--older-than", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed"] == 3
        assert main(["cache", "stats", "--cache-dir", root, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_prune_requires_criterion(self, capsys):
        assert main(["cache", "prune"]) == 2
        assert "--older-than" in capsys.readouterr().err


class TestAttackBudgetSweepCommand:
    def test_smoke_reports_breaking_point(self, capsys):
        # Attack start (60 s) is past this smoke duration, so every arm is
        # an unattacked baseline: the plumbing — rows, breaking point,
        # design floor — is what is under test here.
        code = main(["sweep", "attackbudget", "--duration", "20",
                     "--no-cache", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["study"] == "attackbudget"
        assert payload["rows"][0]["parameter"] == "colluders"
        assert [r["value"] for r in payload["rows"]] == [0, 1, 2, 3]
        bp = payload["breaking_point"]
        assert bp["design_f"] == 1
        assert bp["floor_m"] == 4
