"""Tests for the command-line interface (quick-world paths only)."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_bad_date(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--start", "yesterday"])

    def test_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.seed == 42
        assert not args.quick


class TestStudyCommand:
    def test_quick_study_prints_findings(self):
        code, output = run_cli("--quick", "--seed", "1", "study")
        assert code == 0
        assert "dynamic" in output
        assert "Identified identity-leaking networks" in output
        assert "stateu.edu" in output
        assert "academic" in output


class TestCampaignCommand:
    def test_campaign_with_csv_export(self, tmp_path):
        icmp_csv = tmp_path / "icmp.csv"
        rdns_csv = tmp_path / "rdns.csv"
        code, output = run_cli(
            "--quick", "--seed", "1", "campaign",
            "--start", "2021-11-01", "--end", "2021-11-02",
            "--networks", "Academic-C",
            "--icmp-csv", str(icmp_csv), "--rdns-csv", str(rdns_csv),
        )
        assert code == 0
        assert "Campaign 2021-11-01..2021-11-02" in output
        assert "Academic-C" in output
        assert icmp_csv.exists() and rdns_csv.exists()
        assert len(icmp_csv.read_text().splitlines()) > 1


class TestTrackCommand:
    def test_tracking_brian_on_academic_a(self):
        code, output = run_cli(
            "--quick", "--seed", "1", "track", "brian",
            "--network", "Academic-A",
            "--start", "2021-11-01", "--end", "2021-11-03",
        )
        assert code == 0
        assert "brians-" in output

    def test_tracking_unknown_name_reports_nothing(self):
        code, output = run_cli(
            "--quick", "--seed", "1", "track", "zebediah",
            "--network", "Academic-C",
            "--start", "2021-11-01", "--end", "2021-11-02",
        )
        assert code == 1
        assert "no devices" in output


class TestHeistCommand:
    def test_heist_recommendation(self):
        code, output = run_cli(
            "--quick", "--seed", "1", "heist",
            "--network", "Academic-C",
            "--start", "2021-11-01", "--end", "2021-11-03",
        )
        assert code == 0
        assert "Quietest weekday hour" in output


class TestSnapshotCommand:
    def test_snapshot_dump(self):
        code, output = run_cli(
            "--quick", "--seed", "1", "snapshot", "--date", "2021-03-03",
            "--network", "Academic-A", "--limit", "10",
        )
        assert code == 0
        assert "campus.stateu.edu" in output

    def test_snapshot_respects_limit(self):
        code, output = run_cli(
            "--quick", "--seed", "1", "snapshot", "--date", "2021-03-03", "--limit", "5"
        )
        data_lines = [line for line in output.splitlines() if "\t" in line]
        assert len(data_lines) == 5

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_non_positive_limit_is_a_usage_error(self, limit, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--quick", "--seed", "1", "snapshot", "--limit", limit])
        assert excinfo.value.code == 2
        assert "argument --limit: must be a positive integer" in capsys.readouterr().err


class TestAuditCommand:
    def test_audit_grades_networks(self):
        code, output = run_cli(
            "--quick", "--seed", "1", "audit",
            "--start", "2021-11-01", "--end", "2021-11-02",
            "--networks", "Academic-C", "ISP-A",
        )
        assert code == 0
        assert "Grade" in output
        assert "Academic-C" in output


class TestSnapshotCacheFlags:
    def test_timings_and_cache_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, output = run_cli(
            "--quick", "--seed", "1", "--snapshot-cache", cache_dir, "--timings", "study"
        )
        assert code == 0
        assert "[timings]" in output
        assert "cache miss, stored" in output
        code, output = run_cli(
            "--quick", "--seed", "1", "--snapshot-cache", cache_dir, "--timings", "study"
        )
        assert code == 0
        assert "cache hit" in output

    def test_clear_cache_standalone(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_cli("--quick", "--seed", "1", "--snapshot-cache", cache_dir, "study")
        code, output = run_cli("--snapshot-cache", cache_dir, "--clear-snapshot-cache")
        assert code == 0
        assert "cleared 1 cached snapshot series" in output

    def test_workers_flag_accepted(self):
        code, output = run_cli("--quick", "--seed", "1", "--workers", "2", "study")
        assert code == 0
        assert "dynamic" in output

    @pytest.mark.parametrize("command", ["study", "evaluate"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_is_a_usage_error(self, command, workers, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--quick", "--workers", workers, command])
        assert excinfo.value.code == 2
        assert "argument --workers: must be a positive integer" in capsys.readouterr().err


class TestObservabilityFlags:
    CAMPAIGN_ARGS = (
        "--start", "2021-11-01", "--end", "2021-11-02",
        "--networks", "Academic-C",
    )

    def test_metrics_out_writes_manifest(self, tmp_path):
        manifest_path = tmp_path / "m.json"
        code, output = run_cli(
            "--quick", "--seed", "1", "--metrics-out", str(manifest_path),
            "supplemental", *self.CAMPAIGN_ARGS,
        )
        assert code == 0
        assert "wrote run manifest" in output

        import json

        payload = json.loads(manifest_path.read_text())
        assert payload["run"]["seed"] == 1
        assert payload["run"]["command"] == "campaign"
        assert "world_fingerprint" in payload["run"]
        assert payload["metrics"]["counters"]["resolver_queries_total"]["value"] > 0
        assert "timings" in payload

    def test_supplemental_alias_matches_campaign(self, tmp_path):
        import json

        def deterministic(path, command):
            code, _ = run_cli(
                "--quick", "--seed", "1", "--metrics-out", str(path),
                command, *self.CAMPAIGN_ARGS,
            )
            assert code == 0
            payload = json.loads(path.read_text())
            payload.pop("timings")
            return json.dumps(payload, sort_keys=True)

        alias = deterministic(tmp_path / "alias.json", "supplemental")
        canonical = deterministic(tmp_path / "canonical.json", "campaign")
        assert alias == canonical

    def test_trace_prints_span_tree(self):
        code, output = run_cli(
            "--quick", "--seed", "1", "--trace", "supplemental", *self.CAMPAIGN_ARGS
        )
        assert code == 0
        assert "[trace]" in output
        assert "campaign.run" in output
        assert "campaign.network[network=Academic-C]" in output

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        manifest_path = tmp_path / "env.json"
        monkeypatch.setenv("REPRO_METRICS_OUT", str(manifest_path))
        code, output = run_cli(
            "--quick", "--seed", "1", "supplemental", *self.CAMPAIGN_ARGS
        )
        assert code == 0
        assert manifest_path.exists()

    def test_disabled_by_default(self, tmp_path):
        code, output = run_cli(
            "--quick", "--seed", "1", "campaign", *self.CAMPAIGN_ARGS
        )
        assert code == 0
        assert "manifest" not in output


class TestSpecAndSave:
    def test_campaign_from_spec_with_save(self, tmp_path):
        import json

        spec = {
            "seed": 3,
            "networks": [
                {
                    "kind": "enterprise",
                    "name": "Spec-Corp",
                    "prefix": "10.50.0.0/16",
                    "suffix": "corp.spec.example",
                    "office_prefix": "10.50.1.0/24",
                    "employees": 10,
                    "supplemental": True,
                }
            ],
        }
        spec_path = tmp_path / "world.json"
        spec_path.write_text(json.dumps(spec))
        save_dir = tmp_path / "dataset"
        code, output = run_cli(
            "--spec", str(spec_path), "campaign",
            "--start", "2021-11-01", "--end", "2021-11-02",
            "--save-dir", str(save_dir),
        )
        assert code == 0
        assert "Spec-Corp" in output
        assert (save_dir / "dataset.json").exists()


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8400
        assert args.leak_sample_days is None

    def test_rejects_non_positive_leak_sample_days(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--leak-sample-days", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--leak-sample-days", "-3"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--leak-sample-days", "many"])

    def test_serve_builds_app_and_hands_off(self, monkeypatch):
        import repro.serve

        handed = {}

        def fake_run_app(app, host, port):
            handed.update(app=app, host=host, port=port)

        monkeypatch.setattr(repro.serve, "run_app", fake_run_app)
        code, output = run_cli(
            "--quick", "--seed", "1", "serve", "--port", "9999"
        )
        assert code == 0
        assert handed["host"] == "127.0.0.1"
        assert handed["port"] == 9999
        assert "serving 21 day(s)" in output
        assert "http://127.0.0.1:9999" in output
        # The handed-off app is live: it answers a dispatch in-process.
        status, payload = handed["app"].dispatch("GET", "/healthz")
        assert status == 200
        assert payload["days"] == 21


class TestCadenceErrorSurfacing:
    """Regression: a mixed-spacing snapshot series used to escape as a
    raw ValueError traceback; the CLI now prints a one-line actionable
    error and exits 2."""

    MESSAGE = (
        "mixed snapshot spacing: days 2021-01-01..2021-01-05 arrived at "
        "irregular intervals"
    )

    def test_study_prints_one_line_error(self, monkeypatch, capsys):
        from repro.core.pipeline import ReproductionStudy

        def boom(self):
            raise ValueError(TestCadenceErrorSurfacing.MESSAGE)

        monkeypatch.setattr(ReproductionStudy, "dynamicity", boom)
        code, _ = run_cli("--quick", "--seed", "1", "study")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            f"error: irregular snapshot series — {self.MESSAGE}"
        )
        assert "Traceback" not in captured.err

    def test_campaign_prints_the_same_one_line_error(self, monkeypatch, capsys):
        from repro.scan import SupplementalCampaign

        def boom(self, *args, **kwargs):
            raise ValueError(TestCadenceErrorSurfacing.MESSAGE)

        monkeypatch.setattr(SupplementalCampaign, "run", boom)
        code, _ = run_cli("--quick", "--seed", "1", "campaign")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            f"error: irregular snapshot series — {self.MESSAGE}"
        )
        assert "Traceback" not in captured.err

    def test_unrelated_value_errors_use_generic_handler(self, monkeypatch, capsys):
        from repro.core.pipeline import ReproductionStudy

        def boom(self):
            raise ValueError("something else entirely")

        monkeypatch.setattr(ReproductionStudy, "dynamicity", boom)
        code, _ = run_cli("--quick", "--seed", "1", "study")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "rdns-privacy: error: something else entirely"
        assert "irregular snapshot series" not in captured.err


WORLD_FILE = {
    "seed": 3,
    "networks": [
        {
            "kind": "academic",
            "name": "Spec-Campus",
            "prefix": "10.10.0.0/16",
            "suffix": "campus.spec.edu",
            "education_prefix": "10.10.1.0/24",
            "housing_prefix": "10.10.2.0/24",
            "staff": 10,
            "students": 10,
            "residents": 12,
            "supplemental": True,
        },
    ],
}


def write_world_file(tmp_path, payload=WORLD_FILE):
    import json

    path = tmp_path / "world.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestOneWorldFile:
    """``--spec`` is a second spelling of ``--plan``."""

    def test_spec_study_matches_plan_study(self, tmp_path):
        path = write_world_file(tmp_path)
        spec_code, spec_output = run_cli("--quick", "--seed", "1", "--spec", path, "study")
        plan_code, plan_output = run_cli("--quick", "--seed", "1", "--plan", path, "study")
        _, default_output = run_cli("--quick", "--seed", "1", "study")
        assert spec_code == plan_code == 0
        assert spec_output == plan_output
        assert spec_output != default_output
        assert "spec.edu" in spec_output

    def test_both_spellings_set_one_option(self):
        parser = build_parser()
        assert parser.parse_args(["--spec", "w.json", "study"]).plan == "w.json"
        assert parser.parse_args(["--plan", "w.json", "study"]).plan == "w.json"

    def test_misaligned_prefix_is_a_one_line_error(self, tmp_path, capsys):
        entry = dict(WORLD_FILE["networks"][0], prefix="10.10.0.0/20")
        path = write_world_file(tmp_path, {"seed": 3, "networks": [entry]})
        code, _ = run_cli("--quick", "--spec", path, "campaign")
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("rdns-privacy: error:")
        assert "octet boundary" in err[0]


class TestCampaignCommandsShareOnePath:
    """track, heist and audit run the campaign the way ``campaign`` does."""

    WINDOW = ("--start", "2021-11-01", "--end", "2021-11-02")

    @pytest.mark.parametrize(
        "command",
        [
            ("audit", "--networks", "Academic-C"),
            ("track", "brian", "--network", "Academic-A"),
            ("heist", "--network", "Academic-C"),
        ],
        ids=["audit", "track", "heist"],
    )
    def test_campaign_cache_is_stored_then_hit(self, tmp_path, command):
        import json

        from repro.scan import CampaignCache

        cache_dir = tmp_path / "campaigns"

        def cache_hit(name):
            manifest = tmp_path / f"{name}.json"
            run_cli(
                "--quick", "--seed", "1", "--campaign-cache", str(cache_dir),
                "--metrics-out", str(manifest), *command, *self.WINDOW,
            )
            execution = json.loads(manifest.read_text())["timings"]["execution"]
            return execution["campaign"]["cache_hit"]

        assert cache_hit("cold") is False
        assert len(CampaignCache(cache_dir).entries()) == 1
        assert cache_hit("warm") is True
        assert len(CampaignCache(cache_dir).entries()) == 1


class TestEvaluateShards:
    def test_shards_reach_every_cell_without_changing_the_report(self, tmp_path, monkeypatch):
        from repro.netsim.worldplan import WorldPlan, synthetic_plan

        plan = synthetic_plan(seed=5, slash16s=4, people=4)
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        built = []
        original_build = WorldPlan.build

        def recording_build(self, names=None):
            built.append(len(self.network_names) if names is None else len(names))
            return original_build(self, names)

        monkeypatch.setattr(WorldPlan, "build", recording_build)

        def report(shards):
            path = tmp_path / f"report-{shards}.txt"
            built.clear()
            code, _ = run_cli(
                "--quick", "--seed", "0", "--plan", str(plan_path), "--shards", shards,
                "evaluate", "--policies", "carry-over", "--fault-profiles", "none",
                "--report-out", str(path),
            )
            assert code == 0
            return path.read_bytes(), max(built)

        whole, _ = report("1")
        sharded, largest_block = report("2")
        assert sharded == whole
        networks = len(plan.network_names)
        assert largest_block <= -(-networks // 2)


class TestMaxWorkers:
    CAMPAIGN_ARGS = ("campaign", "--start", "2021-11-01", "--end", "2021-11-02")

    def test_flag_and_config_size_pools_alike(self, tmp_path, monkeypatch):
        """``--max-workers 4`` and ``StudyConfig(max_workers=4)`` run the same pool."""
        import datetime as dt
        import json
        import os

        from repro.core.pipeline import StudyConfig

        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        environ = dict(os.environ)
        manifest = tmp_path / "manifest.json"
        code, _ = run_cli(
            "--quick", "--seed", "1", "--workers", "4", "--max-workers", "4",
            "--metrics-out", str(manifest), *self.CAMPAIGN_ARGS,
        )
        assert code == 0
        assert dict(os.environ) == environ
        flagged = json.loads(manifest.read_text())["timings"]["execution"]["campaign"]

        config = StudyConfig.quick(1)
        config.max_workers = 4
        config.campaign_workers = 4
        campaign = config.campaign(config.world_source())
        campaign.run(
            dt.date(2021, 11, 1),
            dt.date(2021, 11, 2),
            workers=config.capped_workers(config.campaign_workers),
        )
        assert flagged["effective_workers"] == campaign.last_metrics.effective_workers == 4
