"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.exit_codes import EX_USAGE


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "KTH-SP2"])
        assert args.hours == 24.0
        assert args.seed == 42

    def test_run_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestArgValidation:
    """Bad numeric flags must die at parse time, not hours into a run."""

    @pytest.mark.parametrize("argv", [
        ["run", "--model", "DAS2-fs0", "--hours", "0"],
        ["run", "--model", "DAS2-fs0", "--hours", "-4"],
        ["trace", "KTH-SP2", "--hours", "nan"],
        ["run", "--model", "DAS2-fs0", "--mtbf", "0"],
        ["run", "--model", "DAS2-fs0", "--mtbf", "-3600"],
        ["run", "--model", "DAS2-fs0", "--snapshot-interval", "0"],
        ["run", "--model", "DAS2-fs0", "--snapshot-every-events", "0"],
        ["run", "--model", "DAS2-fs0", "--snapshot-every-events", "-5"],
        ["run", "--model", "DAS2-fs0", "--lease-fault-rate", "1.5"],
        ["run", "--model", "DAS2-fs0", "--boot-fail-rate", "-0.1"],
        ["run", "--model", "DAS2-fs0", "--outage-kill-fraction", "-0.1"],
        ["run", "--model", "DAS2-fs0", "--outage-rate", "-1"],
        ["run", "--model", "DAS2-fs0", "--boot-jitter", "-10"],
        ["run", "--model", "DAS2-fs0", "--checkpoint-interval", "0"],
        ["run", "--model", "DAS2-fs0", "--outage-duration", "-600"],
        ["run", "--model", "DAS2-fs0", "--max-job-retries", "-1"],
        ["run", "--model", "DAS2-fs0", "--max-vms", "0"],
        ["run", "--model", "DAS2-fs0", "--system-procs", "0"],
        ["run", "--model", "DAS2-fs0", "--quarantine-limit", "0"],
        ["run", "--model", "DAS2-fs0", "--audit", "loud"],
        ["run", "--model", "DAS2-fs0", "--spot-fraction", "1.5"],
        ["run", "--model", "DAS2-fs0", "--spot-fraction", "-0.1"],
        ["run", "--model", "DAS2-fs0", "--preempt-rate", "-1"],
        ["run", "--model", "DAS2-fs0", "--spot-price", "1.2"],
        ["run", "--model", "DAS2-fs0", "--spot-bid", "2"],
        ["run", "--model", "DAS2-fs0", "--preempt-grace", "-60"],
        ["run", "--model", "DAS2-fs0", "--capacity-shortage-rate", "1.1"],
        ["run", "--model", "DAS2-fs0", "--brownout", "-4"],
        ["run", "--model", "DAS2-fs0", "--brownout-duration", "0"],
        ["run", "--model", "DAS2-fs0", "--api-rate-limit", "0"],
        ["run", "--model", "DAS2-fs0", "--api-rate-window", "0"],
        ["run", "--model", "DAS2-fs0", "--breaker-threshold", "0"],
        ["run", "--model", "DAS2-fs0", "--breaker-cooldown", "-300"],
        ["run", "--model", "DAS2-fs0", "--spot-fraction", "0.5", "--spot-bid", "0"],
        ["run", "--model", "DAS2-fs0", "--spot-fraction", "0.5", "--spot-price", "0"],
        ["service", "run", "--socket", "s.sock", "--journal-dir", "j",
         "--burst", "0.5"],
        ["service", "loadgen", "--spawn", "--burst", "0.5"],
        ["service", "replay", "--journal-dir", "j", "--burst", "0.5"],
    ])
    def test_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(argv)
        assert exc_info.value.code == 2
        capsys.readouterr()  # swallow argparse usage noise

    def test_valid_values_parse(self):
        args = build_parser().parse_args([
            "run", "--model", "DAS2-fs0", "--hours", "4",
            "--mtbf", "3600", "--lease-fault-rate", "0.2",
            "--outage-kill-fraction", "1.0", "--snapshot-interval", "60",
            "--snapshot-every-events", "100", "--max-job-retries", "0",
            "--audit", "strict",
        ])
        assert args.hours == 4.0
        assert args.mtbf == 3600.0
        assert args.lease_fault_rate == 0.2
        assert args.outage_kill_fraction == 1.0
        assert args.snapshot_every_events == 100
        assert args.max_job_retries == 0
        assert args.audit == "strict"

    def test_audit_defaults_to_inherit(self):
        args = build_parser().parse_args(["run", "--model", "DAS2-fs0"])
        assert args.audit is None
        assert args.audit_report is False

    def test_spot_knobs_parse_and_default_off(self):
        from repro.cli import _spot_config

        args = build_parser().parse_args(["run", "--model", "DAS2-fs0"])
        assert args.spot_fraction == 0.0
        assert _spot_config(args) is None  # cooperative cloud by default
        args = build_parser().parse_args([
            "run", "--model", "DAS2-fs0", "--spot-fraction", "0.5",
            "--preempt-rate", "0.2", "--spot-bid", "0.35",
            "--brownout", "4", "--api-rate-limit", "50", "--no-hedge",
            "--seed", "11",
        ])
        cfg = _spot_config(args)
        assert cfg is not None
        assert cfg.seed == 11
        assert cfg.spot_fraction == 0.5
        assert cfg.preempt_rate_per_hour == 0.2
        assert cfg.bid == 0.35
        assert cfg.brownout_mtbb_seconds == pytest.approx(86_400.0 / 4)
        assert cfg.api_rate_limit == 50
        assert not cfg.hedge

    def test_brownout_alone_activates_the_layer(self):
        from repro.cli import _spot_config

        args = build_parser().parse_args([
            "run", "--model", "DAS2-fs0", "--brownout", "2",
        ])
        cfg = _spot_config(args)
        assert cfg is not None and cfg.spot_fraction == 0.0
        assert cfg.brownouts_enabled


class TestAuditFlag:
    def test_audit_report_table(self, capsys):
        assert main([
            "run", "--model", "DAS2-fs0", "--hours", "2", "--seed", "5",
            "--policy", "ODA-FCFS-FirstFit",
            "--audit", "strict", "--audit-report",
        ]) == 0
        out = capsys.readouterr().out
        assert "audit" in out
        assert "differential oracle" in out
        assert "verdict" in out

    def test_audit_is_a_pure_observer(self, tmp_path, capsys):
        """A strict audit reads the engine and steers nothing: its run
        exports what an unaudited run does, bar the ``audit`` report."""
        import json

        exports = {}
        for level in ("off", "strict"):
            out_path = tmp_path / f"{level}.json"
            assert main([
                "run", "--model", "DAS2-fs0", "--hours", "4", "--seed", "29",
                "--policy", "ODA-UNICEF-FirstFit",
                "--spot-fraction", "0.5", "--preempt-rate", "0.2",
                "--checkpoint-interval", "300", "--brownout", "4",
                "--lease-fault-rate", "0.05", "--boot-fail-rate", "0.02",
                "--audit", level, "--export-json", str(out_path),
            ]) == 0
            exports[level] = json.loads(out_path.read_text())
        assert "audit" not in exports["off"]
        assert exports["strict"].pop("audit")["ok"]
        assert exports["off"] == exports["strict"]
        assert exports["off"]["spot"]["preemptions"] > 0


class TestTraceCommand:
    def test_summary_printed(self, capsys):
        assert main(["trace", "DAS2-fs0", "--hours", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "DAS2-fs0" in out
        assert "Load[%]" in out

    def test_swf_round_trip(self, tmp_path, capsys):
        swf = tmp_path / "t.swf"
        assert main([
            "trace", "LPC-EGEE", "--hours", "3", "--seed", "3",
            "--swf-out", str(swf),
        ]) == 0
        assert swf.exists()
        # and the written file replays through `run --swf`
        assert main([
            "run", "--swf", str(swf), "--policy", "ODB-FCFS-FirstFit",
            "--system-procs", "140",
        ]) == 0
        out = capsys.readouterr().out
        assert "ODB-FCFS-FirstFit" in out


class TestRunCommand:
    def test_fixed_policy(self, capsys):
        assert main([
            "run", "--model", "DAS2-fs0", "--hours", "4", "--seed", "5",
            "--policy", "ODM-UNICEF-FirstFit",
        ]) == 0
        out = capsys.readouterr().out
        assert "utility" in out

    def test_portfolio(self, capsys):
        assert main([
            "run", "--model", "DAS2-fs0", "--hours", "2", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "portfolio" in out
        assert "selections" in out

    def test_bad_policy_name(self, capsys):
        rc = main([
            "run", "--model", "DAS2-fs0", "--hours", "1", "--policy", "NOPE",
        ])
        assert rc == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_resume_refuses_a_stale_snapshot_format(self, tmp_path, capsys):
        import json

        snaps = tmp_path / "snaps"
        assert main([
            "run", "--model", "DAS2-fs0", "--hours", "2", "--seed", "5",
            "--policy", "ODM-UNICEF-FirstFit",
            "--snapshot-dir", str(snaps), "--snapshot-every-events", "200",
        ]) == 0
        # Rewrite every manifest as an older build's (format 5) would be.
        for path in [snaps / "MANIFEST.json", *snaps.glob("snap-*.meta.json")]:
            raw = json.loads(path.read_text())
            raw["format"] = 5
            path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["run", "--resume", "--snapshot-dir", str(snaps)]) == EX_USAGE
        err = capsys.readouterr().err
        assert "format 5" in err and "expected 6" in err

    def test_knn_predictor_flag(self, capsys):
        assert main([
            "run", "--model", "LPC-EGEE", "--hours", "2", "--seed", "5",
            "--policy", "ODX-LXF-FirstFit", "--predictor", "knn",
        ]) == 0

    def test_spot_run_exports_counters(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "spot.json"
        assert main([
            "run", "--model", "DAS2-fs0", "--hours", "3", "--seed", "29",
            "--policy", "ODA-UNICEF-FirstFit",
            "--spot-fraction", "1.0", "--preempt-rate", "2.0",
            "--checkpoint-interval", "300", "--audit", "strict",
            "--export-json", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "spot market" in out
        payload = json.loads(out_path.read_text())
        assert payload["spot"]["spot_leases"] > 0
        assert payload["spot"]["preemptions"] > 0
        assert payload["resilience"]["jobs_failed"] == 0

    def test_spot_policies_flag_extends_the_portfolio(self, capsys):
        assert main([
            "run", "--model", "DAS2-fs0", "--hours", "1", "--seed", "5",
            "--spot-fraction", "0.5", "--spot-policies",
        ]) == 0
        assert "portfolio(n=66" in capsys.readouterr().out

    def test_fixed_spot_member_runs_without_the_flag(self, capsys):
        assert main([
            "run", "--model", "DAS2-fs0", "--hours", "2", "--seed", "5",
            "--policy", "ODA-S35-FCFS-FirstFit", "--spot-fraction", "0.5",
        ]) == 0
        assert "ODA-S35-FCFS-FirstFit" in capsys.readouterr().out


class TestPoliciesCommand:
    def test_lists_sixty(self, capsys):
        assert main(["policies"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 60
        assert "ODA-FCFS-BestFit" in lines
