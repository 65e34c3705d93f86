"""CLI surface for monitoring: `repro monitor`, --monitor flags, obs status."""

import json
import re

import pytest

from repro.cli import main


class TestMonitorCommand:
    def test_monitor_run_prints_dashboard_and_report(self, capsys):
        rc = main(
            ["monitor", "--jobs", "4", "--nodes", "6", "--seed", "3",
             "--resolution", "1.0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet monitor: 50% TDP policy" in out
        assert "health signals" in out
        assert "per-job power report" in out
        assert "energy accounting" in out

    def test_monitor_uncapped_policy(self, capsys):
        rc = main(
            ["monitor", "--jobs", "2", "--nodes", "4", "--policy", "uncapped",
             "--resolution", "1.0"]
        )
        assert rc == 0
        assert "fleet monitor: uncapped" in capsys.readouterr().out

    def test_monitor_exports(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        log = tmp_path / "alerts.jsonl"
        rc = main(
            ["monitor", "--jobs", "3", "--nodes", "4", "--seed", "1",
             "--resolution", "1.0",
             "--report-json", str(report), "--alert-log", str(log)]
        )
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["energy"]["totals"]["jobs"] == 3
        assert payload["chunks_observed"] > 0
        out = capsys.readouterr().out
        assert str(report) in out
        assert str(log) in out


class TestMonitorFlags:
    def test_fleet_monitor_flag_prints_both_dashboards(self, capsys):
        rc = main(
            ["fleet", "--jobs", "3", "--nodes", "4", "--seed", "2",
             "--resolution", "1.0", "--monitor"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet monitor: 50% TDP policy" in out
        assert "fleet monitor: uncapped" in out

    def test_fleet_monitor_writes_one_alert_log_per_policy(
        self, capsys, monkeypatch, tmp_path
    ):
        """Each policy's monitor streams its own log, holding exactly the
        events its dashboard counts; nothing lands at the base path."""
        base = tmp_path / "alerts.jsonl"
        monkeypatch.setenv("REPRO_MONITOR_LOG", str(base))
        rc = main(
            ["fleet", "--jobs", "6", "--nodes", "8", "--seed", "3",
             "--resolution", "1.0", "--monitor"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        counts = dict(
            re.findall(
                r"fleet monitor: (.+?)\n.*?alerts \((\d+ fired, \d+ resolved)\)",
                out,
                re.S,
            )
        )
        assert not base.exists()
        for label, suffix in (("50% TDP policy", "capped"), ("uncapped", "uncapped")):
            events = [
                json.loads(line)
                for line in (tmp_path / f"alerts.jsonl.{suffix}").read_text().splitlines()
            ]
            fired = sum(e["event"] == "firing" for e in events)
            resolved = sum(e["event"] == "resolved" for e in events)
            assert fired > 0
            assert counts[label] == f"{fired} fired, {resolved} resolved"

    def test_cap_sweep_monitor_flag(self, capsys):
        rc = main(
            ["cap-sweep", "PdO2", "--caps", "400", "200", "--nodes", "1",
             "--monitor"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cap sweep" in out
        assert "fleet monitor: PdO2 cap sweep" in out
        assert "energy accounting" in out


class TestMonitorCheckpoint:
    """Monitor state is not checkpointable: no run may mix the two."""

    def test_monitor_ignores_the_fleet_checkpoint_variable(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_FLEET_CHECKPOINT", str(tmp_path / "m.ckpt"))
        rc = main(["monitor", "--jobs", "2", "--nodes", "4"])
        assert rc == 0
        assert "fleet monitor: 50% TDP policy" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_monitored_fleet_refuses_a_checkpoint(
        self, source, capsys, monkeypatch, tmp_path
    ):
        path = tmp_path / "f.ckpt"
        argv = ["fleet", "--monitor", "--jobs", "2", "--nodes", "4"]
        if source == "flag":
            argv += ["--checkpoint", str(path)]
        else:
            monkeypatch.setenv("REPRO_FLEET_CHECKPOINT", str(path))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: monitor state is not checkpointable")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestObsStatus:
    def test_obs_status_reports_monitor_state(self, capsys):
        assert main(["obs"]) == 0
        out = capsys.readouterr().out
        # The monitor's one process-wide setting; a fresh `repro obs`
        # process has no live collectors to count.
        assert "REPRO_MONITOR_LOG" in out
