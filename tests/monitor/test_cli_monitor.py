"""CLI surface for monitoring: `repro monitor`, --monitor flags, obs status."""

import json

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

    def test_monitor_env_opt_in(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_MONITOR", "1")
        rc = main(
            ["cap-sweep", "PdO2", "--caps", "400", "--nodes", "1"]
        )
        assert rc == 0
        assert "fleet monitor" in capsys.readouterr().out


class TestObsStatus:
    def test_obs_status_reports_monitor_state(self, capsys):
        assert main(["obs"]) == 0
        out = capsys.readouterr().out
        # The monitor's process-wide settings; a fresh `repro obs`
        # process has no live collectors to count.
        assert "REPRO_MONITOR " in out
        assert "REPRO_MONITOR_LOG" in out
