"""Unit tests for the live terminal dashboard behind ``repro top``."""

import io
import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs import dash
from repro.obs import ledger
from repro.obs.dash import (
    DashSnapshot,
    collect_snapshot,
    discover_heartbeats,
    render_snapshot,
    run_dashboard,
    sentinel_verdict,
    tail_alert_events,
)
from repro.obs.ledger import RunLedger, RunRecord


@pytest.fixture(autouse=True)
def clean_env(tmp_path, monkeypatch):
    """Own ledger dir, no ambient heartbeat, no live obs registry."""
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.delenv("REPRO_FLEET_HEARTBEAT", raising=False)
    obs.disable()
    ledger.discard_run()
    yield
    ledger.discard_run()


def write_heartbeat(path, *, label="fleet:uncapped", done=False, **extra):
    data = {
        "label": label,
        "pid": 123,
        "jobs_folded": 2 if not done else 4,
        "jobs_total": 4,
        "nodes_folded": 20 if not done else 40,
        "nodes_total": 40,
        "elapsed_s": 1.5,
        "nodes_per_s": 13.3,
        "eta_s": None if done else 1.5,
        "checkpoint_age_s": None,
        "progress": 1.0 if done else 0.5,
        "done": done,
        "updated_at": "2026-01-01T00:00:00.000Z",
    }
    data.update(extra)
    path.write_text(json.dumps(data))
    return path


def seed_ledger(walls, fingerprint="fp-dash"):
    book = RunLedger()
    for i, wall in enumerate(walls):
        book.append(
            RunRecord(
                run_id=f"r{i}",
                kind="fleet",
                fingerprint=fingerprint,
                wall_s=wall,
            )
        )
    return book


class TestDiscoverHeartbeats:
    def test_none_base(self):
        assert discover_heartbeats(None) == []

    def test_finds_base_and_policy_suffixes(self, tmp_path):
        base = tmp_path / "hb.json"
        write_heartbeat(base)
        write_heartbeat(tmp_path / "hb.json.capped")
        write_heartbeat(tmp_path / "hb.json.uncapped")
        (tmp_path / "hb.json.other").write_text("{}")  # not a known suffix
        found = discover_heartbeats(base)
        assert [p.name for p in found] == [
            "hb.json",
            "hb.json.capped",
            "hb.json.uncapped",
        ]

    def test_suffix_only_layout(self, tmp_path):
        # The fleet comparison never writes the bare base path.
        base = tmp_path / "hb.json"
        write_heartbeat(tmp_path / "hb.json.capped")
        assert [p.name for p in discover_heartbeats(base)] == ["hb.json.capped"]


class TestFleetWritesWhatDashReads:
    def test_policy_heartbeats_discovered(self, tmp_path):
        """The fleet's heartbeat writer and the dashboard's reader share
        one per-policy suffix rule."""
        from repro.capping.fleet import compare_fleet_policies_traced
        from repro.runner.engine import EngineConfig

        base = tmp_path / "hb.json"
        compare_fleet_policies_traced(
            n_jobs=4,
            n_nodes=6,
            seed=3,
            engine_config=EngineConfig(base_interval_s=1.0),
            heartbeat=base,
        )
        beats = collect_snapshot(base).heartbeats
        assert [beat["label"] for beat in beats] == [
            "fleet:50% TDP policy",
            "fleet:uncapped",
        ]
        assert all(beat["done"] for beat in beats)


class TestAlertTail:
    def test_missing_sources(self, tmp_path):
        assert tail_alert_events(None) == ([], 0)
        assert tail_alert_events(tmp_path / "absent.jsonl") == ([], 0)

    def test_firing_count_replays_lifecycle(self, tmp_path):
        log = tmp_path / "alerts.jsonl"
        events = [
            {"event": "firing", "rule": "hot", "node": "n1", "time_s": 1},
            {"event": "firing", "rule": "hot", "node": "n2", "time_s": 2},
            {"event": "resolved", "rule": "hot", "node": "n1", "time_s": 3},
        ]
        log.write_text("".join(json.dumps(e) + "\n" for e in events))
        tail, firing = tail_alert_events(log)
        assert len(tail) == 3
        assert firing == 1  # n2 still firing

    def test_torn_tail_line_is_skipped(self, tmp_path):
        log = tmp_path / "alerts.jsonl"
        log.write_text(
            json.dumps({"event": "firing", "rule": "r", "node": "n"})
            + "\n"
            + '{"event": "firi'  # writer crashed mid-line
        )
        tail, firing = tail_alert_events(log)
        assert len(tail) == 1
        assert firing == 1

    def test_limit_keeps_most_recent(self, tmp_path):
        log = tmp_path / "alerts.jsonl"
        log.write_text(
            "".join(
                json.dumps(
                    {"event": "firing", "rule": "r", "node": f"n{i}", "time_s": i}
                )
                + "\n"
                for i in range(10)
            )
        )
        tail, firing = tail_alert_events(log, limit=3)
        assert [e["node"] for e in tail] == ["n7", "n8", "n9"]
        assert firing == 10


    def test_reads_every_policy_log_beside_the_base(self, tmp_path):
        base = tmp_path / "alerts.jsonl"
        for suffix, nodes in ((".capped", ["n1", "n2"]), (".uncapped", ["n3"])):
            (tmp_path / f"alerts.jsonl{suffix}").write_text(
                "".join(
                    json.dumps({"event": "firing", "rule": "r", "node": node}) + "\n"
                    for node in nodes
                )
            )
        tail, firing = tail_alert_events(base)
        assert [(e["policy"], e["node"]) for e in tail] == [
            ("capped", "n1"), ("capped", "n2"), ("uncapped", "n3")
        ]
        assert firing == 3
        assert "[uncapped]" in render_snapshot(
            DashSnapshot(alerts=tail, alerts_firing=firing)
        )


class TestDashSnapshot:
    def test_done_requires_heartbeats(self):
        assert DashSnapshot().done is False
        assert DashSnapshot(heartbeats=[{"done": True}]).done is True
        assert (
            DashSnapshot(heartbeats=[{"done": True}, {"done": False}]).done
            is False
        )

    def test_to_json_is_serializable(self):
        snapshot = DashSnapshot(heartbeats=[{"done": True}], alerts_firing=2)
        data = json.loads(json.dumps(snapshot.to_json()))
        assert data["done"] is True
        assert data["alerts_firing"] == 2


class TestSentinelVerdict:
    def test_empty_ledger(self):
        assert sentinel_verdict() is None

    def test_regressed_last_run(self):
        seed_ledger((1.0, 1.02, 0.98, 2.0))
        verdict = sentinel_verdict()
        assert verdict["verdict"] == "REGRESSED"
        assert verdict["history"] == 3
        assert any("wall time" in f for f in verdict["findings"])

    def test_quiet_history_is_ok(self):
        seed_ledger((1.0, 1.02, 0.98, 1.01))
        assert sentinel_verdict()["verdict"] == "ok"


class TestCollectSnapshot:
    def test_empty_world(self):
        snapshot = collect_snapshot(None)
        assert snapshot.heartbeats == []
        assert snapshot.done is False
        assert snapshot.sentinel is None

    def test_beats_gain_staleness_and_path(self, tmp_path):
        base = write_heartbeat(tmp_path / "hb.json")
        now = base.stat().st_mtime + 42.0
        snapshot = collect_snapshot(base, now=lambda: now)
        (beat,) = snapshot.heartbeats
        assert beat["stale_s"] == pytest.approx(42.0, abs=0.1)
        assert beat["path"] == str(base)
        assert snapshot.sentinel is None  # still running: no verdict yet

    def test_env_fallback_for_heartbeat_base(self, tmp_path, monkeypatch):
        base = write_heartbeat(tmp_path / "hb.json")
        monkeypatch.setenv("REPRO_FLEET_HEARTBEAT", str(base))
        snapshot = collect_snapshot(None)
        assert len(snapshot.heartbeats) == 1

    def test_corrupt_heartbeat_is_skipped(self, tmp_path):
        base = tmp_path / "hb.json"
        base.write_text("{half a snaps")  # raced the atomic replace
        assert collect_snapshot(base).heartbeats == []

    def test_done_run_attaches_sentinel_and_last_run(self, tmp_path):
        seed_ledger((1.0, 1.02, 0.98, 2.0))
        base = write_heartbeat(tmp_path / "hb.json", done=True)
        snapshot = collect_snapshot(base)
        assert snapshot.done is True
        assert snapshot.sentinel["verdict"] == "REGRESSED"
        assert snapshot.last_run["run_id"] == "r3"

    def test_metrics_from_exported_file(self, tmp_path):
        metrics = {
            "repro_jobs_folded_total": {
                "type": "counter",
                "values": {"policy=uncapped": 4},
            }
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(metrics))
        snapshot = collect_snapshot(None, metrics_path=path)
        assert snapshot.metrics == metrics


class TestRender:
    def test_empty_frame_points_at_publishing(self):
        text = render_snapshot(DashSnapshot(updated_at="T"))
        assert "no heartbeat found" in text

    def test_progress_line_content(self, tmp_path):
        base = write_heartbeat(tmp_path / "hb.json")
        snapshot = collect_snapshot(base)
        text = render_snapshot(snapshot)
        assert "fleet:uncapped" in text
        assert "50.0%" in text
        assert "jobs 2/4" in text
        assert "ETA" in text

    def test_done_and_stale_flags(self, tmp_path):
        running = write_heartbeat(
            tmp_path / "hb.json.capped", label="fleet:capped"
        )
        done = write_heartbeat(
            tmp_path / "hb.json.uncapped", label="fleet:uncapped", done=True
        )
        now = running.stat().st_mtime + 120.0
        snapshot = collect_snapshot(tmp_path / "hb.json", now=lambda: now)
        text = render_snapshot(snapshot)
        capped_line = next(l for l in text.splitlines() if "fleet:capped" in l)
        uncapped_line = next(
            l for l in text.splitlines() if "fleet:uncapped" in l
        )
        assert "STALE" in capped_line  # old and not done
        assert "STALE" not in uncapped_line  # done runs cannot be stale
        assert "done" in uncapped_line

    def test_alerts_metrics_and_sentinel_sections(self):
        snapshot = DashSnapshot(
            heartbeats=[{"label": "x", "progress": 1.0, "done": True}],
            alerts=[
                {
                    "event": "firing",
                    "severity": "critical",
                    "rule": "power_spike",
                    "node": "n7",
                    "time_s": 12.0,
                }
            ],
            alerts_firing=1,
            metrics={
                "repro_jobs_folded_total": {
                    "type": "counter",
                    "values": {"policy=a": 2, "policy=b": 3},
                }
            },
            sentinel={
                "run_id": "r9",
                "kind": "fleet",
                "history": 3,
                "verdict": "REGRESSED",
                "findings": ["wall time doubled"],
            },
            updated_at="T",
        )
        text = render_snapshot(snapshot)
        assert "alerts (1 firing):" in text
        assert "power_spike" in text
        assert "repro_jobs_folded_total" in text and "5" in text
        assert "sentinel: run r9 (fleet) vs 3 comparable run(s) — REGRESSED" in text
        assert "! wall time doubled" in text


class TestRunDashboard:
    def test_once_without_heartbeat_exits_2(self):
        stream = io.StringIO()
        assert run_dashboard(None, once=True, stream=stream) == 2
        assert "no heartbeat found" in stream.getvalue()

    def test_once_json_emits_valid_snapshot(self, tmp_path):
        base = write_heartbeat(tmp_path / "hb.json", done=True)
        seed_ledger((1.0, 1.02, 0.98))
        stream = io.StringIO()
        assert run_dashboard(base, once=True, json_out=True, stream=stream) == 0
        data = json.loads(stream.getvalue())
        assert data["done"] is True
        assert data["heartbeats"][0]["label"] == "fleet:uncapped"
        assert data["sentinel"]["verdict"] == "ok"

    def test_live_loop_stops_when_done(self, tmp_path):
        base = write_heartbeat(tmp_path / "hb.json", done=True)
        stream = io.StringIO()
        naps = []
        assert (
            run_dashboard(base, stream=stream, sleep=naps.append) == 0
        )
        assert naps == []  # done on the first frame: never slept

    def test_live_loop_honours_duration(self, tmp_path):
        base = write_heartbeat(tmp_path / "hb.json", done=False)
        stream = io.StringIO()
        naps = []
        assert (
            run_dashboard(
                base, duration_s=0.0, stream=stream, sleep=naps.append
            )
            == 0
        )
        assert naps == []  # deadline already passed after one frame
        assert "fleet:uncapped" in stream.getvalue()

    def test_cli_once_json(self, tmp_path, capsys):
        base = write_heartbeat(tmp_path / "hb.json", done=True)
        assert (
            main(["top", "--heartbeat", str(base), "--once", "--json"]) == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["done"] is True

    def test_cli_once_no_heartbeat(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["top", "--heartbeat", str(missing), "--once"]) == 2
        capsys.readouterr()

    def test_cli_once_alert_log_without_heartbeat(self, tmp_path, capsys):
        """Alert events alone are something to show: exit 0, not 2."""
        log = tmp_path / "alerts.jsonl"
        log.write_text(
            json.dumps({"event": "firing", "rule": "sampler-stale", "node": "n1"})
            + "\n"
        )
        argv = ["top", "--once", "--json", "--alert-log", str(log)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["alerts"][0]["node"] == "n1"
