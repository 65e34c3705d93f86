"""Unit tests for the live fleet-progress heartbeat."""

import json

import pytest

from repro import config, obs
from repro.capping import fleet
from repro.capping.fleet import FleetRun, job_stream, simulate_fleet_traced
from repro.obs.heartbeat import (
    HeartbeatSnapshot,
    RunHeartbeat,
    read_heartbeat,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


class TestRunHeartbeat:
    def test_throttles_below_min_interval(self, clock):
        beat = RunHeartbeat(min_interval_s=1.0, clock=clock)
        assert beat.update(1, 10) is not None
        clock.advance(0.25)
        assert beat.update(2, 20) is None  # inside the window: dropped
        clock.advance(1.0)
        assert beat.update(3, 30) is not None
        assert beat.update(4, 40, force=True) is not None  # force bypasses
        assert beat.emits == 3

    def test_rate_and_eta_are_node_weighted(self, clock):
        beat = RunHeartbeat(
            jobs_total=10, nodes_total=100, min_interval_s=0.0, clock=clock
        )
        clock.advance(10.0)
        snapshot = beat.update(4, 40)
        assert snapshot.nodes_per_s == pytest.approx(4.0)
        assert snapshot.eta_s == pytest.approx(60 / 4.0)
        assert snapshot.progress == pytest.approx(0.4)

    def test_no_rate_means_no_eta(self, clock):
        beat = RunHeartbeat(nodes_total=50, min_interval_s=0.0, clock=clock)
        clock.advance(5.0)
        assert beat.update(0, 0).eta_s is None

    def test_zero_elapsed_update_is_safe(self, clock):
        # First fold lands inside clock resolution: no ZeroDivisionError,
        # no inf in the JSON the file sink would publish.
        beat = RunHeartbeat(
            jobs_total=2, nodes_total=10, min_interval_s=0.0, clock=clock
        )
        snapshot = beat.update(1, 5)
        assert snapshot.nodes_per_s == 0.0
        assert snapshot.eta_s is None
        json.dumps(snapshot.to_json())

    def test_fully_resumed_run_reports_null_eta(self, clock):
        # Everything came from the checkpoint; this process did no fresh
        # work, so there is no honest rate (and no ETA) to report.
        beat = RunHeartbeat(
            jobs_total=4, nodes_total=40, min_interval_s=0.0, clock=clock
        )
        beat.resume_baseline(4, 40)
        clock.advance(3.0)
        snapshot = beat.update(4, 40)
        assert snapshot.nodes_per_s == 0.0
        assert snapshot.eta_s is None
        json.dumps(snapshot.to_json())

    def test_resume_baseline_excluded_from_rate(self, clock):
        beat = RunHeartbeat(
            jobs_total=10, nodes_total=100, min_interval_s=0.0, clock=clock
        )
        beat.resume_baseline(5, 50)
        clock.advance(10.0)
        snapshot = beat.update(6, 60)
        # 10 fresh nodes over 10 s — the resumed 50 cost nothing this run.
        assert snapshot.nodes_per_s == pytest.approx(1.0)
        assert snapshot.eta_s == pytest.approx(40.0)

    def test_checkpoint_age_tracked(self, clock):
        beat = RunHeartbeat(nodes_total=10, min_interval_s=0.0, clock=clock)
        assert beat.update(1, 1).checkpoint_age_s is None
        beat.note_checkpoint()
        clock.advance(7.0)
        assert beat.update(2, 2).checkpoint_age_s == pytest.approx(7.0)

    def test_finish_emits_done_snapshot(self, clock):
        beat = RunHeartbeat(
            jobs_total=2, nodes_total=4, min_interval_s=100.0, clock=clock
        )
        beat.update(1, 2)
        snapshot = beat.finish(2, 4)  # inside throttle window, still emits
        assert snapshot.done is True
        assert snapshot.eta_s == 0.0
        assert snapshot.progress == 1.0

    def test_file_is_written_atomically_and_parses(self, tmp_path, clock):
        path = tmp_path / "hb.json"
        beat = RunHeartbeat(
            path, jobs_total=3, nodes_total=6, min_interval_s=0.0, clock=clock
        )
        beat.update(1, 2)
        data = read_heartbeat(path)
        assert data["jobs_folded"] == 1
        assert data["nodes_total"] == 6
        assert not list(tmp_path.glob("*.tmp.*"))  # no temp litter

    def test_write_failure_disables_file_not_run(self, tmp_path, clock):
        target = tmp_path / "not-a-dir"
        target.write_text("a file where the parent dir should be")
        beat = RunHeartbeat(
            target / "hb.json", min_interval_s=0.0, clock=clock
        )
        snapshot = beat.update(1, 1)  # must not raise
        assert snapshot is not None
        assert beat.path is None  # file publishing disabled after failure

    def test_snapshot_progress_fallbacks(self):
        jobs_only = HeartbeatSnapshot(
            label="x", pid=1, jobs_folded=1, jobs_total=4, nodes_folded=0,
            nodes_total=0, elapsed_s=0.0, nodes_per_s=0.0, eta_s=None,
            checkpoint_age_s=None, done=False, updated_at="",
        )
        assert jobs_only.progress == pytest.approx(0.25)

    def test_env_activation(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_HEARTBEAT", raising=False)
        assert config.read("REPRO_FLEET_HEARTBEAT") is None
        monkeypatch.setenv("REPRO_FLEET_HEARTBEAT", str(tmp_path / "hb.json"))
        assert config.read("REPRO_FLEET_HEARTBEAT") == tmp_path / "hb.json"


@pytest.fixture
def snapshots(monkeypatch):
    """Every snapshot a fleet run's heartbeats emit, unthrottled."""
    collected = []

    class RecordingHeartbeat(RunHeartbeat):
        def update(self, *args, **kwargs):
            snapshot = super().update(*args, **kwargs)
            if snapshot is not None:
                collected.append(snapshot)
            return snapshot

    monkeypatch.setattr(fleet, "HEARTBEAT_INTERVAL_S", 0.0)
    monkeypatch.setattr(fleet, "RunHeartbeat", RecordingHeartbeat)
    return collected


class TestFleetIntegration:
    def test_fleet_heartbeat_observation_only(self, tmp_path, snapshots):
        """A heartbeat-enabled run produces bit-identical reports."""
        obs.disable()
        jobs = job_stream(n_jobs=4, seed=3)
        run = FleetRun(jobs, "uncapped", n_nodes=6)
        quiet = simulate_fleet_traced(run)
        assert snapshots == []  # no heartbeat path: no heartbeat
        path = tmp_path / "hb.json"
        loud = simulate_fleet_traced(run, heartbeat=path)
        assert loud.system == quiet.system
        assert loud.node_power_mean_w == quiet.node_power_mean_w
        # One snapshot per folded job plus the terminal one.
        assert len(snapshots) == len(jobs) + 1
        assert snapshots[-1].done is True
        assert snapshots[-1].jobs_folded == len(jobs)
        final = json.loads(path.read_text())
        assert final["done"] is True
        assert final["progress"] == 1.0
        assert final["label"] == "fleet:uncapped"

    def test_fleet_heartbeat_sharded(self, tmp_path, snapshots):
        obs.disable()
        jobs = job_stream(n_jobs=4, seed=3)
        simulate_fleet_traced(
            FleetRun(jobs, "uncapped", n_nodes=6),
            workers=2,
            heartbeat=tmp_path / "hb.json",
        )
        assert snapshots[-1].done is True
        assert snapshots[-1].jobs_folded == len(jobs)
