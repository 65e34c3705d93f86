"""FleetMonitor end-to-end: bit-identity, signal coverage, reports."""

import json

import numpy as np
import pytest

from repro import obs
from repro.capping.fleet import job_stream, simulate_fleet_traced
from repro.capping.policy import CapPolicy
from repro.config import read
from repro.experiments.common import run_workload
from repro.monitor import (
    FleetMonitor,
    MonitorConfig,
    render_dashboard,
)
from repro.runner import engine as engine_module
from repro.runner.engine import EngineConfig
from repro.telemetry.omni import OmniStore
from repro.telemetry.sampler import SampledSeries
from repro.vasp.benchmarks import benchmark

ENGINE = EngineConfig(base_interval_s=1.0)
FLEET_KW = dict(n_nodes=8, bin_s=4.0, engine_config=ENGINE, seed=3)

#: Thresholds tightened so a small test fleet trips every detector.
SENSITIVE = MonitorConfig(
    drift_z_threshold=1.0,
    violation_tolerance=0.0,
    throttle_residency_threshold=0.0,
)


def run_fleet(monitor=None, **overrides):
    kw = {**FLEET_KW, **overrides}
    jobs = job_stream(n_jobs=6, seed=3)
    return simulate_fleet_traced(
        jobs, CapPolicy.half_tdp(), "50% TDP policy", monitor=monitor, **kw
    )


def assert_monitored_run_is_bit_identical():
    """A tapped run renders every row, an untapped one node rows only."""
    plain = run_fleet()
    monitor = FleetMonitor(SENSITIVE)
    watched = run_fleet(monitor=monitor)
    assert watched.system == plain.system
    assert watched.node_power_mean_w == plain.node_power_mean_w
    assert watched.node_power_std_w == plain.node_power_std_w
    assert watched.node_power_peak_w == plain.node_power_peak_w
    assert watched.chunks_streamed == plain.chunks_streamed
    # ... while the monitor actually observed the run:
    report = monitor.finalize()
    assert report.chunks_observed > 0
    assert report.samples_observed > 0


class TestBitIdentity:
    def test_monitored_run_is_bit_identical(self):
        assert_monitored_run_is_bit_identical()

    def test_monitored_run_is_bit_identical_at_small_chunks(self, monkeypatch):
        """Chunk edges inside phases, tapped and untapped."""
        monkeypatch.setattr(engine_module, "RENDER_CHUNK", 17)
        assert_monitored_run_is_bit_identical()


class TestHealthCoverage:
    def test_emits_at_least_four_signal_kinds(self):
        monitor = FleetMonitor(SENSITIVE)
        run_fleet(monitor=monitor)
        report = monitor.finalize()
        assert report.distinct_signal_kinds >= 4
        for kind in (
            "cap_violation",
            "throttle_residency",
            "sampler_staleness",
            "fleet_drift",
        ):
            assert report.signal_counts.get(kind, 0) > 0, kind

    def test_alerts_fire_and_resolve(self):
        monitor = FleetMonitor(SENSITIVE)
        run_fleet(monitor=monitor)
        report = monitor.finalize()
        assert report.alerts_fired > 0
        assert report.alerts_resolved > 0

    def test_energy_report_covers_every_job(self):
        monitor = FleetMonitor(SENSITIVE)
        fleet = run_fleet(monitor=monitor)
        report = monitor.finalize()
        jobs = report.energy["jobs"]
        assert len(jobs) == fleet.jobs_completed == 6
        totals = report.energy["totals"]
        assert totals["energy_j"] > 0
        assert totals["node_seconds"] > 0
        for job in jobs:
            assert job["energy_j"] > 0
            assert job["mean_node_power_w"] > 0
            assert job["cap_slowdown"] >= 1.0

    def test_finalize_is_idempotent(self):
        monitor = FleetMonitor(SENSITIVE)
        run_fleet(monitor=monitor)
        first = monitor.finalize()
        assert monitor.finalize() is first

    def test_alert_log_sink(self, tmp_path):
        log = tmp_path / "alerts.jsonl"
        config = MonitorConfig(
            drift_z_threshold=1.0,
            violation_tolerance=0.0,
            throttle_residency_threshold=0.0,
            alert_log=log,
        )
        monitor = FleetMonitor(config)
        run_fleet(monitor=monitor)
        monitor.finalize()
        lines = log.read_text().strip().splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        assert {e["event"] for e in events} <= {"firing", "resolved"}


class TestIdleScan:
    def test_attach_pool_flags_narrowed_band(self):
        from repro.hardware.node import GpuNode

        nodes = [GpuNode(name=f"nid{i:06d}") for i in range(8)]
        idles = [n.idle_sample().node_w for n in nodes]
        config = MonitorConfig(idle_max_w=float(np.median(idles)))
        monitor = FleetMonitor(config)
        monitor.attach_pool(nodes)
        assert monitor.signal_counts.get("idle_outlier", 0) > 0


class TestObserveRun:
    def test_posthoc_run_monitoring(self):
        case = benchmark("PdO2")
        measured = run_workload(case.build(), n_nodes=1, gpu_cap_w=100.0, seed=7)
        monitor = FleetMonitor(
            MonitorConfig(throttle_residency_threshold=0.01)
        )
        monitor.observe_run(
            measured.result,
            job_id="PdO2@100W",
            nominal_runtime_s=measured.runtime_s * 0.9,
        )
        report = monitor.finalize()
        jobs = report.energy["jobs"]
        assert len(jobs) == 1
        assert jobs[0]["job_id"] == "PdO2@100W"
        # Deposited energy matches the trace's own accounting.
        assert jobs[0]["energy_j"] == pytest.approx(
            measured.result.total_energy_j(), rel=1e-6
        )
        assert jobs[0]["cap_slowdown"] == pytest.approx(1.0 / 0.9, rel=1e-3)
        # The 100 W floor cap pins the GPU: residency must register.
        assert jobs[0]["cap_residency"] > 0.05


class TestOmniSubscription:
    def test_ingest_series_watches_store_streams(self):
        store = OmniStore()
        monitor = FleetMonitor(MonitorConfig(idle_min_w=410.0, idle_max_w=510.0))
        store.subscribe(monitor.ingest_series)
        times = np.arange(0.0, 20.0, 2.0)
        store.ingest(
            SampledSeries(
                node_name="nid1", component="node",
                times=times, values=np.full(times.size, 460.0),
            )
        )
        # A gappy stream on another node: staleness must fire.
        gappy = np.array([0.0, 2.0, 30.0])
        store.ingest(
            SampledSeries(
                node_name="nid2", component="node",
                times=gappy, values=np.array([470.0, 300.0, 465.0]),
            )
        )
        assert monitor.signal_counts.get("sampler_staleness", 0) >= 1
        assert monitor.signal_counts.get("idle_outlier", 0) >= 1
        assert monitor.samples_observed == times.size + gappy.size

    def test_non_node_components_only_feed_staleness(self):
        store = OmniStore()
        monitor = FleetMonitor()
        store.subscribe(monitor.ingest_series)
        store.ingest(
            SampledSeries(
                node_name="nid1", component="gpu0",
                times=np.array([0.0, 50.0]), values=np.array([100.0, 100.0]),
            )
        )
        assert monitor.signal_counts.get("sampler_staleness", 0) == 1
        assert monitor.chunks_observed == 0  # gpu streams are not buffered


class TestReport:
    def test_dashboard_renders_all_sections(self):
        monitor = FleetMonitor(SENSITIVE, label="test-fleet")
        run_fleet(monitor=monitor)
        text = render_dashboard(monitor.finalize())
        assert "fleet monitor: test-fleet" in text
        assert "health signals" in text
        assert "alerts (" in text
        assert "energy accounting" in text
        assert "hottest nodes" in text

    def test_report_json_roundtrip(self, tmp_path):
        monitor = FleetMonitor(SENSITIVE)
        run_fleet(monitor=monitor)
        report = monitor.finalize()
        path = report.export_json(tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["signal_counts"] == report.signal_counts
        assert len(payload["signals"]) == report.total_signals
        assert payload["nodes"]

    def test_obs_metrics_exported(self):
        obs.enable(metrics=True)
        monitor = FleetMonitor(SENSITIVE)
        run_fleet(monitor=monitor)
        monitor.finalize()
        registry = obs.metrics()
        assert registry.get("repro_monitor_signals_total").total() > 0
        assert registry.get("repro_monitor_chunks_total").total() > 0
        assert registry.get("repro_monitor_energy_joules_total").value() > 0
        assert 1.0 <= registry.get("repro_monitor_nodes_watched").value() <= 8.0


class TestConfig:
    def test_alert_log_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MONITOR_LOG", str(tmp_path / "log.jsonl"))
        assert MonitorConfig().resolved_alert_log() == tmp_path / "log.jsonl"
        assert MonitorConfig(alert_log="explicit.jsonl").resolved_alert_log().name == "explicit.jsonl"

    def test_monitoring_requested_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_MONITOR", raising=False)
        assert not read("REPRO_MONITOR")
        monkeypatch.setenv("REPRO_MONITOR", "0")
        assert not read("REPRO_MONITOR")
        monkeypatch.setenv("REPRO_MONITOR", "1")
        assert read("REPRO_MONITOR")


class TestRunningMomentsExtensions:
    def test_merge_matches_single_stream(self):
        from repro.hardware.system import RunningMoments

        rng = np.random.default_rng(11)
        a, b = rng.normal(900, 40, 300), rng.normal(950, 60, 200)
        left, right, whole = RunningMoments(), RunningMoments(), RunningMoments()
        left.update(a)
        right.update(b)
        whole.update(np.concatenate([a, b]))
        left.merge(right)
        assert left.count == whole.count
        assert left.mean == pytest.approx(whole.mean)
        assert left.variance == pytest.approx(whole.variance)
        assert left.peak == whole.peak

    def test_merge_into_empty(self):
        from repro.hardware.system import RunningMoments

        src, dst = RunningMoments(), RunningMoments()
        src.update(np.array([1.0, 2.0, 3.0]))
        dst.merge(src)
        assert dst.count == 3
        assert dst.mean == pytest.approx(2.0)
        dst.merge(RunningMoments())  # merging empty is a no-op
        assert dst.count == 3

    def test_update_scalar_matches_batch(self):
        from repro.hardware.system import RunningMoments

        values = [3.0, 7.0, 1.0, 9.0]
        scalar, batch = RunningMoments(), RunningMoments()
        for v in values:
            scalar.update_scalar(v)
        batch.update(np.array(values))
        assert scalar.mean == pytest.approx(batch.mean)
        assert scalar.variance == pytest.approx(batch.variance)

    def test_zscore_degenerate_cases(self):
        from repro.hardware.system import RunningMoments

        moments = RunningMoments()
        assert moments.zscore(5.0) == 0.0
        moments.update_scalar(1.0)
        assert moments.zscore(5.0) == 0.0  # single sample
        moments.update_scalar(1.0)
        assert moments.zscore(5.0) == 0.0  # zero variance
        moments.update(np.array([0.0, 2.0]))
        assert moments.zscore(moments.mean + moments.std) == pytest.approx(1.0)
