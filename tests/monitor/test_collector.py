"""FleetMonitor end-to-end: bit-identity, signal coverage, reports.

Every test runs the monitor at its constant thresholds; a signal is
made to fire by its input — a real fleet run, or hand-built traces of a
faulty fleet (:func:`faulty_run`).
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.capping.fleet import FleetRun, job_stream, simulate_fleet_traced
from repro.experiments.common import run_workload
from repro.hardware.node import GpuNode
from repro.hardware.platform import NodeSpec, get_platform
from repro.monitor import SIGNAL_KINDS, FleetMonitor, render_dashboard
from repro.runner import engine as engine_module
from repro.runner.engine import EngineConfig
from repro.runner.trace import COMPONENT_KEYS, PowerTrace, RunResult
from repro.vasp.benchmarks import benchmark

ENGINE = EngineConfig(base_interval_s=1.0)
FLEET_KW = dict(n_nodes=8, bin_s=4.0, engine_config=ENGINE, seed=3)
SAMPLES = 32


def node_trace(name, node_w, gpu_w=195.0, times=None):
    """One node's trace: constant GPU draw, node power ``node_w``."""
    times = np.arange(SAMPLES) + 0.5 if times is None else times
    series = {key: np.full(SAMPLES, 60.0) for key in COMPONENT_KEYS}
    series["node"] = np.broadcast_to(node_w, SAMPLES).astype(float)
    for gpu in ("gpu0", "gpu1", "gpu2", "gpu3"):
        series[gpu] = np.full(SAMPLES, gpu_w)
    return PowerTrace.from_components(name, times, series, 1.0)


def faulty_run():
    """A 10-node job at a 200 W cap that trips every detector.

    Every GPU sits at 195 W, inside the 5 % throttle band (throttle
    residency 100 %).  ``hot`` draws 1400 W against ~900 W elsewhere
    (fleet drift, z = 3) and two of its GPUs run at 230 W, past the 2 %
    tolerance (two cap violations: the alert fires on the second).
    ``n1`` overshoots once (one violation: debounced, no alert).  ``n0``
    dips to 380 W twice (idle outlier below the 410 W floor), and ``n2``
    stops reporting for 10 s mid-run (sampler staleness).
    """
    traces = []
    for i in range(9):
        name = f"n{i}"
        node_w = np.full(SAMPLES, 900.0 + i)
        times = None
        if i == 0:
            node_w[[5, 6]] = 380.0
        if i == 2:
            times = np.arange(SAMPLES) + 0.5
            times[SAMPLES // 2 :] += 10.0
        trace = node_trace(name, node_w, times=times)
        if i == 1:
            trace.component("gpu3")[7] = 230.0
        traces.append(trace)
    hot = node_trace("hot", 1400.0)
    hot.component("gpu0")[:] = 230.0
    hot.component("gpu1")[:] = 230.0
    traces.append(hot)
    return RunResult("faulty", traces, [], runtime_s=SAMPLES + 10.0, gpu_power_cap_w=200.0)


def run_fleet(monitor=None, **overrides):
    kw = {**FLEET_KW, **overrides}
    jobs = job_stream(n_jobs=6, seed=3)
    return simulate_fleet_traced(FleetRun(jobs, **kw), monitor=monitor)


def assert_monitored_run_is_bit_identical():
    """A tapped run renders every row, an untapped one node rows only."""
    plain = run_fleet()
    monitor = FleetMonitor()
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
        """A faulty fleet raises every signal kind at the constant
        thresholds, and every kind's alert fires."""
        monitor = FleetMonitor()
        monitor.observe_run(faulty_run())
        report = monitor.finalize()
        assert report.distinct_signal_kinds == len(SIGNAL_KINDS)
        assert report.signal_counts["idle_outlier"] == 1
        assert report.signal_counts["cap_violation"] == 3
        assert report.signal_counts["throttle_residency"] == 1
        assert report.signal_counts["fleet_drift"] == 1
        assert report.signal_counts["sampler_staleness"] >= 1
        fired = {(e.rule, e.node_name) for e in report.alert_events if e.event == "firing"}
        assert {rule for rule, _ in fired} == {
            "idle-power-outlier",
            "power-cap-violation",
            "heavy-throttling",
            "sampler-stale",
            "node-power-drift",
        }
        assert ("idle-power-outlier", "n0") in fired
        assert ("node-power-drift", "hot") in fired
        assert ("heavy-throttling", "faulty") in fired

    def test_cap_violation_alert_is_debounced(self):
        """Two violations on one node fire the critical alert at the
        second; a lone violation on another node fires nothing."""
        monitor = FleetMonitor()
        monitor.observe_run(faulty_run())
        report = monitor.finalize()
        violations = [s for s in report.signals if s.kind == "cap_violation"]
        assert sorted(s.node_name for s in violations) == ["hot", "hot", "n1"]
        firing = [
            e for e in report.alert_events
            if e.rule == "power-cap-violation" and e.event == "firing"
        ]
        assert [(e.node_name, e.severity) for e in firing] == [("hot", "critical")]
        assert firing[0].time_s == [s for s in violations if s.node_name == "hot"][1].time_s

    def test_alerts_fire_and_resolve(self):
        monitor = FleetMonitor()
        monitor.observe_run(faulty_run())
        report = monitor.finalize()
        assert report.alerts_fired > 0
        assert report.alerts_resolved == report.alerts_fired

    def test_every_firing_alert_resolves_at_finalize(self):
        """The monitor sweeps alerts once, at finalize, the longest quiet
        period (600 s) past the horizon: every alert that fired during
        the run resolves there, and nothing resolves before."""
        monitor = FleetMonitor()
        run_fleet(monitor=monitor)
        report = monitor.finalize()
        fired = [e for e in report.alert_events if e.event == "firing"]
        resolved = [e for e in report.alert_events if e.event == "resolved"]
        assert len(fired) == len(resolved) == 6
        assert {e.time_s for e in resolved} == {report.horizon_s + 600.0}
        assert {(e.rule, e.node_name) for e in fired} == {
            (e.rule, e.node_name) for e in resolved
        }

    def test_staleness_flags_nodes_that_finished_their_jobs(self):
        """Sampler staleness cannot tell a stopped sampler from a node
        with no job: the engine renders gap-free traces, yet the fleet
        raises 8 staleness signals — 2 for the idle time between two
        jobs on one node, 6 for nodes whose last job ended before the
        horizon."""
        monitor = FleetMonitor()
        run_fleet(monitor=monitor)
        report = monitor.finalize()
        stale = [s for s in report.signals if s.kind == "sampler_staleness"]
        assert len(stale) == 8
        last_seen = {node.node_name: node.last_seen_s for node in report.nodes}
        at_end = [s for s in stale if s.time_s == report.horizon_s]
        assert len(at_end) == 6
        for signal in at_end:
            assert signal.value == report.horizon_s - last_seen[signal.node_name]
        between = [s for s in stale if s.time_s < report.horizon_s]
        assert [s.value for s in between] == [11.0, 11.0]

    def test_energy_report_covers_every_job(self):
        monitor = FleetMonitor()
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
        monitor = FleetMonitor()
        run_fleet(monitor=monitor)
        first = monitor.finalize()
        assert monitor.finalize() is first

    def test_alert_log_sink(self, tmp_path):
        log = tmp_path / "alerts.jsonl"
        monitor = FleetMonitor(alert_log=log)
        run_fleet(monitor=monitor)
        report = monitor.finalize()
        lines = log.read_text().strip().splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        assert {e["event"] for e in events} <= {"firing", "resolved"}
        assert events == [event.to_json() for event in report.alert_events]


class TestIdleScan:
    def test_attach_pool_flags_narrowed_band(self):
        """A node whose baseboard draws 150 W extra idles above its band."""
        spec = get_platform().node
        hot = NodeSpec.from_spec(spec, baseboard_w=spec.baseboard_w + 150.0)
        nodes = [GpuNode(name=f"nid{i:06d}") for i in range(7)]
        nodes.append(GpuNode(name="nid000007", spec=hot))
        monitor = FleetMonitor()
        monitor.attach_pool(nodes)
        assert monitor.signal_counts == {"idle_outlier": 1}
        assert monitor.signals[0].node_name == "nid000007"


class TestObserveRun:
    def test_posthoc_run_monitoring(self):
        case = benchmark("PdO2")
        measured = run_workload(case.build(), n_nodes=1, gpu_cap_w=100.0, seed=7)
        monitor = FleetMonitor()
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


class TestReport:
    def test_dashboard_renders_all_sections(self):
        monitor = FleetMonitor(label="test-fleet")
        run_fleet(monitor=monitor)
        text = render_dashboard(monitor.finalize())
        assert "fleet monitor: test-fleet" in text
        assert "health signals" in text
        assert "alerts (" in text
        assert "energy accounting" in text
        assert "hottest nodes" in text

    def test_report_json_roundtrip(self, tmp_path):
        monitor = FleetMonitor()
        run_fleet(monitor=monitor)
        report = monitor.finalize()
        path = report.export_json(tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["signal_counts"] == report.signal_counts
        assert len(payload["signals"]) == report.total_signals
        assert payload["nodes"]

    def test_obs_metrics_exported(self):
        obs.enable(metrics=True)
        monitor = FleetMonitor()
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
        assert FleetMonitor().alert_log == tmp_path / "log.jsonl"
        explicit = tmp_path / "explicit.jsonl"
        assert FleetMonitor(alert_log=explicit).alert_log == explicit
        # The stream starts clean: each log exists, empty, from the start.
        assert (tmp_path / "log.jsonl").read_text() == explicit.read_text() == ""


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

    def test_zscore_degenerate_cases(self):
        from repro.hardware.system import RunningMoments

        moments = RunningMoments()
        assert moments.zscore(5.0) == 0.0
        moments.update(np.array([1.0]))
        assert moments.zscore(5.0) == 0.0  # single sample
        moments.update(np.array([1.0]))
        assert moments.zscore(5.0) == 0.0  # zero variance
        moments.update(np.array([0.0, 2.0]))
        assert moments.zscore(moments.mean + moments.std) == pytest.approx(1.0)
