"""Platform-aware health detection: spec-derived bands and tolerances."""

import numpy as np
import pytest

from repro.experiments.common import make_nodes
from repro.hardware.platform import get_platform
from repro.monitor import CapMonitor, FleetMonitor, IdleOutlierDetector
from repro.monitor.collector import JobProbe
from repro.runner.trace import COMPONENT_KEYS, PowerTrace, RunResult


def _idle_trace(name, node_w, n=8):
    """A node sitting at ``node_w`` with idle 50 W GPUs."""
    series = {key: np.full(n, 50.0) for key in COMPONENT_KEYS}
    series["node"] = np.full(n, node_w)
    return PowerTrace.from_components(name, np.arange(n) + 0.5, series, 1.0)


class TestSpecDerivedIdleBand:
    def test_h100_fleet_raises_no_spurious_outliers(self):
        """An all-H100 pool idles 460-620 W — well above the A100 band.
        With the platform wired through, a healthy pool stays quiet."""
        monitor = FleetMonitor("h100-sxm")
        monitor.attach_pool(make_nodes(8, platform="h100-sxm"))
        assert [s for s in monitor.signals if s.kind == "idle_outlier"] == []

    def test_v100_fleet_quiet_on_its_own_platform(self):
        monitor = FleetMonitor("v100-sxm2")
        monitor.attach_pool(make_nodes(8, platform="v100-sxm2"))
        assert [s for s in monitor.signals if s.kind == "idle_outlier"] == []

    def test_default_monitor_judges_nodes_by_their_own_spec(self):
        """Whatever the monitor's platform, scan_pool reads each node's
        own spec band — a mixed pool is judged per node."""
        nodes = make_nodes(4) + make_nodes(4, first=2000, platform="h100-sxm")
        assert IdleOutlierDetector().scan_pool(nodes) == []

    def test_detector_band_from_node_spec(self):
        spec = get_platform("h100-sxm").node
        det = IdleOutlierDetector(node_spec=spec)
        assert det.band("nid1") == (spec.idle_min_w, spec.idle_max_w)

    def test_check_samples_uses_node_own_band(self):
        """A node named in ``node_specs`` is judged against its own spec's
        band; any other node against the platform band."""
        h100 = get_platform("h100-sxm").node
        det = IdleOutlierDetector(node_specs={"h100": h100})  # a100 default
        times = np.arange(2.0)
        low_for_h100 = np.array([430.0, 435.0])  # healthy A100 idle
        assert det.check_samples("a100", times, low_for_h100) == []
        flagged = det.check_samples("h100", times, low_for_h100)
        assert len(flagged) == 1  # 430 W is below the H100 floor
        assert flagged[0].threshold == h100.idle_min_w

    def test_observe_run_judges_unsurveyed_nodes_by_the_platform_band(self):
        """observe_run on a node the monitor never surveyed judges it
        against the monitor platform's band: 430 W idle is healthy on an
        A100 node, below the floor of an H100 one."""
        traces = [_idle_trace("nid1", 430.0)]
        run = RunResult("idle", traces, [], runtime_s=8.0, gpu_power_cap_w=400.0)
        for platform, expected in (("a100-40g", 0), ("h100-sxm", 1)):
            monitor = FleetMonitor(platform)
            monitor.observe_run(run)
            assert monitor.signal_counts.get("idle_outlier", 0) == expected, platform


class TestSpecDerivedCapTolerance:
    def test_shallow_caps_keep_the_floor(self):
        mon = CapMonitor()
        assert mon.tolerance_for(400.0) == 0.02  # no regulation at TDP
        assert mon.tolerance_for(200.0) == 0.02  # half TDP: error ~0.1 %

    def test_deep_caps_widen_with_regulation_error(self):
        """At the A100's 100 W floor the firmware overshoots by ~8 %
        (regulation model) — the detector must not flag that as a
        violation."""
        mon = CapMonitor()
        spec = get_platform("a100-40g").gpu
        assert mon.tolerance_for(spec.cap_min_w) == pytest.approx(
            spec.regulation_error_max
        )
        assert mon.tolerance_for(120.0) > 0.02

    def test_h100_tolerance_uses_h100_regulation(self):
        spec = get_platform("h100-sxm").gpu
        mon = CapMonitor(gpu_spec=spec)
        assert mon.tolerance_for(spec.cap_min_w) == pytest.approx(
            spec.regulation_error_max
        )
        assert mon.tolerance_for(spec.tdp_w) == 0.02

    def test_monitor_config_threads_platform_to_cap_monitor(self):
        # Cap checks run in the per-job probe every monitored stream uses.
        probe = JobProbe(
            get_platform("h100-sxm"),
            job_id="j",
            n_nodes=1,
            cap_w=350.0,
            start_s=0.0,
            end_s=1.0,
            nominal_runtime_s=None,
            node_specs={},
        )
        assert probe._caps.gpu_spec.name == "NVIDIA H100-SXM5-80GB"
