"""Platform-aware health detection: spec-derived bands and tolerances."""

import numpy as np
import pytest

from repro.experiments.common import make_nodes
from repro.hardware.platform import get_platform
from repro.monitor import CapMonitor, FleetMonitor, IdleOutlierDetector, MonitorConfig
from repro.monitor.collector import JobProbe


class TestSpecDerivedIdleBand:
    def test_h100_fleet_raises_no_spurious_outliers(self):
        """An all-H100 pool idles 460-620 W — well above the A100 band.
        With the platform wired through, a healthy pool stays quiet."""
        monitor = FleetMonitor(MonitorConfig(platform="h100-sxm"))
        monitor.attach_pool(make_nodes(8, platform="h100-sxm"))
        assert [s for s in monitor.signals if s.kind == "idle_outlier"] == []

    def test_v100_fleet_quiet_on_its_own_platform(self):
        monitor = FleetMonitor(MonitorConfig(platform="v100-sxm2"))
        monitor.attach_pool(make_nodes(8, platform="v100-sxm2"))
        assert [s for s in monitor.signals if s.kind == "idle_outlier"] == []

    def test_default_monitor_judges_nodes_by_their_own_spec(self):
        """Even without a platform in the config, scan_pool reads each
        node's own spec band — a mixed pool is judged per node."""
        nodes = make_nodes(4) + make_nodes(4, first=2000, platform="h100-sxm")
        assert IdleOutlierDetector().scan_pool(nodes) == []

    def test_explicit_band_still_wins(self):
        """An operator-supplied band applies to every node, platform or
        not — that is the point of overriding."""
        nodes = make_nodes(4, platform="h100-sxm")
        det = IdleOutlierDetector(idle_min_w=410.0, idle_max_w=510.0)
        signals = det.scan_pool(nodes)
        # H100 nodes idle around 540 W: most land above the 510 W ceiling.
        assert signals
        assert all(s.kind == "idle_outlier" for s in signals)

    def test_detector_band_from_node_spec(self):
        spec = get_platform("h100-sxm").node
        det = IdleOutlierDetector(node_spec=spec)
        assert (det.idle_min_w, det.idle_max_w) == (spec.idle_min_w, spec.idle_max_w)

    def test_check_samples_per_call_override(self):
        det = IdleOutlierDetector()  # a100 default band
        times = np.arange(2.0)
        values = np.array([540.0, 545.0])  # healthy H100 idle
        assert det.check_samples("nid1", times, values) == []  # busy for A100
        spec = get_platform("h100-sxm").node
        flagged = det.check_samples(
            "nid1", times, np.array([430.0, 435.0]),
            idle_min_w=spec.idle_min_w, idle_max_w=spec.idle_max_w,
        )
        assert len(flagged) == 1  # 430 W is below the H100 floor


class TestSpecDerivedCapTolerance:
    def test_explicit_tolerance_wins(self):
        mon = CapMonitor(violation_tolerance=0.1)
        assert mon.tolerance_for(100.0) == 0.1
        assert mon.tolerance_for(400.0) == 0.1

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
            MonitorConfig(platform="h100-sxm"),
            job_id="j",
            n_nodes=1,
            cap_w=350.0,
            start_s=0.0,
            end_s=1.0,
            nominal_runtime_s=None,
            node_bands={},
        )
        assert probe._caps.gpu_spec.name == "NVIDIA H100-SXM5-80GB"
