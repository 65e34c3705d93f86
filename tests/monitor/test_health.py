"""Detector semantics: idle band, caps, staleness, drift."""

import numpy as np
import pytest

from repro.hardware.node import GpuNode
from repro.hardware.platform import NodeSpec, get_platform
from repro.monitor import (
    CapMonitor,
    CapUsage,
    DriftDetector,
    IdleOutlierDetector,
    StalenessDetector,
)
from repro.units.constants import PERLMUTTER_GPU_NODE


class TestIdleOutlierDetector:
    def test_defaults_to_paper_band(self):
        band = IdleOutlierDetector().band("nid1")
        assert band == (PERLMUTTER_GPU_NODE.idle_min_w, PERLMUTTER_GPU_NODE.idle_max_w)
        assert band == (410.0, 510.0)

    def test_pool_scan_within_band_is_quiet(self):
        nodes = [GpuNode(name=f"nid{i:06d}") for i in range(8)]
        assert IdleOutlierDetector().scan_pool(nodes) == []

    def test_pool_scan_flags_narrowed_band(self):
        """A node whose baseboard draws 150 W extra (a stuck fan) idles
        above its spec's band and is the one node flagged."""
        spec = get_platform().node
        hot = NodeSpec.from_spec(spec, baseboard_w=spec.baseboard_w + 150.0)
        nodes = [GpuNode(name=f"nid{i:06d}") for i in range(7)]
        nodes.append(GpuNode(name="nid000007", spec=hot))
        signals = IdleOutlierDetector().scan_pool(nodes, time_s=5.0)
        assert [s.node_name for s in signals] == ["nid000007"]
        assert signals[0].value == pytest.approx(nodes[-1].idle_sample().node_w)
        assert signals[0].threshold == spec.idle_max_w
        assert all(s.kind == "idle_outlier" and s.time_s == 5.0 for s in signals)

    def test_check_samples_flags_low_idle(self):
        det = IdleOutlierDetector()
        times = np.arange(4.0)
        values = np.array([450.0, 380.0, 1200.0, 360.0])
        signals = det.check_samples("nid1", times, values)
        assert len(signals) == 1  # one worst-offender signal per batch
        assert signals[0].value == 360.0
        assert signals[0].time_s == 3.0
        assert "2 idle-like" in signals[0].detail

    def test_check_samples_ignores_busy_power(self):
        det = IdleOutlierDetector()
        values = np.array([900.0, 1100.0, 2000.0])
        assert det.check_samples("nid1", np.arange(3.0), values) == []


class TestCapMonitor:
    def test_accumulates_residency_and_violations(self):
        mon = CapMonitor()  # 2 % tolerance at 200 W, 5 % throttle band
        usage = CapUsage()
        times = np.arange(5.0)
        values = np.array([100.0, 195.0, 200.0, 210.0, 150.0])
        signals = mon.check_chunk("nid1", 200.0, times, values, 1.0, usage)
        assert usage.gpu_seconds == 5.0
        # >= 190 W counts as pinned: 195, 200, 210.
        assert usage.cap_limited_s == 3.0
        # > 204 W is a violation: only 210.
        assert usage.violation_s == 1.0
        assert usage.peak_w == 210.0
        assert usage.throttle_residency == pytest.approx(3.0 / 5.0)
        assert len(signals) == 1
        assert signals[0].kind == "cap_violation"
        assert signals[0].value == 210.0
        assert signals[0].time_s == 3.0

    def test_quiet_below_cap(self):
        mon = CapMonitor()
        usage = CapUsage()
        values = np.full(10, 120.0)
        assert mon.check_chunk("n", 400.0, np.arange(10.0), values, 1.0, usage) == []
        assert usage.cap_limited_s == 0.0


class TestStalenessDetector:
    """Batches arrive as (first, last, worst intra-batch gap, its time)."""

    def test_regular_stream_is_fresh(self):
        det = StalenessDetector()
        assert det.observe_summary("a", 0.0, 8.0, 2.0, 2.0) == []
        assert det.observe_summary("a", 10.0, 18.0, 2.0, 12.0) == []

    def test_intra_batch_gap_fires(self):
        det = StalenessDetector()
        signals = det.observe_summary("a", 0.0, 11.0, 7.0, 9.0)
        assert len(signals) == 1
        assert signals[0].kind == "sampler_staleness"
        assert signals[0].value == 7.0
        assert signals[0].time_s == 9.0

    def test_boundary_gap_fires(self):
        det = StalenessDetector()
        det.observe_summary("a", 0.0, 1.0, 1.0, 1.0)
        signals = det.observe_summary("a", 20.0, 21.0, 1.0, 21.0)
        assert len(signals) == 1
        assert signals[0].value == 19.0

    def test_sweep_flags_silent_streams(self):
        det = StalenessDetector()
        det.observe_summary("quiet", 0.0, 1.0, 1.0, 1.0)
        det.observe_summary("fresh", 0.0, 98.0, 98.0, 98.0)
        signals = det.sweep(now_s=100.0)
        assert [s.node_name for s in signals] == ["quiet"]
        assert signals[0].value == 99.0


#: Nine nodes near 900 W and one at 1400 W: with population moments,
#: one outlier among ten sits at z = 3, past the 2.5 threshold.
DRIFT_LEVELS = {f"n{i}": 900.0 + i for i in range(9)} | {"hot": 1400.0}


class TestDriftDetector:
    def test_needs_three_eligible_nodes(self):
        det = DriftDetector()
        det.update("a", np.full(16, 900.0))
        det.update("b", np.full(16, 1400.0))
        assert det.finalize(now_s=10.0) == []

    def test_flags_walked_off_node(self):
        det = DriftDetector()
        for name, level in DRIFT_LEVELS.items():
            det.update(name, np.full(16, level))
        signals = det.finalize(now_s=50.0)
        assert [s.node_name for s in signals] == ["hot"]
        assert signals[0].kind == "fleet_drift"
        assert signals[0].value > 2.5
        assert signals[0].time_s == 50.0

    def test_min_samples_excludes_thin_nodes(self):
        det = DriftDetector()
        for name, level in DRIFT_LEVELS.items():
            det.update(name, np.full(15, level))  # all below 16 samples
        assert det.finalize(now_s=1.0) == []

    def test_homogeneous_fleet_is_quiet(self):
        det = DriftDetector()
        for name in "abcd":
            det.update(name, np.full(16, 900.0))
        assert det.finalize(now_s=1.0) == []
