"""Gap enforcement on irregular timestamp grids.

The LDMS pipeline guarantees that gaps between surviving reports never
exceed ``max_gap_s`` (section II-B: drops "did not exceed five seconds").
These tests stress the force-keep logic with adversarial drop rates,
non-integer gap bounds, coarse nominal cadences and long traces, and
cross-check the surviving irregular grid against the monitor-side
staleness detector that consumes it.
"""

import numpy as np
import pytest

from repro.runner.trace import COMPONENT_KEYS, PowerTrace
from repro.telemetry.downsample import downsample_series
from repro.telemetry.sampler import LdmsSampler, SampledSeries, SamplerConfig


def make_trace(node_name="nid001234", n=600, dt=0.1):
    times = (np.arange(n) + 0.5) * dt
    components = {key: 100.0 + 10.0 * np.sin(times) for key in COMPONENT_KEYS}
    components["node"] = 900.0 + 10.0 * np.sin(times)
    return PowerTrace.from_components(node_name, times, components)


class TestGapBound:
    @pytest.mark.parametrize("drop", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_bound_holds_across_drop_rates_and_seeds(self, drop, seed):
        cfg = SamplerConfig(drop_probability=drop, seed=seed)
        series = LdmsSampler(cfg).sample(make_trace(), "node")
        assert series.max_gap_s <= cfg.max_gap_s + 1e-9

    def test_bound_holds_per_node_stream(self):
        cfg = SamplerConfig(drop_probability=0.95, seed=2)
        sampler = LdmsSampler(cfg)
        for i in range(8):
            series = sampler.sample(make_trace(f"nid{i:06d}"), "node")
            assert series.max_gap_s <= cfg.max_gap_s + 1e-9

    def test_non_integer_gap_bound_is_conservative(self):
        # max_gap_s = 4.5 with a 1 s cadence floors to max_skip = 4:
        # surviving gaps are at most 4 s, never 5.
        cfg = SamplerConfig(drop_probability=0.95, max_gap_s=4.5, seed=5)
        series = LdmsSampler(cfg).sample(make_trace(n=4000), "node")
        assert series.max_gap_s <= 4.0 + 1e-9

    def test_coarse_nominal_cadence(self):
        # 2 s reports with a 5 s bound: at most one consecutive drop.
        cfg = SamplerConfig(
            nominal_interval_s=2.0, drop_probability=0.9, max_gap_s=5.0, seed=9
        )
        series = LdmsSampler(cfg).sample(make_trace(n=3000), "node")
        assert series.max_gap_s <= 4.0 + 1e-9

    def test_gap_equal_to_interval_keeps_everything(self):
        # max_gap_s == nominal_interval_s leaves no room to drop at all.
        cfg = SamplerConfig(drop_probability=0.9, max_gap_s=1.0, seed=3)
        series = LdmsSampler(cfg).sample(make_trace(), "node")
        dense_times, _ = downsample_series(
            make_trace().times, make_trace().component("node"), 1.0
        )
        np.testing.assert_array_equal(series.times, dense_times)

    def test_forced_keeps_are_minimal(self):
        # The force-keep pass must not resurrect more samples than the
        # bound requires: with drop=0.9 the survivor rate should stay
        # well below the no-drop rate but above the 1-in-max_skip floor.
        cfg = SamplerConfig(drop_probability=0.9, seed=11)
        series = LdmsSampler(cfg).sample(make_trace(n=6000), "node")
        n_dense = len(
            downsample_series(
                make_trace(n=6000).times,
                make_trace(n=6000).component("node"),
                1.0,
            )[0]
        )
        floor = n_dense / int(cfg.max_gap_s / cfg.nominal_interval_s)
        assert floor - 1 <= len(series.times) < 0.5 * n_dense


class TestIrregularSeriesProperties:
    def test_effective_interval_and_max_gap(self):
        times = np.array([0.0, 1.0, 5.0, 6.0, 11.0])
        series = SampledSeries("n", "node", times, np.full(5, 100.0))
        assert series.effective_interval_s == pytest.approx(11.0 / 4)
        assert series.max_gap_s == 5.0

    def test_single_sample_degenerates_to_zero(self):
        series = SampledSeries("n", "node", np.array([3.0]), np.array([1.0]))
        assert series.effective_interval_s == 0.0
        assert series.max_gap_s == 0.0
        assert series.energy_j() == 0.0

    def test_energy_on_irregular_grid_is_trapezoidal(self):
        times = np.array([0.0, 1.0, 4.0])
        values = np.array([100.0, 200.0, 100.0])
        series = SampledSeries("n", "node", times, values)
        assert series.energy_j() == pytest.approx(150.0 + 450.0)


def gap_summary(times):
    """A stream batch as the detector takes it: first, last, worst gap, its time."""
    gaps = np.diff(times)
    worst = int(np.argmax(gaps))
    return (
        float(times[0]),
        float(times[-1]),
        float(gaps[worst]),
        float(times[worst + 1]),
    )


class TestStalenessAgreement:
    def test_sampled_grid_never_trips_matching_detector(self):
        """A series honouring the sampler's default bound is fresh for the
        monitor, whose bound is the same §II-B 5 s."""
        from repro.monitor import StalenessDetector
        from repro.monitor.health import MAX_GAP_S

        cfg = SamplerConfig(drop_probability=0.9, seed=4)
        assert cfg.max_gap_s == MAX_GAP_S
        series = LdmsSampler(cfg).sample(make_trace(n=3000), "node")
        detector = StalenessDetector()
        batch = gap_summary(series.times)
        assert detector.observe_summary("nid001234:node", *batch) == []

    def test_tighter_detector_flags_the_same_grid(self):
        """A sampler allowed 12 s gaps leaves gaps the 5 s monitor flags."""
        from repro.monitor import StalenessDetector
        from repro.monitor.health import MAX_GAP_S

        cfg = SamplerConfig(drop_probability=0.9, max_gap_s=12.0, seed=4)
        series = LdmsSampler(cfg).sample(make_trace(n=3000), "node")
        assert series.max_gap_s > MAX_GAP_S  # the drops do create real gaps
        detector = StalenessDetector()
        batch = gap_summary(series.times)
        signals = detector.observe_summary("nid001234:node", *batch)
        assert signals
        assert max(s.value for s in signals) == pytest.approx(series.max_gap_s)
