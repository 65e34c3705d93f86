"""Unit tests for block-average down-sampling."""

import numpy as np
import pytest

from repro.telemetry.downsample import downsample_series, downsample_trace
from repro.runner.trace import COMPONENT_KEYS, PowerTrace


def series(n=100, dt=0.1):
    times = (np.arange(n) + 0.5) * dt
    values = np.sin(times) * 100 + 300
    return times, values


class TestDownsampleSeries:
    def test_mean_preserved(self):
        times, values = series(1000)
        _, coarse = downsample_series(times, values, 2.0)
        assert coarse.mean() == pytest.approx(values.mean(), rel=1e-6)

    def test_window_count(self):
        times, values = series(100, dt=0.1)  # 10 s total
        t2, v2 = downsample_series(times, values, 2.0)
        assert len(t2) == 5

    def test_partial_trailing_window_kept(self):
        times, values = series(105, dt=0.1)  # 10.5 s
        t2, v2 = downsample_series(times, values, 2.0)
        assert len(t2) == 6

    def test_identity_at_base_rate(self):
        times, values = series(50)
        t, v = downsample_series(times, values, 0.1)
        np.testing.assert_allclose(v, values)

    def test_constant_series_unchanged(self):
        times = np.arange(100) * 0.1
        values = np.full(100, 123.0)
        _, coarse = downsample_series(times, values, 1.0)
        np.testing.assert_allclose(coarse, 123.0)

    def test_max_never_increases(self):
        times, values = series(500)
        for interval in (0.5, 1.0, 2.0, 5.0):
            _, coarse = downsample_series(times, values, interval)
            assert coarse.max() <= values.max() + 1e-9

    def test_rejects_upsampling(self):
        times, values = series(100, dt=1.0)
        with pytest.raises(ValueError, match="base interval"):
            downsample_series(times, values, 0.5)

    def test_rejects_bad_interval(self):
        times, values = series()
        with pytest.raises(ValueError):
            downsample_series(times, values, 0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            downsample_series(np.arange(3.0), np.arange(4.0), 1.0)

    def test_empty_series(self):
        t, v = downsample_series(np.array([]), np.array([]), 1.0)
        assert len(t) == 0


class TestDownsampleTrace:
    def test_all_components_downsampled(self):
        n = 200
        times = (np.arange(n) + 0.5) * 0.1
        components = {k: np.random.default_rng(0).random(n) for k in COMPONENT_KEYS}
        trace = PowerTrace.from_components("nid1", times, components)
        coarse = downsample_trace(trace, 2.0)
        assert len(coarse.times) == 10
        assert set(coarse.components) == set(COMPONENT_KEYS)
        assert coarse.node_name == "nid1"

    def test_energy_preserved(self):
        n = 200
        times = (np.arange(n) + 0.5) * 0.1
        rng = np.random.default_rng(1)
        components = {k: rng.random(n) * 100 for k in COMPONENT_KEYS}
        trace = PowerTrace.from_components("nid1", times, components)
        coarse = downsample_trace(trace, 2.0)
        assert coarse.energy_j() == pytest.approx(trace.energy_j(), rel=1e-9)
