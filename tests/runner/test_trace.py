"""Unit tests for trace containers."""

import numpy as np
import pytest

from repro.runner.trace import (
    COMPONENT_KEYS,
    PhaseRecord,
    PowerTrace,
    RunResult,
    TraceBlock,
    trace_dtype,
)


def make_trace(n=100, dt=0.1, level=1000.0) -> PowerTrace:
    times = (np.arange(n) + 0.5) * dt
    components = {key: np.full(n, 50.0) for key in COMPONENT_KEYS}
    components["node"] = np.full(n, level)
    return PowerTrace(node_name="nid000001", times=times, components=components)


class TestPowerTrace:
    def test_requires_all_components(self):
        with pytest.raises(ValueError, match="missing component"):
            PowerTrace(
                node_name="x", times=np.arange(3.0), components={"cpu": np.zeros(3)}
            )

    def test_requires_matching_lengths(self):
        components = {key: np.zeros(3) for key in COMPONENT_KEYS}
        components["gpu0"] = np.zeros(2)
        with pytest.raises(ValueError, match="samples"):
            PowerTrace(node_name="x", times=np.arange(3.0), components=components)

    def test_energy(self):
        trace = make_trace(n=100, dt=0.1, level=1000.0)
        assert trace.energy_j() == pytest.approx(100 * 0.1 * 1000.0)

    def test_gpu_total(self):
        trace = make_trace()
        np.testing.assert_allclose(trace.gpu_total, 200.0)

    def test_window(self):
        trace = make_trace(n=100, dt=0.1)
        window = trace.window(2.0, 5.0)
        assert len(window.times) == 30
        assert window.times[0] >= 2.0
        assert window.times[-1] < 5.0

    def test_window_validates(self):
        with pytest.raises(ValueError):
            make_trace().window(5.0, 2.0)


class TestTraceBlock:
    def test_window_returns_views(self):
        """Windows are zero-copy views into the block's storage."""
        trace = make_trace(n=100, dt=0.1)
        window = trace.window(2.0, 5.0)
        assert window.block.data.base is not None
        assert np.shares_memory(window.block.data, trace.block.data)
        assert np.shares_memory(window.times, trace.times)

    def test_component_rows_are_views(self):
        trace = make_trace(n=10)
        for key in COMPONENT_KEYS:
            assert np.shares_memory(trace.components[key], trace.block.data)

    def test_from_components_preserves_input_dtype(self):
        """Dict construction (tests, CSV load) stays at the input dtype."""
        trace = make_trace(n=10)
        assert trace.block.data.dtype == np.float64

    def test_trace_dtype_env_override(self, monkeypatch):
        assert trace_dtype() == np.dtype("float32")
        monkeypatch.setenv("REPRO_TRACE_DTYPE", "float64")
        assert trace_dtype() == np.dtype("float64")

    @pytest.mark.parametrize("raw", ["int8", "float16", "U3", "1"])
    def test_trace_dtype_rejects_other_dtypes(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACE_DTYPE", raw)
        with pytest.raises(ValueError, match="REPRO_TRACE_DTYPE"):
            trace_dtype()

    def test_window_energy_uses_carried_interval(self):
        """A single-sample window still knows its sample spacing."""
        trace = make_trace(n=100, dt=0.1, level=1000.0)
        window = trace.window(2.0, 2.1)
        assert len(window.times) == 1
        assert window.sample_interval_s == pytest.approx(0.1)
        assert window.energy_j() == pytest.approx(1000.0 * 0.1)

    def test_single_sample_without_interval_raises(self):
        """Undeclared spacing on <2 samples is an error, not silently 0 J."""
        components = {key: np.full(1, 10.0) for key in COMPONENT_KEYS}
        trace = PowerTrace(
            node_name="x", times=np.array([0.05]), components=components
        )
        with pytest.raises(ValueError, match="indeterminate"):
            trace.sample_interval_s
        with pytest.raises(ValueError, match="indeterminate"):
            trace.energy_j()

    def test_empty_block_energy_is_zero(self):
        block = TraceBlock(
            node_name="x",
            times=np.empty(0),
            data=np.empty((len(COMPONENT_KEYS), 0)),
            base_interval_s=0.1,
        )
        assert block.energy_j() == 0.0

    def test_mismatched_data_shape_rejected(self):
        with pytest.raises(ValueError):
            TraceBlock(
                node_name="x",
                times=np.arange(3.0),
                data=np.zeros((len(COMPONENT_KEYS), 2)),
            )

    def test_nbytes_reports_storage(self):
        trace = make_trace(n=50)
        assert trace.block.nbytes >= trace.block.data.nbytes


class TestRunResult:
    def make_result(self):
        phases = [
            PhaseRecord("a", 0.0, 4.0, 4.0, 1.0),
            PhaseRecord("b", 4.0, 6.0, 2.0, 1.0),
            PhaseRecord("a", 6.0, 10.0, 4.0, 1.0),
        ]
        return RunResult(
            label="test",
            traces=[make_trace(100, 0.1)],
            phases=phases,
            runtime_s=10.0,
            gpu_power_cap_w=400.0,
        )

    def test_phase_windows(self):
        result = self.make_result()
        assert result.phase_windows("a") == [(0.0, 4.0), (6.0, 10.0)]
        assert result.phase_windows("missing") == []

    def test_phase_time(self):
        assert self.make_result().phase_time_s("a") == pytest.approx(8.0)

    def test_total_energy(self):
        result = self.make_result()
        assert result.total_energy_j() == pytest.approx(result.traces[0].energy_j())

    def test_phase_record_duration(self):
        record = PhaseRecord("x", 1.0, 3.5, 2.0, 1.25)
        assert record.duration_s == pytest.approx(2.5)
