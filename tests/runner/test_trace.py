"""Unit tests for trace containers."""

import numpy as np
import pytest

from repro.experiments.common import run_workload
from repro.hardware.node import GpuNode
from repro.perfmodel.kernels import KernelCatalogue
from repro.runner.cache import RunCache
from repro.runner.engine import PowerEngine
from repro.runner.trace import (
    COMPONENT_KEYS,
    PhaseRecord,
    PowerTrace,
    RunResult,
    trace_dtype,
)
from repro.vasp.benchmarks import benchmark
from repro.vasp.phases import MacroPhase


def make_trace(n=100, dt=0.1, level=1000.0) -> PowerTrace:
    times = (np.arange(n) + 0.5) * dt
    components = {key: np.full(n, 50.0) for key in COMPONENT_KEYS}
    components["node"] = np.full(n, level)
    return PowerTrace.from_components("nid000001", times, components)


class TestPowerTrace:
    def test_requires_all_components(self):
        with pytest.raises(ValueError, match="missing component 'gpu0'"):
            PowerTrace.from_components("x", np.arange(3.0), {"cpu": np.zeros(3)})

    def test_constructor_requires_all_components(self):
        keys = tuple(k for k in COMPONENT_KEYS if k != "memory")
        with pytest.raises(ValueError, match="missing component 'memory'"):
            PowerTrace("x", np.arange(3.0), np.zeros((len(keys), 3)), keys)

    def test_requires_matching_lengths(self):
        components = {key: np.zeros(3) for key in COMPONENT_KEYS}
        components["gpu0"] = np.zeros(2)
        with pytest.raises(ValueError, match="samples"):
            PowerTrace.from_components("x", np.arange(3.0), components)

    def test_row_count_must_match_components(self):
        with pytest.raises(ValueError, match="rows"):
            PowerTrace("x", np.arange(3.0), np.zeros((len(COMPONENT_KEYS) - 1, 3)))

    def test_sample_count_must_match_times(self):
        with pytest.raises(ValueError, match="samples, times has 3"):
            PowerTrace("x", np.arange(3.0), np.zeros((len(COMPONENT_KEYS), 2)))

    def test_data_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            PowerTrace("x", np.arange(3.0), np.zeros(3))

    def test_interval_must_be_positive(self):
        data = np.zeros((len(COMPONENT_KEYS), 3))
        with pytest.raises(ValueError, match="positive"):
            PowerTrace("x", np.arange(3.0), data, base_interval_s=0.0)

    def test_unknown_component_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown component 'gpu9'"):
            make_trace().component("gpu9")

    def test_energy(self):
        trace = make_trace(n=100, dt=0.1, level=1000.0)
        assert trace.energy_j() == pytest.approx(100 * 0.1 * 1000.0)

    def test_gpu_total(self):
        trace = make_trace()
        np.testing.assert_allclose(trace.gpu_total, 200.0)

    def test_gpu_total_with_scattered_gpu_rows(self):
        """Rows in another order than COMPONENT_KEYS still sum the GPUs."""
        keys = ("gpu3", "cpu", "gpu1", "node", "gpu0", "memory", "gpu2")
        components = {key: np.full(4, float(i)) for i, key in enumerate(keys)}
        trace = PowerTrace.from_components("x", np.arange(4.0), components)
        np.testing.assert_array_equal(trace.gpu_total, np.full(4, 0 + 2 + 4 + 6.0))
        np.testing.assert_array_equal(trace.gpu_power(1), np.full(4, 2.0))
        np.testing.assert_array_equal(trace.node_power, np.full(4, 3.0))

    def test_window(self):
        trace = make_trace(n=100, dt=0.1)
        window = trace.window(2.0, 5.0)
        assert len(window.times) == 30
        assert window.n_samples == 30
        assert window.times[0] >= 2.0
        assert window.times[-1] < 5.0

    def test_window_validates(self):
        with pytest.raises(ValueError):
            make_trace().window(5.0, 2.0)

    def test_window_shares_memory_with_data(self):
        """Windows are zero-copy views into the trace's storage."""
        trace = make_trace(n=100, dt=0.1)
        window = trace.window(2.0, 5.0)
        assert np.shares_memory(window.data, trace.data)
        assert np.shares_memory(window.times, trace.times)
        assert np.shares_memory(window.node_power, trace.data)

    def test_component_rows_share_memory_with_data(self):
        trace = make_trace(n=10)
        for key in COMPONENT_KEYS:
            assert np.shares_memory(trace.component(key), trace.data)
        assert np.shares_memory(trace.node_power, trace.data)
        assert np.shares_memory(trace.gpu_power(2), trace.data)

    def test_components_tuple_supports_membership_and_iteration(self):
        trace = make_trace(n=10)
        assert trace.components == COMPONENT_KEYS
        assert "node" in trace.components
        assert "gpu9" not in trace.components

    def test_from_components_keeps_float64(self):
        """Dict construction (tests, CSV load) stays at the input dtype."""
        assert make_trace(n=10).data.dtype == np.float64

    def test_from_components_dtype_override(self):
        components = {key: np.full(3, 1.5) for key in COMPONENT_KEYS}
        trace = PowerTrace.from_components(
            "x", np.arange(3.0), components, dtype=np.float32
        )
        assert trace.data.dtype == np.float32
        assert trace.times.dtype == np.float64

    @pytest.mark.parametrize("stored", ["float32", "float64"])
    def test_engine_trace_keeps_trace_dtype(self, monkeypatch, stored):
        monkeypatch.setenv("REPRO_TRACE_DTYPE", stored)
        engine = PowerEngine([GpuNode("nid006000")])
        phase = MacroPhase(
            name="hot", duration_s=1.0, gpu_profile=KernelCatalogue.DGEMM_TEST
        )
        (trace,) = engine.run([phase], seed=1).traces
        assert trace.data.dtype == trace_dtype() == np.dtype(stored)
        assert trace.data.shape == (len(COMPONENT_KEYS), trace.n_samples)
        assert trace.base_interval_s == engine.config.base_interval_s

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
        trace = PowerTrace.from_components("x", np.array([0.05]), components)
        with pytest.raises(ValueError, match="indeterminate"):
            trace.sample_interval_s
        with pytest.raises(ValueError, match="indeterminate"):
            trace.energy_j()

    def test_empty_trace_energy_is_zero(self):
        trace = PowerTrace(
            "x", np.empty(0), np.empty((len(COMPONENT_KEYS), 0)), base_interval_s=0.1
        )
        assert trace.energy_j() == 0.0

    def test_nbytes_reports_storage(self):
        trace = make_trace(n=50)
        assert trace.nbytes == trace.data.nbytes + trace.times.nbytes


class TestMeasuredRunPickle:
    def test_round_trips_through_disk_cache(self, tmp_path, monkeypatch):
        """A run stored by one cache reads back bit-identical from another."""
        monkeypatch.setenv("REPRO_CACHE", "0")
        workload = benchmark("PdO2").build()
        measured = run_workload(workload, n_nodes=2, seed=3)
        RunCache(disk_dir=tmp_path).put("run", measured)
        fresh = RunCache(disk_dir=tmp_path)
        loaded = fresh.get("run")
        assert fresh.disk_hits == 1 and fresh.disk_errors == 0
        assert loaded.runtime_s == measured.runtime_s
        assert loaded.result.phases == measured.result.phases
        pairs = list(zip(loaded.result.traces, measured.result.traces))
        pairs += list(zip(loaded.telemetry, measured.telemetry))
        assert len(pairs) == 4
        for got, want in pairs:
            assert got.node_name == want.node_name
            assert got.components == want.components
            assert got.base_interval_s == want.base_interval_s
            assert got.data.dtype == want.data.dtype
            np.testing.assert_array_equal(got.data, want.data)
            np.testing.assert_array_equal(got.times, want.times)
            assert got.energy_j() == want.energy_j()
        assert loaded.result.resident_bytes() == measured.result.resident_bytes()


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
