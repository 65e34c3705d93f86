"""Unit tests for the power engine."""

import numpy as np
import pytest

from repro.hardware.gpu import PowerLimitError
from repro.hardware.node import GpuNode
from repro.hardware.platform import get_platform
from repro.perfmodel.kernels import KernelCatalogue
from repro.runner.engine import EngineConfig, PowerEngine
from repro.vasp.phases import MacroPhase


def hot_phase(duration=10.0):
    return MacroPhase(name="hot", duration_s=duration, gpu_profile=KernelCatalogue.DGEMM_TEST)


def cold_phase(duration=10.0):
    return MacroPhase(name="cold", duration_s=duration, gpu_profile=KernelCatalogue.HOST_SECTION)


@pytest.fixture
def engine():
    return PowerEngine([GpuNode("nid005000")])


class TestEngineBasics:
    def test_rejects_empty_nodes(self):
        with pytest.raises(ValueError):
            PowerEngine([])

    def test_rejects_empty_phases(self, engine):
        with pytest.raises(ValueError):
            engine.run([])

    def test_runtime_matches_phases(self, engine):
        result = engine.run([hot_phase(10.0), cold_phase(5.0)])
        assert result.runtime_s == pytest.approx(15.0)

    def test_trace_length_matches_runtime(self, engine):
        result = engine.run([hot_phase(10.0)])
        trace = result.traces[0]
        assert len(trace.times) == pytest.approx(100, abs=1)
        assert trace.sample_interval_s == pytest.approx(0.1)

    def test_phase_records_sequential(self, engine):
        result = engine.run([hot_phase(3.0), cold_phase(2.0), hot_phase(1.0)])
        for prev, cur in zip(result.phases, result.phases[1:]):
            assert cur.start_s == pytest.approx(prev.end_s)

    def test_determinism(self, engine):
        a = engine.run([hot_phase(5.0)], seed=42)
        b = engine.run([hot_phase(5.0)], seed=42)
        np.testing.assert_array_equal(a.traces[0].node_power, b.traces[0].node_power)

    def test_seeds_differ(self, engine):
        a = engine.run([hot_phase(5.0)], seed=1)
        b = engine.run([hot_phase(5.0)], seed=2)
        assert not np.array_equal(a.traces[0].node_power, b.traces[0].node_power)


class TestPowerLevels:
    def test_hot_phase_draws_more_than_cold(self, engine):
        result = engine.run([hot_phase(10.0), cold_phase(10.0)], seed=0)
        trace = result.traces[0]
        hot = trace.window(0.0, 10.0).node_power.mean()
        cold = trace.window(10.0, 20.0).node_power.mean()
        assert hot > cold + 800.0

    def test_cold_phase_is_idleish(self, engine):
        result = engine.run([cold_phase(20.0)], seed=0)
        mean = result.traces[0].node_power.mean()
        assert 380.0 < mean < 560.0

    def test_duty_cycle_lowers_power(self, engine):
        from dataclasses import replace

        full = MacroPhase(
            name="full", duration_s=10.0, gpu_profile=KernelCatalogue.DGEMM_TEST
        )
        half = MacroPhase(
            name="half",
            duration_s=10.0,
            gpu_profile=replace(KernelCatalogue.DGEMM_TEST, duty_cycle=0.5),
        )
        result = engine.run([full, half], seed=0)
        trace = result.traces[0]
        p_full = trace.window(0.0, 10.0).gpu_total.mean()
        p_half = trace.window(10.0, 20.0).gpu_total.mean()
        assert p_half < p_full * 0.75


class TestCapping:
    def test_cap_reduces_power_and_lengthens_run(self):
        engine = PowerEngine([GpuNode("nid005001")])
        base = engine.run([hot_phase(20.0)], seed=0)
        capped = engine.run([hot_phase(20.0)], seed=0, cap_w=200.0)
        assert capped.runtime_s > base.runtime_s
        assert capped.traces[0].gpu_total.mean() < base.traces[0].gpu_total.mean()
        assert capped.gpu_power_cap_w == 200.0
        assert base.gpu_power_cap_w == 400.0

    def test_uncapped_is_the_tdp_cap(self):
        engine = PowerEngine([GpuNode("nid005001")])
        uncapped = engine.run([hot_phase(20.0)], seed=3)
        at_tdp = engine.run([hot_phase(20.0)], seed=3, cap_w=400)
        assert at_tdp.gpu_power_cap_w == 400.0
        assert np.array_equal(uncapped.traces[0].data, at_tdp.traces[0].data)

    @pytest.mark.parametrize("cap_w", [99.0, 401.0])
    def test_out_of_range_cap_raises_from_run_and_stream(self, cap_w):
        engine = PowerEngine([GpuNode("nid005001")])
        match = r"A100.*outside supported range \[100, 400\] W"
        with pytest.raises(PowerLimitError, match=match):
            engine.run([hot_phase()], cap_w=cap_w)
        with pytest.raises(PowerLimitError, match=match):
            engine.stream([hot_phase()], cap_w=cap_w)

    def test_mixed_pool_checks_each_node_against_its_own_spec(self):
        nodes = [
            GpuNode("nid005000", spec=get_platform("a100-40g").node),
            GpuNode("nid005001", spec=get_platform("h100-sxm").node),
        ]
        engine = PowerEngine(nodes)
        # 150 W is inside the A100's range but under the H100's floor.
        with pytest.raises(PowerLimitError, match=r"H100.*\[200, 700\] W"):
            engine.run([hot_phase()], cap_w=150.0)
        # 500 W is inside the H100's range but over the A100's ceiling.
        with pytest.raises(PowerLimitError, match=r"A100.*\[100, 400\] W"):
            engine.run([hot_phase()], cap_w=500.0)
        assert engine.run([hot_phase()], cap_w=200.0).gpu_power_cap_w == 200.0

    def test_memory_bound_phase_unslowed_by_cap(self):
        node = GpuNode("nid005002")
        engine = PowerEngine([node])
        stream = MacroPhase(
            name="stream", duration_s=20.0, gpu_profile=KernelCatalogue.STREAM_TEST
        )
        base = engine.run([stream], seed=0)
        capped = engine.run([stream], seed=0, cap_w=200.0)
        assert capped.runtime_s < base.runtime_s * 1.05


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(base_interval_s=0.0)
        with pytest.raises(ValueError):
            EngineConfig(noise_ar_coeff=1.0)
        with pytest.raises(ValueError):
            EngineConfig(noise_rel_sigma=-0.1)

    def test_noiseless_engine_is_flat(self):
        engine = PowerEngine(
            [GpuNode("nid005003")], EngineConfig(noise_rel_sigma=0.0, noise_floor_w=0.0)
        )
        result = engine.run([hot_phase(5.0)], seed=0)
        assert np.ptp(result.traces[0].node_power) == pytest.approx(0.0)

    def test_custom_interval(self):
        engine = PowerEngine([GpuNode("nid005004")], EngineConfig(base_interval_s=1.0))
        result = engine.run([hot_phase(10.0)], seed=0)
        assert len(result.traces[0].times) == 10
