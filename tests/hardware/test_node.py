"""Unit tests for node-level aggregation."""

import numpy as np
import pytest

from repro.hardware.node import GpuNode
from repro.perfmodel.kernels import KernelCatalogue
from repro.runner.engine import PowerEngine
from repro.runner.trace import GPU_KEYS
from repro.vasp.phases import MacroPhase

HOT = [MacroPhase("dgemm", 5.0, KernelCatalogue.DGEMM_TEST)]


@pytest.fixture
def node() -> GpuNode:
    return GpuNode(name="nid009999")


class TestGpuNodeStructure:
    def test_has_four_gpus_and_nics(self, node):
        assert len(node.gpus) == 4
        assert len(node.nics) == 4

    def test_serials_are_stable(self):
        a = GpuNode(name="nid000001")
        b = GpuNode(name="nid000001")
        assert [g.serial for g in a.gpus] == [g.serial for g in b.gpus]
        assert a.idle_sample().node_w == pytest.approx(b.idle_sample().node_w)

    def test_distinct_nodes_have_distinct_idle(self):
        idles = {GpuNode(name=f"nid{i:06d}").idle_sample().node_w for i in range(8)}
        assert len(idles) == 8


class TestPowerLimits:
    """A cap is a run argument: it applies to every GPU of the node and
    leaves no state on it."""

    def test_set_applies_to_all_gpus(self, node):
        engine = PowerEngine([node])
        uncapped = engine.run(HOT, seed=1).traces[0]
        capped = engine.run(HOT, seed=1, cap_w=250.0).traces[0]
        for key in GPU_KEYS:
            assert capped.component(key).mean() < uncapped.component(key).mean()

    def test_reset(self, node):
        PowerEngine([node]).run(HOT, seed=1, cap_w=150.0)
        after = PowerEngine([node]).run(HOT, seed=1)
        fresh = PowerEngine([GpuNode(name=node.name)]).run(HOT, seed=1)
        assert after.gpu_power_cap_w == 400.0
        assert np.array_equal(after.traces[0].data, fresh.traces[0].data)


class TestSampling:
    def test_idle_sample_in_observed_window(self):
        """Idle node power must land inside the paper's 410-510 W band."""
        for i in range(20):
            node = GpuNode(name=f"nid{2000 + i:06d}")
            idle = node.idle_sample().node_w
            assert 400.0 <= idle <= 520.0

    def test_sample_component_accounting(self, node):
        sample = node.sample(gpu_power_w=[300.0, 310.0, 305.0, 295.0])
        assert sample.gpu_total_w == pytest.approx(1210.0)
        assert sample.node_w > sample.component_sum_w  # peripheral gap
        gap = sample.node_w - sample.component_sum_w
        assert 30.0 < gap < 200.0  # NICs + baseboard

    def test_sample_rejects_wrong_gpu_count(self, node):
        with pytest.raises(ValueError):
            node.sample(gpu_power_w=[300.0, 300.0])

    def test_full_load_below_node_tdp(self, node):
        sample = node.sample(
            gpu_power_w=[400.0] * 4,
            cpu_utilization=1.0,
            memory_bandwidth_utilization=1.0,
            nic_utilization=1.0,
        )
        # Even flat out, the configured components stay at/below node TDP
        # with a small margin for manufacturing bias.
        assert sample.node_w <= node.envelope.tdp_w * 1.02
