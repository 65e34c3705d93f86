"""Tests for the hardware platform registry."""

import dataclasses

import numpy as np
import pytest

from repro.hardware.gpu import GpuModel, PowerLimitError, applied_cap_w
from repro.hardware.node import GPU_STATIC_FIELDS, GpuNode
from repro.hardware.platform import (
    DEFAULT_PLATFORM_ID,
    GpuSpec,
    NodeSpec,
    Platform,
    _REGISTRY,
    default_gpu_spec,
    default_node_spec,
    get_platform,
    platform_ids,
    register_platform,
)
from repro.units.constants import A100_40GB, GPUEnvelope, PERLMUTTER_GPU_NODE


class TestRegistry:
    def test_builtin_platforms_present(self):
        ids = platform_ids()
        assert ids[0] == DEFAULT_PLATFORM_ID
        assert {"a100-40g", "a100-80g", "h100-sxm", "v100-sxm2"} <= set(ids)

    def test_get_platform_resolutions(self):
        default = get_platform()
        assert default.id == DEFAULT_PLATFORM_ID
        assert get_platform(None) is default
        assert get_platform("h100-sxm").gpu.name == "NVIDIA H100-SXM5-80GB"
        # A Platform instance passes through untouched.
        assert get_platform(default) is default

    def test_unknown_platform_lists_registered(self):
        with pytest.raises(KeyError, match="a100-40g"):
            get_platform("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_platform(get_platform("a100-40g"))

    def test_replace_allows_reregistration(self):
        plat = get_platform("a100-40g")
        assert register_platform(plat, replace=True) is plat

    def test_register_validates_cap_range(self):
        base = get_platform("a100-40g").node
        bad = NodeSpec.from_spec(
            base, gpu=GpuSpec.from_envelope(base.gpu, cap_min_w=500.0)
        )
        with pytest.raises(ValueError, match="cap range"):
            register_platform(Platform(id="bad-caps", description="", node=bad))
        assert "bad-caps" not in _REGISTRY

    def test_register_enforces_trace_schema_gpu_count(self):
        base = get_platform("a100-40g").node
        bad = NodeSpec.from_spec(base, gpus_per_node=8)
        with pytest.raises(ValueError, match="4 GPUs"):
            register_platform(Platform(id="bad-gpus", description="", node=bad))

    def test_custom_platform_roundtrip(self):
        base = get_platform("a100-40g")
        custom = Platform(
            id="test-lab-a100",
            description="raised cap floor",
            node=NodeSpec.from_spec(
                base.node,
                gpu=GpuSpec.from_envelope(base.gpu, cap_min_w=150.0),
            ),
        )
        try:
            register_platform(custom)
            assert get_platform("test-lab-a100").gpu.cap_min_w == 150.0
            assert "test-lab-a100" in platform_ids()
        finally:
            _REGISTRY.pop("test-lab-a100", None)


class TestDefaultBitIdentity:
    def test_default_gpu_spec_matches_paper_envelope(self):
        spec = default_gpu_spec()
        for f in dataclasses.fields(GPUEnvelope):
            assert getattr(spec, f.name) == getattr(A100_40GB, f.name)
        assert spec.min_clock_fraction == 0.15
        assert spec.control_margin == 0.03

    def test_default_node_spec_matches_paper_envelope(self):
        spec = default_node_spec()
        assert spec.tdp_w == PERLMUTTER_GPU_NODE.tdp_w
        assert spec.gpus_per_node == PERLMUTTER_GPU_NODE.gpus_per_node
        assert (spec.idle_min_w, spec.idle_max_w) == (
            PERLMUTTER_GPU_NODE.idle_min_w,
            PERLMUTTER_GPU_NODE.idle_max_w,
        )
        assert spec.host_power_w == 265.0
        assert spec.idle_node_w == 460.0

    def test_default_gpu_identical_to_explicit_spec(self):
        default = GpuModel(serial="GPU-000042")
        explicit = GpuModel(serial="GPU-000042", spec=get_platform("a100-40g").gpu)
        assert default.spec == explicit.spec
        assert default.variation == explicit.variation
        assert default.resolve_phase(360.0, 0.7) == explicit.resolve_phase(360.0, 0.7)

    def test_default_node_identical_to_explicit_default_platform(self):
        a = GpuNode(name="nid001234")
        b = GpuNode(name="nid001234", spec=get_platform("a100-40g").node)
        assert a.idle_sample().node_w == b.idle_sample().node_w


class TestSpecBehaviour:
    def test_custom_envelope_keeps_its_own_clock_floor(self):
        # A spec carries its own clock floor: a custom envelope does not
        # inherit the A100's 0.15.
        spec = GpuSpec.from_envelope(A100_40GB, min_clock_fraction=0.5)
        gpu = GpuModel(serial="FLOOR", spec=spec)
        assert gpu.clock_fraction(demand_w=spec.tdp_w, cap_w=spec.cap_min_w) == 0.5

    def test_h100_uses_its_own_floor_and_margin(self):
        gpu = GpuModel(serial="H100", spec=get_platform("h100-sxm").gpu)
        assert gpu.clock_fraction(demand_w=700.0, cap_w=200.0) >= 0.11
        a100 = GpuModel(serial="A100")
        assert gpu.resolve_phase(650.0, 0.8, 200.0) != a100.resolve_phase(650.0, 0.8, 200.0)

    def test_power_limit_error_names_platform_and_range(self):
        gpu = GpuModel(serial="H100", spec=get_platform("h100-sxm").gpu)
        with pytest.raises(PowerLimitError) as err:
            applied_cap_w(gpu.spec, 100.0)
        message = str(err.value)
        assert "NVIDIA H100-SXM5-80GB" in message
        assert "[200, 700]" in message

    def test_from_envelope_is_identity_on_specs(self):
        spec = default_gpu_spec()
        assert GpuSpec.from_envelope(spec) is spec
        widened = GpuSpec.from_envelope(spec, cap_min_w=50.0)
        assert widened.cap_min_w == 50.0
        assert widened.min_clock_fraction == spec.min_clock_fraction

    def test_node_spec_requires_components(self):
        with pytest.raises(ValueError, match="gpu"):
            NodeSpec(
                name="incomplete",
                tdp_w=1000.0,
                gpus_per_node=4,
                idle_min_w=100.0,
                idle_max_w=200.0,
                baseboard_w=10.0,
            )


class TestPlatformNodes:
    def test_h100_node_composes_from_spec(self):
        node = GpuNode(name="nid009000", spec=get_platform("h100-sxm").node)
        assert len(node.gpus) == 4
        assert all(g.spec.tdp_w == 700.0 for g in node.gpus)
        assert node.cpu.envelope.name == "AMD EPYC 9454"
        idle = node.idle_sample().node_w
        assert 460.0 <= idle <= 620.0

    def test_v100_idle_in_band(self):
        node = GpuNode(name="nid009001", spec=get_platform("v100-sxm2").node)
        assert len(node.nics) == 1
        idle = node.idle_sample().node_w
        assert 250.0 <= idle <= 360.0

    def test_state_arrays_carry_spec_parameters(self):
        node = GpuNode(name="nid009002", spec=get_platform("h100-sxm").node)
        state = dict(zip(GPU_STATIC_FIELDS, node.gpu_static_state))
        assert np.all(state["min_clock_fraction"] == 0.11)
        assert np.all(state["control_margin"] == 0.03)
