"""Unit tests for the LDMS-like sampler and its sampled series."""

import numpy as np
import pytest

from repro.runner.trace import COMPONENT_KEYS, PowerTrace
from repro.telemetry.sampler import LdmsSampler, SampledSeries, SamplerConfig


def make_trace(n=2000, dt=0.1, node="nid000001") -> PowerTrace:
    times = (np.arange(n) + 0.5) * dt
    rng = np.random.default_rng(7)
    components = {}
    for key in COMPONENT_KEYS:
        components[key] = 100.0 + 10.0 * rng.standard_normal(n)
    components["node"] = 1000.0 + 20.0 * rng.standard_normal(n)
    return PowerTrace.from_components(node, times, components)


class TestSamplerConfig:
    def test_defaults_match_paper(self):
        cfg = SamplerConfig()
        assert cfg.nominal_interval_s == 1.0
        assert cfg.max_gap_s == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(nominal_interval_s=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(drop_probability=1.0)
        with pytest.raises(ValueError):
            SamplerConfig(max_gap_s=0.5)


class TestLdmsSampler:
    def test_effective_interval_near_two_seconds(self):
        """1 s nominal with 50 % drops -> ~2 s effective (Section II-B)."""
        sampler = LdmsSampler(SamplerConfig(seed=3))
        sampled = sampler.sample(make_trace(6000))
        assert 1.6 <= sampled.effective_interval_s <= 2.5

    def test_max_gap_bounded(self):
        """Paper: 'the interval did not exceed five seconds'."""
        sampler = LdmsSampler(SamplerConfig(seed=3))
        for node in ("nid000001", "nid000002"):
            sampled = sampler.sample(make_trace(6000, node=node))
            assert sampled.max_gap_s <= 5.0 + 1e-9

    def test_no_drops_keeps_everything(self):
        sampler = LdmsSampler(SamplerConfig(drop_probability=0.0))
        sampled = sampler.sample(make_trace(1000))
        assert len(sampled.times) == 100  # 100 s at 1 s cadence

    def test_unknown_component(self):
        with pytest.raises(KeyError):
            LdmsSampler().sample(make_trace(), component="psu")

    def test_sample_all(self):
        sampled = LdmsSampler().sample_all(make_trace(500))
        assert set(sampled) == set(COMPONENT_KEYS)

    def test_deterministic_per_seed(self):
        a = LdmsSampler(SamplerConfig(seed=9)).sample(make_trace())
        b = LdmsSampler(SamplerConfig(seed=9)).sample(make_trace())
        np.testing.assert_array_equal(a.times, b.times)

    def test_energy_estimate_close(self):
        trace = make_trace(5000)
        sampled = LdmsSampler(SamplerConfig(seed=1)).sample(trace)
        # Trapezoid over the irregular samples stays within a few percent.
        assert sampled.energy_j() == pytest.approx(trace.energy_j(), rel=0.05)


class TestSampledSeries:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SampledSeries("n", "node", np.arange(3.0), np.arange(4.0))

    def test_degenerate_stats(self):
        s = SampledSeries("n", "node", np.array([1.0]), np.array([5.0]))
        assert s.effective_interval_s == 0.0
        assert s.max_gap_s == 0.0
        assert s.energy_j() == 0.0
