"""Property-based tests for the DVFS capping model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.gpu import GpuModel
from repro.hardware.variability import ManufacturingVariation
from repro.perfmodel.dvfs import (
    capped_clock_fraction,
    capped_phase_slowdown,
    occupancy,
    sustained_power_w,
)

caps = st.floats(min_value=100.0, max_value=400.0)
demands = st.floats(min_value=55.0, max_value=400.0)
fractions = st.floats(min_value=0.0, max_value=1.0)


def nominal_gpu() -> GpuModel:
    return GpuModel(serial="PROP", variation=ManufacturingVariation.nominal())


class TestCapMonotonicity:
    @given(demands, caps, caps, fractions)
    @settings(max_examples=150, deadline=None)
    def test_lower_cap_never_faster_never_hotter(self, demand, cap_a, cap_b, cf):
        """The fundamental sanity of power capping: reducing the limit can
        only reduce sustained power and increase runtime."""
        lo, hi = sorted((cap_a, cap_b))
        gpu = nominal_gpu()
        sample_lo = gpu.resolve_phase(demand, cf, cap_w=lo)
        sample_hi = gpu.resolve_phase(demand, cf, cap_w=hi)
        assert sample_lo.power_w <= sample_hi.power_w + 1e-9
        assert sample_lo.slowdown >= sample_hi.slowdown - 1e-9

    @given(demands, caps, fractions)
    @settings(max_examples=150, deadline=None)
    def test_slowdown_at_least_one(self, demand, cap, cf):
        sample = nominal_gpu().resolve_phase(demand, cf, cap_w=cap)
        assert sample.slowdown >= 1.0

    @given(demands, caps)
    @settings(max_examples=150, deadline=None)
    def test_power_bounded(self, demand, cap):
        sample = nominal_gpu().resolve_phase(demand, cap_w=cap)
        # Never below idle, never above demand, and over the cap only by
        # the floor regulation error.
        assert sample.power_w >= nominal_gpu().envelope.idle_w - 1e-9
        assert sample.power_w <= demand + 1e-9
        assert sample.power_w <= cap * 1.09 + 1e-9

    @given(demands, demands, caps, fractions)
    @settings(max_examples=150, deadline=None)
    def test_hotter_demand_never_lower_power(self, d_a, d_b, cap, cf):
        lo, hi = sorted((d_a, d_b))
        gpu = nominal_gpu()
        p_lo = gpu.resolve_phase(lo, cf, cap_w=cap).power_w
        p_hi = gpu.resolve_phase(hi, cf, cap_w=cap).power_w
        assert p_hi >= p_lo - 1e-9


class TestStandaloneDvfs:
    @given(demands, caps, st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=150, deadline=None)
    def test_clock_fraction_in_range(self, demand, cap, exponent):
        frac = capped_clock_fraction(demand, cap, static_w=90.0, exponent=exponent)
        assert 0.15 <= frac <= 1.0

    @given(demands, fractions)
    @settings(max_examples=150, deadline=None)
    def test_sustained_power_monotone_in_clock(self, demand, f):
        f = max(f, 0.01)
        p_f = sustained_power_w(demand, f, static_w=90.0)
        p_full = sustained_power_w(demand, 1.0, static_w=90.0)
        assert p_f <= p_full + 1e-9

    @given(
        st.floats(min_value=0.15, max_value=1.0),
        fractions,
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_slowdown_bounds(self, clock, cf, duty):
        slow = capped_phase_slowdown(clock, cf, duty)
        assert 1.0 - 1e-9 <= slow <= 1.0 / clock + 1e-9

    @given(st.floats(min_value=0.0, max_value=1e9), st.floats(min_value=0.0, max_value=1e9))
    @settings(max_examples=150, deadline=None)
    def test_occupancy_monotone(self, w_a, w_b):
        lo, hi = sorted((w_a, w_b))
        assert occupancy(hi) >= occupancy(lo) - 1e-12

    def test_linear_law_cannot_reproduce_fig12(self):
        """Ablation anchor: under a *linear* power law, a 200 W cap on a
        390 W workload halves the clock — a >70 % slowdown for compute-
        bound phases, nothing like the paper's 9 %."""
        cubic = capped_clock_fraction(390.0, 200.0, static_w=90.0, exponent=3.0)
        linear = capped_clock_fraction(390.0, 200.0, static_w=90.0, exponent=1.0)
        assert cubic > 0.70
        assert linear == pytest.approx(110.0 / 300.0, abs=0.01)
