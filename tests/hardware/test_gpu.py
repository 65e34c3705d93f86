"""Unit tests for the A100 power/DVFS model."""

import pytest

from repro.hardware.gpu import (
    GpuModel,
    PowerLimitError,
    MIN_CLOCK_FRACTION,
    applied_cap_w,
)
from repro.hardware.variability import ManufacturingVariation
from repro.perfmodel.kernels import KernelCatalogue
from repro.vasp.phases import MacroPhase, phase_table


@pytest.fixture
def gpu() -> GpuModel:
    """A variation-free GPU so assertions are exact."""
    return GpuModel(serial="TEST", variation=ManufacturingVariation.nominal())


def hot_table():
    """A two-row phase table: one compute-bound row, one idle row."""
    return phase_table(
        [
            MacroPhase("dgemm", 2.0, KernelCatalogue.DGEMM_TEST),
            MacroPhase("host", 1.0, KernelCatalogue.HOST_SECTION),
        ]
    )


class TestPowerLimit:
    def test_default_limit_is_tdp(self, gpu):
        assert applied_cap_w(gpu.spec, None) == 400.0
        assert gpu.resolve_phase(380.0, 0.6) == gpu.resolve_phase(380.0, 0.6, 400.0)
        assert gpu.regulation_error() == gpu.regulation_error(400.0)
        assert gpu.resolve_rows(hot_table()) == gpu.resolve_rows(hot_table(), 400.0)

    def test_resolve_rows_applies_the_cap(self, gpu):
        uncapped = gpu.resolve_rows(hot_table())
        capped = gpu.resolve_rows(hot_table(), 200.0)
        assert capped[0].stretch > uncapped[0].stretch
        assert capped[0].power_w < uncapped[0].power_w
        assert capped[1] == uncapped[1]  # an idle row ignores the cap

    @pytest.mark.parametrize("bad", [99.9, 401.0, 0.0, -100.0])
    def test_rejects_out_of_range(self, gpu, bad):
        with pytest.raises(PowerLimitError, match=r"outside supported range \[100, 400\] W"):
            applied_cap_w(gpu.spec, bad)
        with pytest.raises(PowerLimitError):
            gpu.resolve_rows(hot_table(), bad)

    @pytest.mark.parametrize("ok", [100.0, 200.0, 300.0, 400.0])
    def test_accepts_paper_caps(self, gpu, ok):
        assert applied_cap_w(gpu.spec, ok) == ok
        checked = applied_cap_w(gpu.spec, int(ok))
        assert checked == ok and isinstance(checked, float)


class TestClockFraction:
    def test_full_clocks_when_uncapped(self, gpu):
        assert gpu.clock_fraction(350.0, cap_w=400.0) == 1.0

    def test_full_clocks_when_demand_below_static(self, gpu):
        # Static power cannot be clocked away.
        assert gpu.clock_fraction(80.0, cap_w=100.0) == 1.0
        assert gpu.clock_fraction(89.0, cap_w=50.0) == 1.0

    def test_throttles_when_cap_binds(self, gpu):
        frac = gpu.clock_fraction(350.0, cap_w=200.0)
        assert MIN_CLOCK_FRACTION <= frac < 1.0

    def test_lower_cap_lower_clock(self, gpu):
        f300 = gpu.clock_fraction(380.0, cap_w=300.0)
        f200 = gpu.clock_fraction(380.0, cap_w=200.0)
        f100 = gpu.clock_fraction(380.0, cap_w=100.0)
        assert f300 > f200 > f100 >= MIN_CLOCK_FRACTION

    def test_cubic_law_half_power_keeps_most_clocks(self, gpu):
        """The crux of the paper's headline: 50 % of TDP keeps ~3/4 clocks."""
        frac = gpu.clock_fraction(390.0, cap_w=200.0)
        assert frac > 0.70


class TestRegulationError:
    def test_negligible_at_high_caps(self, gpu):
        assert gpu.regulation_error(400.0) == pytest.approx(0.0)
        assert gpu.regulation_error(300.0) < 0.01
        assert gpu.regulation_error(200.0) < 0.01

    def test_visible_at_floor(self, gpu):
        assert gpu.regulation_error(100.0) == pytest.approx(0.08)

    def test_monotone_in_depth(self, gpu):
        errors = [gpu.regulation_error(c) for c in (400.0, 300.0, 200.0, 100.0)]
        assert errors == sorted(errors)


class TestResolvePhase:
    def test_uncapped_power_equals_demand(self, gpu):
        sample = gpu.resolve_phase(320.0)
        assert sample.power_w == pytest.approx(320.0)
        assert sample.slowdown == 1.0

    def test_capped_power_below_cap_in_authority_range(self, gpu):
        sample = gpu.resolve_phase(380.0, compute_fraction=0.6, cap_w=200.0)
        assert sample.power_w <= 200.0
        assert sample.slowdown > 1.0

    def test_floor_cap_overshoots(self, gpu):
        sample = gpu.resolve_phase(380.0, compute_fraction=0.6, cap_w=100.0)
        assert sample.power_w > 100.0  # Fig 10's 100 W error
        assert sample.power_w < 120.0

    def test_memory_bound_phase_barely_slows(self, gpu):
        sample = gpu.resolve_phase(380.0, compute_fraction=0.1, cap_w=200.0)
        assert sample.slowdown < 1.08

    def test_compute_bound_phase_slows_more(self, gpu):
        memory = gpu.resolve_phase(380.0, compute_fraction=0.1, cap_w=200.0)
        compute = gpu.resolve_phase(380.0, compute_fraction=0.9, cap_w=200.0)
        assert compute.slowdown > memory.slowdown

    def test_rejects_bad_compute_fraction(self, gpu):
        with pytest.raises(ValueError):
            gpu.resolve_phase(300.0, compute_fraction=1.5)

    def test_idle_sample(self, gpu):
        sample = gpu.idle_sample()
        assert sample.power_w == pytest.approx(gpu.envelope.idle_w)
        assert sample.slowdown == 1.0

    def test_variation_biases_power(self):
        biased = GpuModel(
            serial="X", variation=ManufacturingVariation(power_factor=1.05, idle_offset_w=2.0)
        )
        sample = biased.resolve_phase(355.0)
        # idle 55 + 2 offset + 300 dynamic * 1.05
        assert sample.power_w == pytest.approx(55.0 + 2.0 + 315.0)
