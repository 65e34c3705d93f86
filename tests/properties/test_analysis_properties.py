"""Property-based tests for the analysis toolkit (KDE, modes, FWHM)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.kde import UNDERFLOW_ARG, GaussianKDE, silverman_bandwidth
from repro.analysis.modes import fwhm, high_power_mode_w

EPS = float(np.finfo(float).eps)
#: Largest |z| whose kernel term the KDE evaluates (smaller ones are 0).
Z_MAX = float(np.sqrt(-2.0 * UNDERFLOW_ARG))


def rounding_rtol(h, n, *inputs) -> float:
    """Relative change of a KDE density when its inputs are re-rounded.

    Shifting or scaling data and grid rounds each value, so a kernel
    argument z = (g - x)/h moves by up to eps * (M/h + 2.5|z|), with M
    the largest |value| among *inputs* (in the units of h).  A term exp(-z^2/2), |z| <= Z_MAX,
    then moves by at most expm1(eps * (Z_MAX M/h + 3 Z_MAX^2)); the two
    n-term sums and the normalization add (n + 4) eps.
    """
    m = max(float(np.abs(values).max()) for values in inputs)
    return float(np.expm1(EPS * (Z_MAX * m / h + 3.0 * Z_MAX**2)) + (n + 4) * EPS)


power_samples = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=20, max_value=300),
    elements=st.floats(min_value=0.0, max_value=2500.0, allow_nan=False),
)


@st.composite
def varied_samples(draw):
    """Samples guaranteed to have some spread (KDE needs a bandwidth)."""
    data = draw(power_samples)
    if float(np.ptp(data)) < 1.0:
        data = data + np.linspace(0.0, 50.0, len(data))
    return data


class TestKdeProperties:
    @given(varied_samples())
    @settings(max_examples=40, deadline=None)
    def test_density_nonnegative_everywhere(self, data):
        kde = GaussianKDE(data)
        assert np.all(kde.evaluate(kde.grid(128)) >= 0.0)

    @given(varied_samples(), st.floats(min_value=-500.0, max_value=500.0))
    @settings(max_examples=30, deadline=None)
    def test_shift_equivariance(self, data, shift):
        """KDE(x + c) evaluated at (grid + c) equals KDE(x) at grid."""
        h = silverman_bandwidth(data)
        grid = GaussianKDE(data, h).grid(64)
        base = GaussianKDE(data, h).evaluate(grid)
        shifted = GaussianKDE(data + shift, h).evaluate(grid + shift)
        rtol = rounding_rtol(h, data.size, grid, data, grid + shift, data + shift)
        np.testing.assert_allclose(shifted, base, rtol=rtol, atol=1e-12)

    @given(varied_samples(), st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, data, scale):
        """KDE(s*x) with bandwidth s*h at s*grid is KDE(x)/s at grid.

        Held to :func:`rounding_rtol`: with a Silverman h near 1e-6 and
        data near 2,500, M/h is about 2.5e9, and rounding s*x alone moves
        the density by about 1e-7 relative.
        """
        h = silverman_bandwidth(data)
        grid = GaussianKDE(data, h).grid(64)
        base = GaussianKDE(data, h).evaluate(grid)
        scaled = GaussianKDE(data * scale, h * scale).evaluate(grid * scale)
        rtol = rounding_rtol(h, data.size, grid, data)
        np.testing.assert_allclose(scaled, base / scale, rtol=rtol, atol=1e-12)

    @given(varied_samples())
    @settings(max_examples=40, deadline=None)
    def test_integral_close_to_one(self, data):
        from hypothesis import assume

        kde = GaussianKDE(data)
        grid = kde.grid(n_points=1024, pad_bandwidths=8.0)
        # The quadrature guarantee (spacing <= bandwidth/3) only holds up
        # to the 65536-point grid cap; beyond it (near-degenerate data
        # with an extreme outlier) accuracy is best-effort.
        assume(grid[1] - grid[0] <= kde.bandwidth / 3.0 + 1e-12)
        integral = float(np.trapezoid(kde.evaluate(grid), grid))
        assert 0.95 <= integral <= 1.02


class TestModeProperties:
    @given(varied_samples())
    @settings(max_examples=40, deadline=None)
    def test_high_power_mode_within_padded_range(self, data):
        mode = high_power_mode_w(data)
        h = silverman_bandwidth(data)
        assert data.min() - 4 * h <= mode <= data.max() + 4 * h

    @given(varied_samples(), st.floats(min_value=-300.0, max_value=300.0))
    @settings(max_examples=30, deadline=None)
    def test_mode_shift_equivariance(self, data, shift):
        h = silverman_bandwidth(data)
        base = high_power_mode_w(data, bandwidth=h)
        moved = high_power_mode_w(data + shift, bandwidth=h)
        assert abs((moved - base) - shift) < h * 0.6

    @given(varied_samples())
    @settings(max_examples=30, deadline=None)
    def test_fwhm_positive_and_bounded(self, data):
        width = fwhm(data)
        h = silverman_bandwidth(data)
        span = float(np.ptp(data)) + 8 * h
        assert 0.0 < width <= span
