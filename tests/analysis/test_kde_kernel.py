"""The tiled KDE kernel is bit-identical to the untiled outer product.

``GaussianKDE.evaluate`` tiles over grid rows and sets underflowing
exponent arguments to ``+0.0`` instead of calling ``exp`` on them.  Both
are meant to be exact, so every case here compares the raw bits
(``.view(np.uint64)``) against :func:`reference_evaluate`, the untiled
kernel that computes every ``exp`` on one ``(grid, chunk)`` outer product.
"""

import numpy as np
import pytest

from repro.analysis import kde
from repro.analysis.kde import UNDERFLOW_ARG, GaussianKDE

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def reference_evaluate(data, bandwidth, grid):
    """The untiled kernel: one outer product and one ``exp`` per chunk."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    out = np.zeros_like(grid)
    h = bandwidth
    n = data.size
    chunk = max(1, int(4e6 // max(grid.size, 1)))
    for start in range(0, n, chunk):
        block = data[start : start + chunk]
        z = (grid[:, None] - block[None, :]) / h
        out += np.exp(-0.5 * z * z).sum(axis=1)
    return out / (n * h * _SQRT_2PI)


def assert_bits_equal(kde_, grid):
    got = kde_.evaluate(grid)
    want = reference_evaluate(kde_.data, kde_.bandwidth, grid)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    return got


def straddle_case():
    """One data point at 0 and a grid whose exponent arguments cross -745.133.

    With ``n = 1`` each density is ``exp(arg) / (h sqrt(2 pi))``; a small
    bandwidth scales the subnormal terms near the underflow edge up into
    values the result keeps.
    """
    h = 1e-3
    args = np.linspace(-760.0, -700.0, 4001)
    grid = h * np.sqrt(-2.0 * args)
    return GaussianKDE(np.array([0.0]), bandwidth=h), grid


class TestTiledKernelBits:
    def test_data_longer_than_one_chunk(self):
        rng = np.random.default_rng(11)
        data = np.concatenate([rng.normal(300, 12, 9_000), rng.normal(520, 20, 3_500)])
        kde_ = GaussianKDE(data)
        grid = kde_.grid(1024)
        assert data.size > int(4e6 // grid.size)
        assert_bits_equal(kde_, grid)

    @pytest.mark.parametrize("n_grid", [2, 3, 7, 1000, 1031, 65_536])
    def test_grid_sizes_off_the_tile_rows(self, n_grid):
        rng = np.random.default_rng(n_grid)
        data = rng.normal(250, 30, 700)
        kde_ = GaussianKDE(data)
        rows = kde.TILE_ELEMENTS // min(int(4e6 // n_grid), data.size)
        assert n_grid % rows, "the last tile should be a partial one"
        assert_bits_equal(kde_, np.linspace(100.0, 400.0, n_grid))

    def test_two_far_clusters_mostly_underflow(self):
        rng = np.random.default_rng(3)
        data = np.concatenate([rng.normal(100, 2, 1_500), rng.normal(1_800, 2, 1_500)])
        kde_ = GaussianKDE(data, bandwidth=1.0)
        grid = kde_.grid(1024)
        z = (grid[:, None] - data[None, :]) / kde_.bandwidth
        assert np.mean(-0.5 * z * z < UNDERFLOW_ARG) > 0.5
        density = assert_bits_equal(kde_, grid)
        assert np.count_nonzero(density == 0.0) > 0

    def test_arguments_straddling_the_underflow_edge(self):
        kde_, grid = straddle_case()
        density = assert_bits_equal(kde_, grid)
        z = grid / kde_.bandwidth
        args = -0.5 * z * z
        edge = -1075 * np.log(2.0)
        # Subnormal terms just above the edge survive; below it all is +0.0.
        assert np.all(density[(args > edge + 0.5) & (args < -708.0)] > 0.0)
        assert not np.any(density[args < UNDERFLOW_ARG].view(np.uint64))

    def test_single_data_point(self):
        kde_ = GaussianKDE(np.array([412.5]), bandwidth=3.0)
        assert_bits_equal(kde_, kde_.grid(512))
        assert_bits_equal(kde_, 412.5)

    def test_tiny_bandwidth(self):
        rng = np.random.default_rng(8)
        data = rng.uniform(0, 10, 400)
        kde_ = GaussianKDE(data, bandwidth=1e-9)
        assert_bits_equal(kde_, np.linspace(0.0, 10.0, 4_099))
        # Exponent arguments overflow to -inf here; exp(-inf) is +0.0 too.
        with np.errstate(over="ignore"):
            assert_bits_equal(GaussianKDE(data, bandwidth=1e-300), np.linspace(0, 10, 50))

    def test_exp_is_zero_below_the_cutoff(self):
        """The rule the kernel relies on holds for this numpy's ``exp``."""
        args = np.linspace(-2_000.0, UNDERFLOW_ARG, 1_000_001)
        assert not np.exp(args).view(np.uint64).any()
        assert not np.exp(np.array([-np.inf, -1e308])).view(np.uint64).any()
