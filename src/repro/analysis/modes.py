"""Mode analysis of power distributions: the paper's headline metric.

Section III-B defines the **high power mode** as "the mode corresponding
to the highest power" in the KDE of the power timeline, and characterizes
its spread with the full width at half maximum (FWHM).  Compared to the
mean (skewed by multi-modality) or the maximum (skewed by transient
spikes), the high power mode is what a power-capping policy must respect.

One density per sample: :meth:`Density.of` evaluates the KDE once on its
natural grid, and the modes, the high power mode and its FWHM are all
read from that one ``(grid, values)`` pair.  A caller that needs more
than one of them (``stats.summarize``, ``clustering.profile_features``,
the Fig 2 and Fig 6 sweeps) builds the :class:`Density` itself; the
module functions :func:`find_modes`, :func:`high_power_mode` and
:func:`fwhm` each evaluate their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.kde import GaussianKDE


@dataclass(frozen=True)
class Mode:
    """One local maximum of the density."""

    power_w: float
    density: float
    prominence: float

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mode({self.power_w:.0f} W, density={self.density:.3g})"


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of strict-or-plateau local maxima of a 1-D array."""
    n = len(values)
    if n < 3:
        return np.array([0] if n == 1 else [int(np.argmax(values))])
    rising = values[1:-1] > values[:-2]
    falling = values[1:-1] >= values[2:]
    interior = np.where(rising & falling)[0] + 1
    maxima = list(interior)
    if values[0] > values[1]:
        maxima.insert(0, 0)
    if values[-1] > values[-2]:
        maxima.append(n - 1)
    return np.array(sorted(set(maxima)), dtype=int)


@dataclass(frozen=True)
class Density:
    """A sample's KDE evaluated once on its natural grid."""

    grid: np.ndarray
    values: np.ndarray

    @classmethod
    def of(
        cls, data, bandwidth: float | str = "silverman", n_grid: int = 1024
    ) -> Density:
        """Evaluate the KDE of ``data`` on ``kde.grid(n_points=n_grid)``."""
        kde = GaussianKDE(data, bandwidth=bandwidth)
        grid = kde.grid(n_points=n_grid)
        return cls(grid=grid, values=kde.evaluate(grid))

    def modes(self, min_prominence: float = 0.05) -> list[Mode]:
        """Local maxima of the density, sorted by power (ascending).

        ``min_prominence`` filters noise peaks: a mode must rise at least
        that fraction of the global density maximum above the higher of
        its two flanking minima.
        """
        if not 0.0 <= min_prominence <= 1.0:
            raise ValueError(
                f"min_prominence must be in [0, 1], got {min_prominence}"
            )
        grid, density = self.grid, self.values
        peak_indices = _local_maxima(density)
        global_max = float(density.max())
        if global_max <= 0:
            return []
        modes: list[Mode] = []
        for idx in peak_indices:
            # Topographic prominence: on each side, walk to the nearest
            # peak *higher* than this one; the key saddle is the minimum
            # density along that path.  The higher of the two key saddles
            # bounds the peak's prominence; the global maximum has no
            # higher terrain and gets full prominence.
            height = float(density[idx])
            saddles: list[float] = []
            higher_left = peak_indices[
                (peak_indices < idx) & (density[peak_indices] > height)
            ]
            if higher_left.size:
                saddles.append(float(density[higher_left[-1] : idx + 1].min()))
            higher_right = peak_indices[
                (peak_indices > idx) & (density[peak_indices] > height)
            ]
            if higher_right.size:
                saddles.append(float(density[idx : higher_right[0] + 1].min()))
            key_saddle = max(saddles) if saddles else 0.0
            prominence = (height - key_saddle) / global_max
            if prominence >= min_prominence:
                modes.append(
                    Mode(
                        power_w=float(grid[idx]),
                        density=float(density[idx]),
                        prominence=prominence,
                    )
                )
        modes.sort(key=lambda m: m.power_w)
        return modes

    def high_power_mode(self, min_prominence: float = 0.05) -> Mode:
        """The mode at the highest power (the paper's power metric).

        Raises
        ------
        ValueError
            If no mode passes the prominence filter (degenerate input).
        """
        modes = self.modes(min_prominence)
        if not modes:
            raise ValueError("no modes found; input too short or degenerate")
        return modes[-1]

    def fwhm(self, mode: Mode | None = None) -> float:
        """Full width at half maximum of (by default) the high power mode.

        Walks outward from the grid point nearest the mode until the
        density falls below half the mode's density on each side; the
        width between the crossings is the FWHM.  For a multi-modal
        density the walk stops at the first crossing, so the width
        describes the chosen mode, not the whole distribution.
        """
        if mode is None:
            mode = self.high_power_mode()
        grid, density = self.grid, self.values
        center = int(np.argmin(np.abs(grid - mode.power_w)))
        half = density[center] / 2.0
        left = center
        while left > 0 and density[left] > half:
            left -= 1
        right = center
        while right < len(grid) - 1 and density[right] > half:
            right += 1
        return float(grid[right] - grid[left])


def find_modes(
    data,
    bandwidth: float | str = "silverman",
    min_prominence: float = 0.05,
    n_grid: int = 1024,
) -> list[Mode]:
    """Modes of the KDE of a sample, sorted by power (see :meth:`Density.modes`)."""
    return Density.of(data, bandwidth=bandwidth, n_grid=n_grid).modes(min_prominence)


def high_power_mode(
    data,
    bandwidth: float | str = "silverman",
    min_prominence: float = 0.05,
) -> Mode:
    """The mode at the highest power (see :meth:`Density.high_power_mode`)."""
    return Density.of(data, bandwidth=bandwidth).high_power_mode(min_prominence)


def high_power_mode_w(data, **kwargs) -> float:
    """Convenience: the high power mode's location in watts."""
    return high_power_mode(data, **kwargs).power_w


def fwhm(
    data,
    mode: Mode | None = None,
    bandwidth: float | str = "silverman",
    n_grid: int = 1024,
) -> float:
    """FWHM of (by default) the high power mode (see :meth:`Density.fwhm`)."""
    return Density.of(data, bandwidth=bandwidth, n_grid=n_grid).fwhm(mode)
