"""Distribution summaries: the numbers printed in the paper's figures.

Fig 3's text boxes report maximum / median / minimum node power alongside
the high power mode; Fig 9 draws violin plots with quartiles.  These
helpers compute those summaries from power samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.modes import Density, high_power_mode


@dataclass(frozen=True)
class DistributionSummary:
    """Max / median / min / mean plus the high power mode and its FWHM."""

    max_w: float
    median_w: float
    min_w: float
    mean_w: float
    high_power_mode_w: float
    fwhm_w: float
    n_samples: int

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (report rendering)."""
        return {
            "max_w": self.max_w,
            "median_w": self.median_w,
            "min_w": self.min_w,
            "mean_w": self.mean_w,
            "high_power_mode_w": self.high_power_mode_w,
            "fwhm_w": self.fwhm_w,
            "n_samples": float(self.n_samples),
        }


def summarize(data, bandwidth: float | str = "silverman") -> DistributionSummary:
    """Full summary of a power sample (Fig 3 text-box contents)."""
    arr = np.asarray(data, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    density = Density.of(arr, bandwidth=bandwidth)
    mode = density.high_power_mode()
    return DistributionSummary(
        max_w=float(arr.max()),
        median_w=float(np.median(arr)),
        min_w=float(arr.min()),
        mean_w=float(arr.mean()),
        high_power_mode_w=mode.power_w,
        fwhm_w=density.fwhm(mode),
        n_samples=int(arr.size),
    )


@dataclass(frozen=True)
class ViolinStats:
    """Everything needed to draw one violin with quartiles (Fig 9)."""

    label: str
    q1_w: float
    median_w: float
    q3_w: float
    min_w: float
    max_w: float
    high_power_mode_w: float
    density_grid_w: np.ndarray
    density: np.ndarray

    @property
    def iqr_w(self) -> float:
        """Interquartile range."""
        return self.q3_w - self.q1_w


def violin_stats(
    data, label: str = "", bandwidth: float | str = "silverman", n_grid: int = 256
) -> ViolinStats:
    """Violin-plot statistics of a power sample."""
    arr = np.asarray(data, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot build violin stats from an empty sample")
    q1, median, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    violin = Density.of(arr, bandwidth=bandwidth, n_grid=n_grid)
    return ViolinStats(
        label=label,
        q1_w=float(q1),
        median_w=float(median),
        q3_w=float(q3),
        min_w=float(arr.min()),
        max_w=float(arr.max()),
        high_power_mode_w=high_power_mode(arr, bandwidth=bandwidth).power_w,
        density_grid_w=violin.grid,
        density=violin.values,
    )
