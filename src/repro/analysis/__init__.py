"""Power-profile analysis toolkit.

Implements the statistical machinery of Section III-B: kernel density
estimates of power timeline data, mode finding, the **high power mode**
(the mode at the highest power — the paper's preferred power metric) and
its full width at half maximum, plus distribution summaries (violin
statistics for Fig 9) and scaling metrics (parallel efficiency,
energy-to-solution).
"""

from repro.analysis.kde import GaussianKDE, silverman_bandwidth, scott_bandwidth
from repro.analysis.modes import (
    Density,
    Mode,
    find_modes,
    fwhm,
    high_power_mode,
    high_power_mode_w,
)
from repro.analysis.stats import (
    DistributionSummary,
    ViolinStats,
    summarize,
    violin_stats,
)
from repro.analysis.efficiency import (
    ScalingPoint,
    energy_to_solution_mj,
    parallel_efficiency,
    scaling_table,
    speedup,
)

__all__ = [
    "Density",
    "DistributionSummary",
    "GaussianKDE",
    "Mode",
    "ScalingPoint",
    "ViolinStats",
    "energy_to_solution_mj",
    "find_modes",
    "fwhm",
    "high_power_mode",
    "high_power_mode_w",
    "parallel_efficiency",
    "scaling_table",
    "scott_bandwidth",
    "silverman_bandwidth",
    "speedup",
    "summarize",
    "violin_stats",
]
