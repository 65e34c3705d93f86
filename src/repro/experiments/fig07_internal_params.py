"""Fig 7: power vs internal parameters (NPLWV left, NBANDS right).

Si256_hse on one node.  The paper's finding mirrors VASP's parallelization
strategy: plane waves are distributed *within* a GPU, so more plane waves
means more simultaneous work and higher power; bands are processed
*sequentially* per GPU, so more bands means longer runtime (more energy)
at unchanged power.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.modes import high_power_mode_w
from repro.experiments.common import run_workload
from repro.experiments.report import format_table
from repro.vasp.benchmarks import BENCHMARKS

#: Plane-wave counts swept in the left panel (the paper's reference
#: Si256 variant sits at NPLWV = 216,000).
NPLWV_SWEEP: tuple[int, ...] = (216000, 343000, 512000, 746496, 1024000)
#: Band counts swept in the right panel.
NBANDS_SWEEP: tuple[int, ...] = (384, 512, 640, 768, 1024)


@dataclass(frozen=True)
class ParamPoint:
    """One sweep point: power and energy at a parameter value."""

    value: int
    high_power_mode_w: float
    mean_power_w: float
    runtime_s: float
    energy_mj: float


@dataclass
class Fig07Result:
    """Both panels of Fig 7."""

    nplwv_points: list[ParamPoint]
    nbands_points: list[ParamPoint]

    def nbands_power_spread_w(self) -> float:
        """HPM spread over the NBANDS sweep (should be small)."""
        values = [p.high_power_mode_w for p in self.nbands_points]
        return max(values) - min(values)

    def nplwv_power_spread_w(self) -> float:
        """HPM spread over the NPLWV sweep (should be visible)."""
        values = [p.high_power_mode_w for p in self.nplwv_points]
        return max(values) - min(values)

    def nbands_energy_linearity(self) -> float:
        """R^2 of a linear fit of energy vs NBANDS (paper: ~linear)."""
        x = np.array([p.value for p in self.nbands_points], dtype=float)
        y = np.array([p.energy_mj for p in self.nbands_points])
        coeffs = np.polyfit(x, y, 1)
        fit = np.polyval(coeffs, x)
        ss_res = float(np.sum((y - fit) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _measure(workload, seed: int) -> ParamPoint:
    measured = run_workload(workload, n_nodes=1, seed=seed)
    node_power = measured.telemetry[0].node_power
    return ParamPoint(
        value=0,  # filled by caller
        high_power_mode_w=high_power_mode_w(node_power),
        mean_power_w=float(np.mean(node_power)),
        runtime_s=measured.runtime_s,
        energy_mj=measured.energy_mj(),
    )


def run(
    nplwv_sweep: tuple[int, ...] = NPLWV_SWEEP,
    nbands_sweep: tuple[int, ...] = NBANDS_SWEEP,
    seed: int = 7,
) -> Fig07Result:
    """Run both parameter sweeps.

    A variant is measured once per (NPLWV, NBANDS): the sweep value equal
    to the base's own NPLWV and the one equal to its NBANDS are the same
    run, and both panels share its point.
    """
    base = BENCHMARKS["Si256_hse"].build()
    measured: dict[tuple[int, int], ParamPoint] = {}

    def point(workload, value: int) -> ParamPoint:
        key = (workload.nplwv, workload.nbands)
        if key not in measured:
            measured[key] = _measure(workload, seed)
        return replace(measured[key], value=value)

    return Fig07Result(
        nplwv_points=[point(base.with_nplwv(n), n) for n in nplwv_sweep],
        nbands_points=[point(base.with_nbands(n), n) for n in nbands_sweep],
    )


def render(result: Fig07Result) -> str:
    """ASCII rendering of both panels."""
    left = format_table(
        headers=["NPLWV", "HPM (W)", "Mean (W)", "Runtime (s)", "Energy (MJ)"],
        rows=[
            [p.value, p.high_power_mode_w, p.mean_power_w, p.runtime_s, p.energy_mj]
            for p in result.nplwv_points
        ],
        title="Fig 7 (left): power vs NPLWV (Si256_hse, 1 node)",
    )
    right = format_table(
        headers=["NBANDS", "HPM (W)", "Mean (W)", "Runtime (s)", "Energy (MJ)"],
        rows=[
            [p.value, p.high_power_mode_w, p.mean_power_w, p.runtime_s, p.energy_mj]
            for p in result.nbands_points
        ],
        title="Fig 7 (right): power vs NBANDS (Si256_hse, 1 node)",
    )
    return left + "\n\n" + right
