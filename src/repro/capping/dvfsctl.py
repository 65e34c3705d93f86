"""Static DVFS control, for comparison against power capping.

Section V justifies the paper's choice: "While the DVFS method is
commonly employed for its ease of use, we chose to use power capping to
control the device power, which is more efficient and accurate in power
control" (citing Imes & Zhang).  This module makes that comparison
quantitative:

* **Power capping** is a closed loop: the board's controller adapts the
  clock per phase, so sustained power tracks the limit whatever kernel
  runs.
* **Static DVFS** (``nvidia-smi -lgc``-style) pins one clock for the whole
  job.  To *guarantee* a power target, the operator must provision for
  the hottest phase — over-throttling every other phase; provisioning for
  the average instead violates the target during hot phases.

:func:`compare_control` runs a workload both ways at the same target and
reports power-tracking error and runtime for each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.gpu import GpuModel, RowResolve
from repro.hardware.platform import Platform, get_platform
from repro.hardware.variability import ManufacturingVariation
from repro.perfmodel.dvfs import capped_phase_slowdown, sustained_power_w
from repro.perfmodel.power import duty_cycle_power_w
from repro.runner.cache import cached_phases
from repro.vasp.phases import PhaseTable
from repro.vasp.workload import VaspWorkload

#: Discrete clock fractions a static-DVFS operator can pin (the A100
#: exposes ~15 MHz steps; operators use a coarse ladder).
CLOCK_LADDER: tuple[float, ...] = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2)


@dataclass(frozen=True)
class ControlOutcome:
    """One control scheme's result at a power target."""

    scheme: str
    target_w: float
    runtime_s: float
    mean_power_w: float
    peak_power_w: float
    #: RMS deviation of sustained active power from the target, over the
    #: phases where the target binds.
    tracking_error_w: float

    @property
    def target_violated(self) -> bool:
        """Whether any phase's sustained power exceeded the target."""
        return self.peak_power_w > self.target_w * 1.001


def _nominal_gpu_table(
    workload: VaspWorkload,
    n_nodes: int,
    platform: "str | Platform | None" = None,
) -> tuple[GpuModel, PhaseTable]:
    """A nominal (variation-free) GPU of the platform, and the phase
    table of the workload at ``n_nodes``."""
    gpu = GpuModel(
        serial="CTL",
        spec=get_platform(platform).gpu,
        variation=ManufacturingVariation.nominal(),
    )
    return gpu, cached_phases(workload, n_nodes).table


def run_with_capping(
    workload: VaspWorkload,
    target_w: float,
    n_nodes: int = 1,
    platform: "str | Platform | None" = None,
) -> ControlOutcome:
    """Per-phase adaptive control: the board's power-capping loop."""
    gpu, table = _nominal_gpu_table(workload, n_nodes, platform)
    rows = gpu.resolve_rows(table, target_w)
    return _accumulate("capping", target_w, gpu, table, rows)


def run_with_static_dvfs(
    workload: VaspWorkload,
    target_w: float,
    n_nodes: int = 1,
    provision_for: str = "worst",
    platform: "str | Platform | None" = None,
) -> ControlOutcome:
    """One pinned clock for the whole job.

    ``provision_for='worst'`` picks the fastest ladder step whose
    *hottest* phase stays under the target (safe, slow);
    ``'mean'`` provisions for the duty-weighted average demand
    (fast, violates the target during hot phases).
    """
    if provision_for not in ("worst", "mean"):
        raise ValueError(f"provision_for must be 'worst' or 'mean', got {provision_for!r}")
    gpu, table = _nominal_gpu_table(workload, n_nodes, platform)
    static = gpu.envelope.static_w
    # Uncapped rows: each row's demand (the pinned clock replaces the rest).
    rows = gpu.resolve_rows(table)
    duties = table.column("duty_cycle").tolist()
    active = [(index, t) for index, t in table.per_phase() if duties[index] > 0]
    if not active:
        raise ValueError("workload has no GPU-active phases")
    demands = [rows[index].demand_w for index, _ in active]
    if provision_for == "worst":
        reference = max(demands)
    else:
        weights = [t * duties[index] for index, t in active]
        reference = float(np.average(demands, weights=weights))
    clock = gpu.spec.min_clock_fraction
    for step in CLOCK_LADDER:
        if sustained_power_w(reference, step, static) <= target_w:
            clock = step
            break
    pinned = [
        row
        if duty <= 0.0
        else RowResolve(
            row.demand_w,
            float(sustained_power_w(row.demand_w, clock, static)),
            float(capped_phase_slowdown(clock, cf, duty)),
        )
        for row, duty, cf in zip(
            rows, duties, table.column("compute_fraction").tolist()
        )
    ]
    return _accumulate("static_dvfs", target_w, gpu, table, pinned)


def _accumulate(scheme, target_w, gpu, table, rows):
    """Fold per-row power and stretch over the phases, in phase order."""
    idle_w = gpu.envelope.idle_w
    duties = table.column("duty_cycle").tolist()
    total_time = 0.0
    total_energy = 0.0
    peak = 0.0
    sq_err = 0.0
    err_time = 0.0
    for index, duration in table.per_phase():
        duty = duties[index]
        row = rows[index]
        active_power = row.power_w
        wall = duration * row.stretch
        avg = duty_cycle_power_w(active_power, duty, idle_w)
        total_time += wall
        total_energy += wall * avg
        if duty > 0:
            peak = max(peak, active_power)
            # Tracking error counts phases where control binds: demand
            # above the target.
            if row.demand_w > target_w:
                sq_err += wall * (active_power - target_w) ** 2
                err_time += wall
    return ControlOutcome(
        scheme=scheme,
        target_w=target_w,
        runtime_s=total_time,
        mean_power_w=total_energy / total_time if total_time > 0 else 0.0,
        peak_power_w=peak,
        tracking_error_w=float(np.sqrt(sq_err / err_time)) if err_time > 0 else 0.0,
    )


@dataclass(frozen=True)
class ControlComparison:
    """Capping vs the two static-DVFS provisioning strategies."""

    capping: ControlOutcome
    dvfs_safe: ControlOutcome
    dvfs_mean: ControlOutcome

    def capping_wins(self) -> bool:
        """The paper's claim: capping is more efficient *and* accurate.

        More efficient: no slower than safe static DVFS.  More accurate:
        tighter power tracking than the mean-provisioned DVFS, without
        the safe variant's over-throttle or the mean variant's target
        violations.
        """
        return (
            self.capping.runtime_s <= self.dvfs_safe.runtime_s * 1.001
            and not self.capping.target_violated
            and self.capping.tracking_error_w
            <= min(self.dvfs_safe.tracking_error_w, self.dvfs_mean.tracking_error_w)
            + 1e-9
        )


def compare_control(
    workload: VaspWorkload,
    target_w: float,
    n_nodes: int = 1,
    platform: "str | Platform | None" = None,
) -> ControlComparison:
    """Run the three control schemes at the same power target."""
    plat = get_platform(platform)
    return ControlComparison(
        capping=run_with_capping(workload, target_w, n_nodes, plat),
        dvfs_safe=run_with_static_dvfs(workload, target_w, n_nodes, "worst", plat),
        dvfs_mean=run_with_static_dvfs(workload, target_w, n_nodes, "mean", plat),
    )
