"""Utilization -> demand-power mapping for the A100.

``demand power`` is the board power a kernel mix would draw at full clocks
(no cap).  We use a two-component linear model

    P_d = P_idle + P_dyn * min(1, w_c * u_c + w_m * u_m)

with dynamic range ``P_dyn = TDP - P_idle`` and weights ``w_c = 0.78``
(compute) and ``w_m = 0.45`` (memory); the sum is allowed to exceed one
and is clipped, since compute and memory activity overlap.  The weights
put a tensor-core DGEMM (u_c ~ 0.97, u_m ~ 0.4) at ~380 W and a pure
STREAM kernel at ~215 W, matching published A100 microbenchmark power.
"""

from __future__ import annotations

import numpy as np

from repro.units.constants import GPUEnvelope
from repro.perfmodel.kernels import GpuKernelProfile

#: Relative weight of compute activity in dynamic power.
COMPUTE_WEIGHT: float = 0.78
#: Relative weight of HBM activity in dynamic power.
MEMORY_WEIGHT: float = 0.45


def demand_power_w(profile: GpuKernelProfile, envelope: GPUEnvelope) -> float:
    """Full-clock board power demanded by a kernel profile, in watts.

    The result is the *active* power (while kernels execute); duty-cycle
    averaging is applied separately by :func:`duty_cycle_power_w`.
    """
    dyn = envelope.tdp_w - envelope.idle_w
    activity = min(
        1.0,
        COMPUTE_WEIGHT * profile.compute_utilization
        + MEMORY_WEIGHT * profile.memory_utilization,
    )
    return envelope.idle_w + dyn * activity


def demand_power_batch(
    compute_utilization: np.ndarray,
    memory_utilization: np.ndarray,
    tdp_w: float | np.ndarray,
    idle_w: float | np.ndarray,
) -> np.ndarray:
    """Array version of :func:`demand_power_w`.

    Broadcasts utilization arrays (e.g. one entry per phase) against
    envelope terms (scalars, or per-GPU arrays for heterogeneous pools)
    and returns full-clock board power per element.  The arithmetic is the
    exact expression of the scalar path, element-wise.
    """
    uc = np.asarray(compute_utilization, dtype=float)
    um = np.asarray(memory_utilization, dtype=float)
    dyn = np.asarray(tdp_w, dtype=float) - np.asarray(idle_w, dtype=float)
    activity = np.minimum(1.0, COMPUTE_WEIGHT * uc + MEMORY_WEIGHT * um)
    return np.asarray(idle_w, dtype=float) + dyn * activity


def duty_cycle_power_w(active_power_w: float, duty_cycle: float, idle_w: float) -> float:
    """Wall-clock-average power of a phase with launch/host gaps.

    A phase that keeps the GPU busy only a fraction ``duty_cycle`` of the
    time averages between active power and idle power.  This is what the
    2-second telemetry sees for small workloads whose kernels are shorter
    than the gaps between them.
    """
    if not 0.0 <= duty_cycle <= 1.0:
        raise ValueError(f"duty_cycle must be in [0, 1], got {duty_cycle}")
    return duty_cycle * active_power_w + (1.0 - duty_cycle) * idle_w
