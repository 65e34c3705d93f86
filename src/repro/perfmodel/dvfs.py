"""Cap -> clock -> slowdown relationships, and the occupancy model.

These are standalone (array-friendly) versions of the math embedded in
:class:`repro.hardware.gpu.GpuModel`, used by analysis code and by the
ablation benches that compare DVFS laws.  The canonical law is cubic:

    P(f) = P_static + (P_demand - P_static) * f**3

Performance of the compute-bound part of a phase scales ~1/f; the
memory-bound part is insensitive to the SM clock.

The *occupancy* model expresses how utilization saturates with the amount
of simultaneously-schedulable work per GPU (plane waves times the batched
band count) — a Hill curve

    s(w) = w**h / (w**h + w_half**h)

that drives Fig 6's rise-then-plateau and Fig 7's NPLWV dependence.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.platform import default_gpu_spec

#: Default Hill half-saturation work, in plane-wave-coefficient units
#: (NPLWV x batched bands).  Calibrated so a 2048-atom silicon supercell
#: (NPLWV ~ 1.6e6, RMM batch 4) sits near the Fig 6 plateau.
OCCUPANCY_W_HALF: float = 2.0e6
#: Default Hill exponent.
OCCUPANCY_HILL: float = 1.2
#: Lowest clock fraction reachable by throttling on the default platform
#: (A100: ~210/1410 MHz).  Platform-aware callers pass their GPU spec's
#: ``min_clock_fraction`` to :func:`capped_clock_fraction` instead.
MIN_CLOCK_FRACTION: float = default_gpu_spec().min_clock_fraction


def occupancy(
    work: float | np.ndarray,
    w_half: float = OCCUPANCY_W_HALF,
    hill: float = OCCUPANCY_HILL,
) -> float | np.ndarray:
    """Saturating occupancy factor in (0, 1] for a per-GPU work size."""
    w = np.asarray(work, dtype=float)
    if np.any(w < 0):
        raise ValueError("work must be non-negative")
    wh = np.power(np.maximum(w, 0.0), hill)
    out = wh / (wh + w_half**hill)
    return float(out) if np.isscalar(work) or out.ndim == 0 else out


def capped_clock_fraction(
    demand_w: float | np.ndarray,
    cap_w: float | np.ndarray,
    static_w: float,
    exponent: float = 3.0,
    min_clock_fraction: float = MIN_CLOCK_FRACTION,
) -> float | np.ndarray:
    """Largest clock fraction whose sustained power fits under the cap.

    Vectorized over ``demand_w`` and ``cap_w``.  ``exponent`` selects the
    DVFS law (3 = cubic, the calibrated default; 1 = linear, used by the
    ablation bench to show why a linear law cannot reproduce Fig 12).
    ``min_clock_fraction`` is the platform's throttle floor.
    """
    demand = np.asarray(demand_w, dtype=float)
    cap = np.asarray(cap_w, dtype=float)
    headroom = np.maximum(cap - static_w, 0.0)
    span = np.maximum(demand - static_w, 1e-12)
    frac = np.power(np.clip(headroom / span, 0.0, 1.0), 1.0 / exponent)
    frac = np.where(demand <= cap, 1.0, frac)
    frac = np.where(demand <= static_w, 1.0, frac)
    out = np.clip(frac, min_clock_fraction, 1.0)
    return float(out) if out.ndim == 0 else out


def sustained_power_w(
    demand_w: float | np.ndarray,
    clock_fraction: float | np.ndarray,
    static_w: float,
    exponent: float = 3.0,
) -> float | np.ndarray:
    """Board power at a given clock fraction under the chosen DVFS law."""
    demand = np.asarray(demand_w, dtype=float)
    frac = np.asarray(clock_fraction, dtype=float)
    out = static_w + np.maximum(demand - static_w, 0.0) * np.power(frac, exponent)
    out = np.minimum(out, demand)
    return float(out) if out.ndim == 0 else out


def capped_phase_slowdown(
    clock_fraction: float | np.ndarray,
    compute_fraction: float | np.ndarray,
    duty_cycle: float | np.ndarray = 1.0,
) -> float | np.ndarray:
    """Wall-time multiplier of a phase at a reduced SM clock.

    Only the compute-bound share of kernel time stretches by ``1/f``; the
    memory-bound share and the idle gaps (``1 - duty_cycle``) do not.
    """
    f = np.asarray(clock_fraction, dtype=float)
    cf = np.asarray(compute_fraction, dtype=float)
    duty = np.asarray(duty_cycle, dtype=float)
    if np.any((f <= 0) | (f > 1)):
        raise ValueError("clock_fraction must be in (0, 1]")
    if np.any((cf < 0) | (cf > 1)) or np.any((duty < 0) | (duty > 1)):
        raise ValueError("compute_fraction and duty_cycle must be in [0, 1]")
    active_slowdown = cf / f + (1.0 - cf)
    out = duty * active_slowdown + (1.0 - duty)
    return float(out) if out.ndim == 0 else out
