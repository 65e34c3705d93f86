"""Behavioural model of a data-centre GPU: power, capping and DVFS.

The model answers two questions per kernel phase:

1. *How much power does the GPU draw* while a phase with demand power
   ``P_d`` runs under power limit ``C``?
2. *How much slower does the phase run* when the cap binds?

It implements the classic DVFS relationship: sustained board power is

    P(f) = P_static + (P_d - P_static) * f**3

for clock fraction ``f`` (voltage scales with frequency, so dynamic power
scales roughly cubically), while compute-bound kernel time scales as
``1/f``.  When a cap binds, the board's power controller picks the largest
``f`` with ``P(f) <= C``.  Near the cap floor the controller's regulation
error grows, reproducing the overshoot the paper reports in Fig 10.

Every device-specific number — cap range, clock floor, control margin,
regulation ramp, manufacturing spread — comes from the
:class:`~repro.hardware.platform.GpuSpec` the model is built with; the
default spec is the paper's A100 40 GB (``a100-40g`` in the platform
registry), whose cubic law is what makes the headline result possible:
capping an A100 to 50 % of TDP costs far less than 50 % of performance,
because the last watts buy very few hertz.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.perfmodel.power import demand_power_at
from repro.units.constants import GPUEnvelope
from repro.hardware.platform import GpuSpec, default_gpu_spec
from repro.hardware.variability import ManufacturingVariation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vasp.phases import PhaseTable

#: Deprecated module-level defaults, kept for backward compatibility.
#: The authoritative values are per-device spec fields
#: (:attr:`GpuSpec.min_clock_fraction` / :attr:`GpuSpec.control_margin`);
#: these constants only describe the default A100 spec.
MIN_CLOCK_FRACTION: float = default_gpu_spec().min_clock_fraction
CONTROL_MARGIN: float = default_gpu_spec().control_margin
_DEFAULT_REG_MAX: float = default_gpu_spec().regulation_error_max
_DEFAULT_REG_EXP: float = default_gpu_spec().regulation_error_exponent


@dataclass(frozen=True)
class GpuPowerSample:
    """One resolved phase on a GPU: sustained power and slowdown."""

    power_w: float
    clock_fraction: float
    slowdown: float


@dataclass(frozen=True)
class RowResolve:
    """One distinct phase-table row resolved on one GPU (scalar path)."""

    #: Full-clock demand power (0.0 for an idle row).
    demand_w: float
    #: Sustained power while kernels run (idle power for an idle row).
    power_w: float
    #: Phase time multiplier, ``duty * slowdown + (1 - duty)``.
    stretch: float


class PowerLimitError(ValueError):
    """Raised when a requested power limit is outside the supported range."""


def applied_cap_w(spec: GpuSpec, cap_w: float | None) -> float:
    """The cap a GPU of ``spec`` runs at: its TDP when ``cap_w`` is None,
    else ``cap_w`` as a float, checked like ``nvidia-smi -pl`` checks it.

    Raises
    ------
    PowerLimitError
        If ``cap_w`` is outside the board's supported cap range.
    """
    if cap_w is None:
        return spec.tdp_w
    if not (spec.cap_min_w <= cap_w <= spec.cap_max_w):
        raise PowerLimitError(
            f"{spec.name}: power limit {cap_w:.0f} W outside supported "
            f"range [{spec.cap_min_w:.0f}, {spec.cap_max_w:.0f}] W"
        )
    return float(cap_w)


@dataclass
class GpuModel:
    """One GPU board; the power cap is an argument of each resolve.

    Parameters
    ----------
    serial:
        Serial number; drives deterministic manufacturing variation.
    spec:
        Device spec (envelope plus behavioural parameters).  A bare
        :class:`~repro.units.constants.GPUEnvelope` is promoted via
        :meth:`GpuSpec.from_envelope`, so custom envelopes get explicit —
        and overridable — clock-floor and controller behaviour instead of
        silently inheriting the A100's.
    variation:
        Per-unit bias; defaults to a deterministic draw from ``serial``
        using the spec's manufacturing-spread parameters.
    """

    serial: str = "GPU-000000"
    spec: GpuSpec = field(default_factory=default_gpu_spec)
    variation: ManufacturingVariation | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.spec, GpuSpec):
            if not isinstance(self.spec, GPUEnvelope):
                raise TypeError(f"spec must be a GpuSpec, got {type(self.spec).__name__}")
            self.spec = GpuSpec.from_envelope(self.spec)
        if self.variation is None:
            self.variation = ManufacturingVariation.sample(
                self.serial,
                rel_sigma=self.spec.power_rel_sigma,
                idle_sigma_w=self.spec.idle_sigma_w,
            )

    @property
    def envelope(self) -> GpuSpec:
        """The device spec (a :class:`GPUEnvelope` subtype); legacy name."""
        return self.spec

    # ------------------------------------------------------------------
    # DVFS power/performance model
    # ------------------------------------------------------------------
    @property
    def idle_power_w(self) -> float:
        """Idle power including this unit's manufacturing offset."""
        assert self.variation is not None
        return self.spec.idle_w + self.variation.idle_offset_w

    def clock_fraction(self, demand_w: float, cap_w: float | None = None) -> float:
        """Largest clock fraction whose sustained power fits under the cap.

        ``demand_w`` is the power the kernel mix would draw at full clocks.
        When the cap does not bind the answer is 1.  When it binds, invert
        ``P(f) = static + (demand - static) * f**3`` and clamp at the
        hardware's minimum clock (``spec.min_clock_fraction``).
        """
        cap = self.spec.tdp_w if cap_w is None else cap_w
        spec = self.spec
        static = spec.static_w
        # The controller clocks against an effective target: a margin
        # below the limit in its authority range, relaxed (slightly above
        # the limit) by the regulation error near the cap floor.
        target = cap * (1.0 - spec.control_margin + self.regulation_error(cap))
        if demand_w <= target:
            return 1.0
        if demand_w <= static:
            # Demand below static power cannot be reduced by clocking down.
            return 1.0
        headroom = target - static
        if headroom <= 0.0:
            return spec.min_clock_fraction
        frac = float((headroom / (demand_w - static)) ** (1.0 / 3.0))
        return max(spec.min_clock_fraction, min(1.0, frac))

    def regulation_error(self, cap_w: float | None = None) -> float:
        """Relative overshoot of the power controller at a given cap.

        The controller holds the cap tightly except near the floor of the
        cap range, where the paper observes sustained power slightly
        above the cap (Fig 10).  Steep ramp (``spec``'s exponent):
        negligible in the upper cap range, ``spec.regulation_error_max``
        at the floor.
        """
        cap = self.spec.tdp_w if cap_w is None else cap_w
        spec = self.spec
        span = spec.cap_max_w - spec.cap_min_w
        depth = float(np.clip((spec.cap_max_w - cap) / span, 0.0, 1.0))
        return spec.regulation_error_max * depth**spec.regulation_error_exponent

    def resolve_phase(
        self,
        demand_w: float,
        compute_fraction: float = 1.0,
        cap_w: float | None = None,
    ) -> GpuPowerSample:
        """Resolve sustained power and slowdown for one kernel phase.

        Parameters
        ----------
        demand_w:
            Board power the phase would draw at full clocks (nominal unit).
        compute_fraction:
            Fraction of the phase's time that scales with core clock
            (compute-bound part).  Memory-bound time is clock-insensitive.
        cap_w:
            The GPU power limit (None = the TDP).

        Returns
        -------
        GpuPowerSample
            Sustained power in watts (with manufacturing bias and
            regulation error applied) and the phase time multiplier.
        """
        if not 0.0 <= compute_fraction <= 1.0:
            raise ValueError(f"compute_fraction must be in [0, 1], got {compute_fraction}")
        cap = self.spec.tdp_w if cap_w is None else cap_w
        spec = self.spec
        static = spec.static_w
        frac = self.clock_fraction(demand_w, cap)
        if frac >= 1.0:
            # The controller enforces its effective target, not the raw
            # limit: near the cap floor the regulation error puts the
            # target *above* the cap, and demand inside that window runs
            # unthrottled (keeps sustained power monotone in the cap —
            # a binding lower cap already lands on its own target).
            target = cap * (1.0 - spec.control_margin + self.regulation_error(cap))
            power = min(demand_w, max(cap, target))
            slowdown = 1.0
        else:
            # Sustained power lands on the controller's effective target:
            # slightly under the cap in its authority range, slightly over
            # near the floor (the regulation error baked into frac).
            power = min(static + (demand_w - static) * frac**3, demand_w)
            slowdown = compute_fraction / frac + (1.0 - compute_fraction)
        assert self.variation is not None
        biased = self.variation.apply(max(power, spec.idle_w), spec.idle_w)
        return GpuPowerSample(power_w=biased, clock_fraction=frac, slowdown=slowdown)

    def idle_sample(self) -> GpuPowerSample:
        """Power sample for an idle GPU."""
        return GpuPowerSample(power_w=self.idle_power_w, clock_fraction=1.0, slowdown=1.0)

    def resolve_rows(
        self, table: "PhaseTable", cap_w: float | None = None
    ) -> list[RowResolve]:
        """Resolve each distinct row of a phase table once, at ``cap_w``.

        The scalar path (:meth:`resolve_phase`, Python floats), one call
        per GPU-active row; an idle row (duty cycle <= 0) draws idle power
        and is not stretched.  Per-phase quantities follow by indexing
        the result with ``table.row_of_phase``.  The cap is
        :func:`applied_cap_w`'s (None = the TDP).
        """
        cap = applied_cap_w(self.spec, cap_w)
        rows = []
        for duty, uc, um, cf in zip(
            table.column("duty_cycle").tolist(),
            table.column("compute_utilization").tolist(),
            table.column("memory_utilization").tolist(),
            table.column("compute_fraction").tolist(),
        ):
            if duty <= 0.0:
                rows.append(RowResolve(0.0, self.idle_power_w, 1.0))
                continue
            demand = demand_power_at(uc, um, self.spec)
            sample = self.resolve_phase(demand, cf, cap)
            rows.append(
                RowResolve(
                    demand, sample.power_w, duty * sample.slowdown + (1.0 - duty)
                )
            )
        return rows


# ----------------------------------------------------------------------
# Array-capable entry points (the engine's vectorized hot path)
# ----------------------------------------------------------------------
def regulation_error_batch(
    cap_w: np.ndarray,
    cap_min_w: float | np.ndarray,
    cap_max_w: float | np.ndarray,
    regulation_error_max: float | np.ndarray = _DEFAULT_REG_MAX,
    regulation_error_exponent: float | np.ndarray = _DEFAULT_REG_EXP,
) -> np.ndarray:
    """Array version of :meth:`GpuModel.regulation_error`."""
    cap = np.asarray(cap_w, dtype=float)
    span = np.asarray(cap_max_w, dtype=float) - np.asarray(cap_min_w, dtype=float)
    depth = np.clip((np.asarray(cap_max_w, dtype=float) - cap) / span, 0.0, 1.0)
    return np.asarray(regulation_error_max, dtype=float) * np.power(
        depth, np.asarray(regulation_error_exponent, dtype=float)
    )


def resolve_phase_batch(
    demand_w: np.ndarray,
    compute_fraction: np.ndarray,
    cap_w: np.ndarray,
    *,
    static_w: float | np.ndarray,
    idle_env_w: float | np.ndarray,
    cap_min_w: float | np.ndarray,
    cap_max_w: float | np.ndarray,
    power_factor: np.ndarray,
    idle_offset_w: np.ndarray,
    min_clock_fraction: float | np.ndarray = MIN_CLOCK_FRACTION,
    control_margin: float | np.ndarray = CONTROL_MARGIN,
    regulation_error_max: float | np.ndarray = _DEFAULT_REG_MAX,
    regulation_error_exponent: float | np.ndarray = _DEFAULT_REG_EXP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve many kernel phases on many GPUs in one shot.

    Broadcasts ``demand_w`` / ``compute_fraction`` (typically one entry per
    phase, shaped ``[P, 1, 1]``) against per-GPU cap, spec and variation
    arrays (shaped ``[nodes, gpus]``) and returns ``(power_w,
    clock_fraction, slowdown)`` arrays — the same quantities
    :meth:`GpuModel.resolve_phase` produces one scalar at a time, with the
    manufacturing bias already applied to the power.  The spec keywords
    default to the A100 values so scalar-spec callers stay unchanged;
    the engine passes per-GPU arrays, which is what lets one pool mix
    platforms (every GPU carries its own clock floor and controller).

    The branch structure mirrors the scalar path exactly: the controller's
    effective target, the full-clock short-circuits (demand under target or
    under static power), the minimum-clock clamp, and the cubic DVFS law.
    """
    demand = np.asarray(demand_w, dtype=float)
    cf = np.asarray(compute_fraction, dtype=float)
    cap = np.asarray(cap_w, dtype=float)
    static = np.asarray(static_w, dtype=float)
    idle_env = np.asarray(idle_env_w, dtype=float)
    min_clock = np.asarray(min_clock_fraction, dtype=float)
    margin = np.asarray(control_margin, dtype=float)

    err = regulation_error_batch(
        cap, cap_min_w, cap_max_w, regulation_error_max, regulation_error_exponent
    )
    target = cap * (1.0 - margin + err)

    headroom = target - static
    denom = demand - static
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.power(np.clip(headroom / denom, 0.0, 1.0), 1.0 / 3.0)
    frac = np.clip(frac, min_clock, 1.0)
    frac = np.where(headroom <= 0.0, min_clock, frac)
    frac = np.where(demand <= static, 1.0, frac)
    frac = np.where(demand <= target, 1.0, frac)

    at_full = frac >= 1.0
    throttled_power = np.minimum(static + (demand - static) * np.power(frac, 3), demand)
    # Mirror the scalar path: at full clocks the controller enforces its
    # effective target (above the cap near the floor), not the raw limit.
    full_power = np.minimum(demand, np.maximum(cap, target))
    power = np.where(at_full, full_power, throttled_power)
    with np.errstate(divide="ignore", invalid="ignore"):
        slowdown = np.where(at_full, 1.0, cf / frac + (1.0 - cf))

    # Manufacturing bias (ManufacturingVariation.apply, element-wise).
    floored = np.maximum(power, idle_env)
    dynamic = np.maximum(0.0, floored - idle_env)
    biased = idle_env + np.asarray(idle_offset_w, dtype=float) + dynamic * np.asarray(
        power_factor, dtype=float
    )
    return biased, frac, slowdown
