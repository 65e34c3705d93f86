"""Behavioural power model of the AMD EPYC 7763 host CPU.

On the GPU nodes the CPU mostly shepherds the four device-bound MPI ranks,
so its power stays in a narrow band well below its 280 W TDP — the paper
notes CPU plus memory account for less than 10 % of node power for the
GPU-heavy workloads.  The exception is Si128_acfdtr, whose exact
diagonalization step had not been ported to the GPU in VASP 6.4.1 and runs
on the host, which we model as a high-utilization CPU phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units.constants import CPU_MILAN, CPUEnvelope
from repro.hardware.variability import ManufacturingVariation


@dataclass
class MilanCpu:
    """One Milan socket with a utilization -> power mapping."""

    serial: str = "CPU-000000"
    envelope: CPUEnvelope = field(default_factory=lambda: CPU_MILAN)
    variation: ManufacturingVariation | None = None

    def __post_init__(self) -> None:
        if self.variation is None:
            self.variation = ManufacturingVariation.sample(self.serial)

    @property
    def idle_power_w(self) -> float:
        """Idle power including the unit's manufacturing offset."""
        assert self.variation is not None
        return self.envelope.idle_w + self.variation.idle_offset_w

    def power_at_utilization(self, utilization: float) -> float:
        """Sustained power at a given core-utilization level.

        A mildly concave map (exponent 0.9): package power rises slightly
        slower than linearly with active cores because shared uncore power
        is already paid at low utilization.
        """
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        env = self.envelope
        nominal = env.idle_w + (env.tdp_w - env.idle_w) * utilization**0.9
        assert self.variation is not None
        return self.variation.apply(nominal, env.idle_w)
