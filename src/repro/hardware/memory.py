"""Behavioural power model of the node's DDR4 memory.

DDR power on the GPU nodes is small and flat during VASP execution (the
working set lives in HBM); it rises with host-side traffic, which only
matters for the CPU-resident phases and the STREAM prologue segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units.constants import DDR4_256GB, MemoryEnvelope
from repro.hardware.variability import ManufacturingVariation


@dataclass
class DdrMemory:
    """Host DRAM with a bandwidth-utilization -> power mapping."""

    serial: str = "MEM-000000"
    envelope: MemoryEnvelope = field(default_factory=lambda: DDR4_256GB)
    variation: ManufacturingVariation | None = None

    def __post_init__(self) -> None:
        if self.variation is None:
            self.variation = ManufacturingVariation.sample(self.serial)

    @property
    def idle_power_w(self) -> float:
        """Idle (refresh-dominated) power with manufacturing offset."""
        assert self.variation is not None
        return self.envelope.idle_w + self.variation.idle_offset_w

    def power_at_bandwidth(self, bandwidth_utilization: float) -> float:
        """Sustained power at a fraction of peak DDR bandwidth."""
        if not 0.0 <= bandwidth_utilization <= 1.0:
            raise ValueError(
                f"bandwidth_utilization must be in [0, 1], got {bandwidth_utilization}"
            )
        env = self.envelope
        nominal = env.idle_w + (env.max_w - env.idle_w) * bandwidth_utilization
        assert self.variation is not None
        return self.variation.apply(nominal, env.idle_w)
