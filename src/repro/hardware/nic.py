"""Behavioural power model of a Slingshot NIC.

NIC power is part of the "peripherals" gap between the node total and the
sum of CPU/GPU/DDR sensors that the paper points out under Fig 3.  It is
nearly flat: a few watts of swing between idle and saturated links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units.constants import SLINGSHOT_NIC, NICEnvelope
from repro.hardware.variability import ManufacturingVariation


@dataclass
class SlingshotNic:
    """One Cassini NIC with a traffic-utilization -> power mapping."""

    serial: str = "NIC-000000"
    envelope: NICEnvelope = field(default_factory=lambda: SLINGSHOT_NIC)
    variation: ManufacturingVariation | None = None

    def __post_init__(self) -> None:
        if self.variation is None:
            self.variation = ManufacturingVariation.sample(self.serial)

    @property
    def idle_power_w(self) -> float:
        """Idle power with manufacturing offset."""
        assert self.variation is not None
        return self.envelope.idle_w + self.variation.idle_offset_w

    def power_at_traffic(self, link_utilization: float) -> float:
        """Sustained power at a fraction of peak link bandwidth."""
        if not 0.0 <= link_utilization <= 1.0:
            raise ValueError(f"link_utilization must be in [0, 1], got {link_utilization}")
        env = self.envelope
        nominal = env.idle_w + (env.max_w - env.idle_w) * link_utilization
        assert self.variation is not None
        return self.variation.apply(nominal, env.idle_w)
