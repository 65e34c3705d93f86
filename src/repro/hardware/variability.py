"""Manufacturing variability of nominally identical hardware units.

Section III-B of the paper observes that individual nodes in a multi-node
VASP job draw slightly different power, that identical DGEMM/STREAM runs
show the same per-node offsets, and that idle node power varies by up to
100 W (410-510 W) across 16 randomly checked nodes.

We model this with a per-unit multiplicative power factor and an additive
idle offset, both drawn deterministically from the unit's serial number so
that the same node always exhibits the same bias — which is exactly what
makes the Fig 1 per-node offsets reproducible across job segments.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


def unit_rng(serial: str, salt: str = "") -> np.random.Generator:
    """Return a deterministic RNG keyed by a hardware serial number.

    The same ``(serial, salt)`` pair always yields the same stream, so a
    simulated node's manufacturing bias is a stable property of the node,
    not of the run.
    """
    seed = zlib.crc32(f"{serial}:{salt}".encode("utf-8"))
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class ManufacturingVariation:
    """Per-unit deviation from the nominal power model.

    Attributes
    ----------
    power_factor:
        Multiplier on dynamic (activity-dependent) power.  Drawn from a
        normal distribution with ~2 % relative spread, truncated to
        +/- 3 sigma.
    idle_offset_w:
        Additive offset on idle power, in watts.  Spread chosen so node
        idle totals span the observed 410-510 W window.
    """

    power_factor: float
    idle_offset_w: float

    @classmethod
    def nominal(cls) -> "ManufacturingVariation":
        """A unit with exactly nominal behaviour (no spread)."""
        return cls(power_factor=1.0, idle_offset_w=0.0)

    @classmethod
    def sample(
        cls,
        serial: str,
        *,
        rel_sigma: float = 0.02,
        idle_sigma_w: float = 6.0,
    ) -> "ManufacturingVariation":
        """Draw the variation for a given serial number.

        Parameters
        ----------
        serial:
            Unit serial number; determines the draw.
        rel_sigma:
            Relative standard deviation of the dynamic-power factor.
        idle_sigma_w:
            Standard deviation of the additive idle offset in watts.
        """
        rng = unit_rng(serial, "manufacturing")
        factor = float(np.clip(rng.normal(1.0, rel_sigma), 1 - 3 * rel_sigma, 1 + 3 * rel_sigma))
        idle = float(np.clip(rng.normal(0.0, idle_sigma_w), -3 * idle_sigma_w, 3 * idle_sigma_w))
        return cls(power_factor=factor, idle_offset_w=idle)

    def apply(self, nominal_power_w: float, idle_w: float) -> float:
        """Apply this unit's bias to a nominal power reading.

        The idle portion receives the additive offset; the dynamic portion
        (above idle) is scaled by :attr:`power_factor`.
        """
        dynamic = max(0.0, nominal_power_w - idle_w)
        return idle_w + self.idle_offset_w + dynamic * self.power_factor
