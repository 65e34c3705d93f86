"""KPOINTS handling: Monkhorst-Pack meshes and k-point parallelism.

The benchmarks use regular meshes (Table I's ``KPOINTS`` row); the mesh
size interacts with KPAR (k-point parallel groups) to set how many k-points
each group processes sequentially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class KpointMesh:
    """A Gamma-centred Monkhorst-Pack mesh ``n1 x n2 x n3``."""

    n1: int = 1
    n2: int = 1
    n3: int = 1

    def __post_init__(self) -> None:
        for n in (self.n1, self.n2, self.n3):
            if n < 1:
                raise ValueError(f"mesh divisions must be >= 1, got {(self.n1, self.n2, self.n3)}")

    @property
    def total(self) -> int:
        """Total mesh points before symmetry reduction."""
        return self.n1 * self.n2 * self.n3

    @property
    def irreducible(self) -> int:
        """Estimated irreducible k-point count.

        A Gamma-centred mesh on a cell with inversion symmetry reduces by
        roughly a factor of two (time-reversal) with Gamma itself unpaired;
        we use ``ceil((total + 1) / 2)`` capped at ``total``.  Exact
        symmetry reduction depends on the space group, which the power
        model does not need.
        """
        return min(self.total, math.ceil((self.total + 1) / 2))

    def kpoints_per_group(self, kpar: int) -> int:
        """Sequential k-points each KPAR group processes.

        Raises
        ------
        ValueError
            If ``kpar`` exceeds the irreducible k-point count (VASP would
            leave groups idle).
        """
        if kpar < 1:
            raise ValueError(f"kpar must be >= 1, got {kpar}")
        if kpar > self.irreducible:
            raise ValueError(
                f"KPAR={kpar} exceeds the {self.irreducible} irreducible k-points"
            )
        return math.ceil(self.irreducible / kpar)
