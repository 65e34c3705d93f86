"""POSCAR structures: crystal cells and the silicon-supercell family.

:class:`Structure` stores the lattice, species and fractional positions,
and computes cell volume and valence-electron counts (what sets VASP's
default NBANDS).  Section IV's experiments are driven by
:func:`silicon_supercell`, which builds diamond-cubic silicon supercells
of arbitrary ``(n1, n2, n3)`` multiplicity with an optional vacancy
(Si256_hse is a 256-site supercell minus one atom).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Valence electrons per element for the standard VASP PAW potentials used
#: by the paper's benchmarks.
VALENCE_ELECTRONS: dict[str, int] = {
    "Si": 4,
    "B": 3,
    "Pd": 10,
    "O": 6,
    "Ga": 3,
    "As": 5,
    "Bi": 5,
    "Cu": 11,
    "C": 4,
    "H": 1,
    "N": 5,
    "Al": 3,
    "Ge": 4,
}

#: Conventional diamond-cubic silicon lattice constant, in Angstrom.
SILICON_A0: float = 5.43

#: Fractional coordinates of the 8-atom diamond-cubic conventional cell.
_DIAMOND_BASIS = np.array(
    [
        [0.00, 0.00, 0.00],
        [0.50, 0.50, 0.00],
        [0.50, 0.00, 0.50],
        [0.00, 0.50, 0.50],
        [0.25, 0.25, 0.25],
        [0.75, 0.75, 0.25],
        [0.75, 0.25, 0.75],
        [0.25, 0.75, 0.75],
    ]
)


@dataclass
class Structure:
    """A periodic crystal structure.

    Attributes
    ----------
    lattice:
        3x3 matrix of lattice vectors in Angstrom (rows are vectors).
    species:
        Element symbol per atom, grouped by element as in POSCAR.
    frac_positions:
        Fractional coordinates, shape ``(n_atoms, 3)``.
    comment:
        Free-text label (the POSCAR comment line).
    """

    lattice: np.ndarray
    species: list[str]
    frac_positions: np.ndarray
    comment: str = "structure"

    def __post_init__(self) -> None:
        self.lattice = np.asarray(self.lattice, dtype=float)
        self.frac_positions = np.asarray(self.frac_positions, dtype=float)
        if self.lattice.shape != (3, 3):
            raise ValueError(f"lattice must be 3x3, got {self.lattice.shape}")
        if self.frac_positions.shape != (len(self.species), 3):
            raise ValueError(
                f"positions shape {self.frac_positions.shape} does not match "
                f"{len(self.species)} species"
            )
        if abs(self.volume) < 1e-9:
            raise ValueError("lattice is singular (zero volume)")

    @property
    def n_atoms(self) -> int:
        """Number of atoms (the paper's 'ions')."""
        return len(self.species)

    @property
    def volume(self) -> float:
        """Cell volume in cubic Angstrom."""
        return float(abs(np.linalg.det(self.lattice)))

    @property
    def lattice_lengths(self) -> np.ndarray:
        """Lengths of the three lattice vectors, in Angstrom."""
        return np.linalg.norm(self.lattice, axis=1)

    def n_electrons(self) -> int:
        """Total valence electrons with the standard PAW potentials.

        Raises
        ------
        KeyError
            If an element has no entry in :data:`VALENCE_ELECTRONS`.
        """
        total = 0
        for symbol in self.species:
            try:
                total += VALENCE_ELECTRONS[symbol]
            except KeyError:
                raise KeyError(
                    f"no valence-electron count for element {symbol!r}; "
                    "extend repro.vasp.poscar.VALENCE_ELECTRONS"
                ) from None
        return total


def silicon_supercell(
    n1: int,
    n2: int | None = None,
    n3: int | None = None,
    vacancies: int = 0,
) -> Structure:
    """Diamond-cubic silicon supercell ``n1 x n2 x n3`` (8 atoms per cell).

    ``n2``/``n3`` default to ``n1`` (cubic supercell).  ``vacancies``
    removes that many atoms from the end of the list — Si256_hse in the
    paper is a 256-site supercell with one vacancy, i.e. 255 ions.
    """
    n2 = n1 if n2 is None else n2
    n3 = n1 if n3 is None else n3
    for n in (n1, n2, n3):
        if n < 1:
            raise ValueError(f"supercell multipliers must be >= 1, got {(n1, n2, n3)}")
    lattice = np.diag([n1 * SILICON_A0, n2 * SILICON_A0, n3 * SILICON_A0])
    cells = np.array(
        [[i, j, k] for i in range(n1) for j in range(n2) for k in range(n3)], dtype=float
    )
    divisor = np.array([n1, n2, n3], dtype=float)
    positions = ((cells[:, None, :] + _DIAMOND_BASIS[None, :, :]) / divisor).reshape(-1, 3)
    n_sites = positions.shape[0]
    if not 0 <= vacancies < n_sites:
        raise ValueError(f"vacancies must be in [0, {n_sites}), got {vacancies}")
    n_atoms = n_sites - vacancies
    positions = positions[:n_atoms]
    return Structure(
        lattice=lattice,
        species=["Si"] * n_atoms,
        frac_positions=positions,
        comment=f"Si{n_atoms} ({n1}x{n2}x{n3} diamond supercell"
        + (f", {vacancies} vacancies)" if vacancies else ")"),
    )
