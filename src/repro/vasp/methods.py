"""Electronic-structure methods and SCF algorithms modelled by the library.

The paper's Section IV-D compares seven "methods" — combinations of an
exchange-correlation treatment and an SCF iteration algorithm — applied to
silicon supercells.  We model the same axes:

* :class:`Functional` — the exchange-correlation treatment, which decides
  the dominant kernel mix (basic DFT vs hybrid exact exchange vs RPA);
* :class:`Algorithm` — the eigensolver / charge-density iteration scheme
  (the INCAR ``ALGO`` tag), which decides the per-iteration phase recipe.
"""

from __future__ import annotations

import enum


class Functional(enum.Enum):
    """Exchange-correlation treatment (cost class)."""

    LDA = "LDA"
    GGA = "GGA"
    VDW = "VDW"
    HSE = "HSE"
    ACFDT_RPA = "ACFDT/RPA"

    @property
    def is_higher_order(self) -> bool:
        """True for the computationally demanding methods (HSE, RPA)."""
        return self in (Functional.HSE, Functional.ACFDT_RPA)


class Algorithm(enum.Enum):
    """SCF iteration scheme — the INCAR ``ALGO`` tag values used in Table I."""

    NORMAL = "Normal"  # Blocked Davidson
    VERYFAST = "VeryFast"  # RMM-DIIS
    FAST = "Fast"  # Blocked Davidson + RMM-DIIS
    DAMPED = "Damped"  # Damped velocity friction (CG family, used for HSE)
    ALL = "All"  # Conjugate gradient over all bands
    EXACT = "Exact"  # Exact (full) diagonalization
    ACFDTR = "ACFDTR"  # RPA natural-orbital path


#: Combinations exercised in Fig 9, keyed by the paper's labels.
FIG9_METHODS: dict[str, tuple[Functional, Algorithm]] = {
    "dft_normal": (Functional.GGA, Algorithm.NORMAL),
    "dft_veryfast": (Functional.GGA, Algorithm.VERYFAST),
    "dft_fast": (Functional.GGA, Algorithm.FAST),
    "dft_all": (Functional.GGA, Algorithm.ALL),
    "vdw": (Functional.VDW, Algorithm.VERYFAST),
    "hse": (Functional.HSE, Algorithm.DAMPED),
    "acfdtr": (Functional.ACFDT_RPA, Algorithm.ACFDTR),
}


def method_label(functional: Functional, algorithm: Algorithm) -> str:
    """Short label for a (functional, algorithm) pair, Fig 9 style."""
    for label, pair in FIG9_METHODS.items():
        if pair == (functional, algorithm):
            return label
    if functional.is_higher_order:
        return functional.value.lower().replace("/", "_")
    return f"dft_{algorithm.value.lower()}"
