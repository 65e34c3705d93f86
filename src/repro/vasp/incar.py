"""INCAR parameters: the control tags of a VASP calculation.

Implements the tags the paper's benchmarks exercise (Table I).  The
:class:`Incar` dataclass is the validated, typed view used by the
workload model; workloads are built from its constructor
(:mod:`repro.vasp.benchmarks`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vasp.methods import Algorithm, Functional

@dataclass
class Incar:
    """Validated INCAR parameters.

    Only tags that influence the power/performance model are typed;
    other tags (e.g. ``GGA``) are kept as strings in :attr:`extra`.
    """

    system: str = "unknown system"
    algo: Algorithm = Algorithm.NORMAL
    encut_ev: float = 245.0
    nelm: int = 60
    nelmdl: int = 0
    nbands: int | None = None
    nelect: float | None = None
    kpar: int = 1
    nsim: int = 4
    lhfcalc: bool = False
    hfscreen: float | None = None
    ivdw: int = 0
    nbandsexact: int | None = None
    extra: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.encut_ev <= 0:
            raise ValueError(f"ENCUT must be positive, got {self.encut_ev}")
        if self.nelm <= 0:
            raise ValueError(f"NELM must be positive, got {self.nelm}")
        if self.nelmdl < 0:
            raise ValueError(f"NELMDL must be non-negative, got {self.nelmdl}")
        if self.kpar < 1:
            raise ValueError(f"KPAR must be >= 1, got {self.kpar}")
        if self.nsim < 1:
            raise ValueError(f"NSIM must be >= 1, got {self.nsim}")
        if self.nbands is not None and self.nbands < 1:
            raise ValueError(f"NBANDS must be >= 1, got {self.nbands}")
        if self.lhfcalc and self.algo in (Algorithm.VERYFAST, Algorithm.FAST):
            raise ValueError(
                "HSE (LHFCALC=.TRUE.) requires a CG-family ALGO (Normal/All/Damped), "
                f"got {self.algo.value}"
            )

    @property
    def functional(self) -> Functional:
        """Functional class implied by the tag combination."""
        if self.algo is Algorithm.ACFDTR:
            return Functional.ACFDT_RPA
        if self.lhfcalc:
            return Functional.HSE
        if self.ivdw != 0:
            return Functional.VDW
        gga = self.extra.get("GGA", "").strip().upper()
        if gga in ("CA", "LDA"):
            return Functional.LDA
        return Functional.GGA
