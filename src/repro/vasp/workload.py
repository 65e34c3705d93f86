"""`VaspWorkload`: a complete, runnable VASP job description.

Ties together the input files (INCAR, POSCAR/Structure, KPOINTS) into the
computational :class:`~repro.vasp.scf.WorkloadSpec` and produces the
macro-phase sequence for any parallel layout.  This is the object the
execution engine, the benchmarks and the experiments all consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.vasp.incar import Incar
from repro.vasp.kpoints import KpointMesh
from repro.vasp.parallel import CommunicationModel, ParallelConfig
from repro.vasp.phases import MacroPhase, total_duration_s
from repro.vasp.planewaves import default_nbands, fft_grid
from repro.vasp.poscar import Structure
from repro.vasp.scf import CostModel, DEFAULT_COSTS, WorkloadSpec, build_phases

# Re-export for the package namespace.
__all__ = ["MacroPhase", "VaspWorkload"]


@dataclass(frozen=True)
class VaspWorkload:
    """One VASP calculation: inputs plus derived computational parameters.

    Parameters
    ----------
    name:
        Benchmark-style name (e.g. ``"Si256_hse"``).
    incar / structure / kpoints:
        The three input files.
    nplwv_override / nbands_override:
        Pin NPLWV / NBANDS to published values (Table I) instead of the
        estimator; sweeps leave these unset.
    costs:
        Execution-cost constants (ablation hooks).
    """

    name: str
    incar: Incar
    structure: Structure
    kpoints: KpointMesh = field(default_factory=KpointMesh)
    nplwv_override: int | None = None
    nbands_override: int | None = None
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)

    # ------------------------------------------------------------------
    # Derived computational parameters
    # ------------------------------------------------------------------
    @property
    def fft_grid(self) -> tuple[int, int, int]:
        """FFT grid from the cutoff and cell (estimator)."""
        return fft_grid(self.incar.encut_ev, self.structure.lattice_lengths)

    @property
    def nplwv(self) -> int:
        """NPLWV: pinned (Table I) or estimated from ENCUT and the cell."""
        if self.nplwv_override is not None:
            return self.nplwv_override
        n1, n2, n3 = self.fft_grid
        return n1 * n2 * n3

    @property
    def nelect(self) -> float:
        """Valence electrons: INCAR NELECT if set, else from the structure."""
        if self.incar.nelect is not None:
            return self.incar.nelect
        return float(self.structure.n_electrons())

    @property
    def nbands(self) -> int:
        """NBANDS: pinned, INCAR-set, or VASP's default formula."""
        if self.nbands_override is not None:
            return self.nbands_override
        if self.incar.nbands is not None:
            return self.incar.nbands
        return default_nbands(self.nelect, self.structure.n_atoms)

    @property
    def kpar(self) -> int:
        """K-point parallelism degree (the zoo-wide layout contract).

        :func:`repro.vasp.parallel.layout_for` reads this attribute on
        any workload; VASP forwards its INCAR tag.
        """
        return self.incar.kpar

    def spec(self) -> WorkloadSpec:
        """The computational spec consumed by the phase builder."""
        return WorkloadSpec(
            name=self.name,
            functional=self.incar.functional,
            algo=self.incar.algo,
            nplwv=self.nplwv,
            nbands=self.nbands,
            nelect=self.nelect,
            n_ions=self.structure.n_atoms,
            irreducible_kpoints=self.kpoints.irreducible,
            kpar=self.incar.kpar,
            nelm=self.incar.nelm,
            nelmdl=self.incar.nelmdl,
            nsim=self.incar.nsim,
            nbandsexact=self.incar.nbandsexact,
        )

    # ------------------------------------------------------------------
    # Execution structure
    # ------------------------------------------------------------------
    def phases(
        self,
        parallel: ParallelConfig | None = None,
        comm: CommunicationModel | None = None,
    ) -> list[MacroPhase]:
        """Macro-phase sequence for a parallel layout (default: 1 node)."""
        layout = parallel if parallel is not None else ParallelConfig()
        return build_phases(self.spec(), layout, comm, self.costs)

    def uncapped_runtime_s(
        self,
        parallel: ParallelConfig | None = None,
        comm: CommunicationModel | None = None,
    ) -> float:
        """Total runtime at default power limits (no cap slowdowns)."""
        return total_duration_s(self.phases(parallel, comm))

    # ------------------------------------------------------------------
    # Variants (parameter sweeps)
    # ------------------------------------------------------------------
    def with_nplwv(self, nplwv: int) -> "VaspWorkload":
        """Variant with a pinned plane-wave count (Fig 7 left panel)."""
        if nplwv < 1:
            raise ValueError(f"nplwv must be positive, got {nplwv}")
        return replace(self, nplwv_override=nplwv, name=f"{self.name}_nplwv{nplwv}")

    def with_nbands(self, nbands: int) -> "VaspWorkload":
        """Variant with a pinned band count (Fig 7 right panel)."""
        if nbands < 1:
            raise ValueError(f"nbands must be positive, got {nbands}")
        return replace(self, nbands_override=nbands, name=f"{self.name}_nbands{nbands}")
