"""A behavioural model of VASP's computation, inputs and parallelism.

This package does **not** solve the Kohn-Sham equations — it models the
*execution structure* of VASP 6.4.1's OpenACC GPU port at the level that
determines power behaviour:

* inputs follow VASP's rules: typed INCAR tags, crystal structures,
  KPOINTS meshes, plane-wave counts and FFT grids derived from the cutoff
  and the cell, default NBANDS from electron and ion counts;
* each electronic-structure method (LDA/GGA DFT, van der Waals, HSE hybrid,
  ACFDT/RPA) and iteration algorithm (Blocked Davidson, RMM-DIIS, damped
  CG, exact diagonalization) maps to a per-SCF-iteration recipe of GPU/CPU
  macro-phases with flop/byte counts;
* parallelism follows VASP's decomposition: bands across MPI ranks (one
  rank per GPU), k-point groups via KPAR, plane waves within a GPU, with an
  NCCL-like communication model.

The seven paper benchmarks (Table I) and the silicon-supercell family used
in Section IV are provided in :mod:`repro.vasp.benchmarks`.
"""

from repro.vasp.methods import Algorithm, Functional, method_label
from repro.vasp.incar import Incar
from repro.vasp.kpoints import KpointMesh
from repro.vasp.poscar import Structure, silicon_supercell
from repro.vasp.planewaves import (
    default_nbands,
    fft_grid,
    gcut_inv_angstrom,
    next_fft_size,
    nplwv,
)
from repro.vasp.parallel import CommunicationModel, ParallelConfig
from repro.vasp.workload import MacroPhase, VaspWorkload
from repro.vasp.benchmarks import (
    BENCHMARKS,
    benchmark,
    benchmark_names,
    silicon_workload,
)

__all__ = [
    "Algorithm",
    "BENCHMARKS",
    "CommunicationModel",
    "Functional",
    "Incar",
    "KpointMesh",
    "MacroPhase",
    "ParallelConfig",
    "Structure",
    "VaspWorkload",
    "benchmark",
    "benchmark_names",
    "default_nbands",
    "fft_grid",
    "gcut_inv_angstrom",
    "method_label",
    "next_fft_size",
    "nplwv",
    "silicon_supercell",
    "silicon_workload",
]
