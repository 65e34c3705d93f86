"""Fig 6: power vs system size for silicon supercells.

DFT with the default (Blocked Davidson) scheme on one node, sizes from 32
to 4,096 atoms.  Power rises with size and plateaus as the four GPUs
approach their combined TDP; the paper finds ~2,048 atoms are needed to
saturate the GPUs.  Error bars are the FWHM of the high power mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.modes import Density
from repro.experiments.common import run_workload
from repro.experiments.report import format_table
from repro.vasp.benchmarks import SILICON_SIZES, silicon_workload

#: Default sweep sizes (atoms), covering the paper's NPLWV/NBANDS ranges.
DEFAULT_SIZES: tuple[int, ...] = tuple(sorted(SILICON_SIZES))


@dataclass(frozen=True)
class SizePoint:
    """One supercell size: HPM per node and per four GPUs, with FWHM."""

    n_atoms: int
    nplwv: int
    nbands: int
    node_hpm_w: float
    node_fwhm_w: float
    gpu4_hpm_w: float
    gpu4_fwhm_w: float
    runtime_s: float


@dataclass
class Fig06Result:
    """The size sweep."""

    points: list[SizePoint]

    def plateau_ratio(self) -> float:
        """HPM(largest) / HPM(2048 atoms) — ~1 when saturated at 2048."""
        by_n = {p.n_atoms: p.gpu4_hpm_w for p in self.points}
        if 2048 not in by_n:
            raise KeyError("sweep must include the 2048-atom point")
        largest = max(by_n)
        return by_n[largest] / by_n[2048]


def run(
    sizes: tuple[int, ...] = DEFAULT_SIZES, nelm: int = 6, seed: int = 7
) -> Fig06Result:
    """Run the size sweep on a single node."""
    points = []
    for n_atoms in sizes:
        workload = silicon_workload(n_atoms, "dft_normal", nelm=nelm)
        measured = run_workload(workload, n_nodes=1, seed=seed)
        telem = measured.telemetry[0]
        node = Density.of(telem.node_power)
        gpu = Density.of(telem.gpu_total)
        node_mode = node.high_power_mode()
        gpu_mode = gpu.high_power_mode()
        points.append(
            SizePoint(
                n_atoms=n_atoms,
                nplwv=workload.nplwv,
                nbands=workload.nbands,
                node_hpm_w=node_mode.power_w,
                node_fwhm_w=node.fwhm(node_mode),
                gpu4_hpm_w=gpu_mode.power_w,
                gpu4_fwhm_w=gpu.fwhm(gpu_mode),
                runtime_s=measured.runtime_s,
            )
        )
    return Fig06Result(points=points)


def render(result: Fig06Result) -> str:
    """ASCII rendering of the size sweep."""
    return format_table(
        headers=[
            "Atoms",
            "NPLWV",
            "NBANDS",
            "Node HPM (W)",
            "Node FWHM (W)",
            "4-GPU HPM (W)",
            "4-GPU FWHM (W)",
        ],
        rows=[
            [
                p.n_atoms,
                p.nplwv,
                p.nbands,
                p.node_hpm_w,
                p.node_fwhm_w,
                p.gpu4_hpm_w,
                p.gpu4_fwhm_w,
            ]
            for p in result.points
        ],
        title="Fig 6: VASP power vs silicon supercell size (1 node, DFT/Davidson)",
    )
