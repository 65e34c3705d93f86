"""A MILC (lattice-QCD) workload model — NERSC's second application.

MILC evolves an SU(3) gauge field with hybrid Monte Carlo: each
trajectory alternates molecular-dynamics steps — a conjugate-gradient
(CG) solve of the staggered Dirac operator (the dominant cost, a
memory-bandwidth-bound 4-D stencil with halo exchanges) and gauge-force
updates (link-matrix algebra, moderately compute-bound) — with occasional
measurement phases.

Power-wise, MILC is the opposite pole from HSE-VASP: the CG solver
saturates HBM bandwidth, not the tensor cores, so GPUs draw a moderate,
very steady power and tolerate deep power caps — the behaviour the
companion study (Acun et al., "Analysis of Power Consumption and GPU
Power Capping for MILC", SC24 workshops) reports.  Here that falls out of
the same kernel-physics used for VASP: low compute-bound fraction means
SM-clock throttling barely slows the stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.perfmodel.dvfs import occupancy
from repro.perfmodel.kernels import GpuKernelProfile
from repro.perfmodel.roofline import RooflineModel
from repro.vasp.parallel import CommunicationModel, ParallelConfig
from repro.vasp.phases import MacroPhase

#: The CG stencil: streams the lattice, near-zero tensor-core use.
CG_SOLVER = GpuKernelProfile(
    name="milc_cg_solver",
    compute_utilization=0.22,
    memory_utilization=0.92,
    compute_fraction=0.10,
)

#: Gauge force: SU(3) link products, moderately compute-bound.
GAUGE_FORCE = GpuKernelProfile(
    name="milc_gauge_force",
    compute_utilization=0.55,
    memory_utilization=0.65,
    compute_fraction=0.40,
)

#: Measurement (plaquettes, correlators): light, host-assisted.
MEASUREMENT = GpuKernelProfile(
    name="milc_measurement",
    compute_utilization=0.15,
    memory_utilization=0.30,
    compute_fraction=0.15,
)


@dataclass(frozen=True)
class MilcParams:
    """Run parameters of a MILC HMC campaign.

    ``lattice`` is the global 4-D extent (x, y, z, t); ``trajectories``
    the number of HMC trajectories; ``md_steps`` molecular-dynamics steps
    per trajectory; ``cg_iterations`` average CG iterations per solve
    (set by the quark mass).
    """

    lattice: tuple[int, int, int, int] = (32, 32, 32, 64)
    trajectories: int = 10
    md_steps: int = 20
    cg_iterations: int = 500
    measure_every: int = 5

    def __post_init__(self) -> None:
        if any(dim < 4 for dim in self.lattice):
            raise ValueError(f"lattice extents must be >= 4, got {self.lattice}")
        if min(self.trajectories, self.md_steps, self.cg_iterations) < 1:
            raise ValueError("trajectories, md_steps and cg_iterations must be >= 1")
        if self.measure_every < 1:
            raise ValueError(f"measure_every must be >= 1, got {self.measure_every}")

    @property
    def sites(self) -> int:
        """Global lattice sites."""
        x, y, z, t = self.lattice
        return x * y * z * t


@dataclass(frozen=True)
class MilcWorkload:
    """A MILC campaign expressed as engine-consumable macro-phases."""

    name: str = "milc_medium"
    params: MilcParams = MilcParams()
    #: Bytes the CG stencil streams per site per iteration (gauge links +
    #: vectors, single precision with reliable updates).
    cg_bytes_per_site: float = 1.5e3
    #: Flops of SU(3) algebra per site per force evaluation.
    force_flops_per_site: float = 5.0e4
    #: Achieved fraction of ideal bandwidth / throughput.
    cg_efficiency: float = 0.55
    force_efficiency: float = 0.25

    # ------------------------------------------------------------------
    def _occupancy(self, local_sites: float) -> float:
        """Occupancy saturates with resident lattice volume per GPU."""
        return float(occupancy(local_sites, w_half=2.0e5, hill=1.2))

    def phases(
        self,
        parallel: ParallelConfig | None = None,
        comm: CommunicationModel | None = None,
    ) -> list[MacroPhase]:
        """The macro-phase sequence of the campaign."""
        layout = parallel if parallel is not None else ParallelConfig()
        network = comm if comm is not None else CommunicationModel()
        p = self.params
        roofline = RooflineModel()
        local_sites = p.sites / layout.total_ranks
        occ = self._occupancy(local_sites)

        # CG: bandwidth roofline + halo exchange per iteration.
        cg_profile = replace(CG_SOLVER.scaled(occ), duty_cycle=min(0.97, 0.5 + occ / 2))
        cg_bytes = p.cg_iterations * local_sites * self.cg_bytes_per_site
        surface = 6.0 * local_sites ** (3.0 / 4.0)  # 4-D halo area scale
        halo_s = p.cg_iterations * network.allreduce_time_s(
            surface * 24.0, layout.total_ranks, layout.n_nodes
        )
        cg_time = (
            cg_bytes
            / (roofline.peak_bandwidth * cg_profile.memory_utilization)
            / self.cg_efficiency
            + halo_s
        )

        # Force: compute roofline.
        force_profile = replace(GAUGE_FORCE.scaled(occ), duty_cycle=min(0.95, 0.5 + occ / 2))
        force_flops = local_sites * self.force_flops_per_site
        force_time = force_flops / (
            roofline.peak_flops * max(force_profile.compute_utilization, 1e-3)
        ) / self.force_efficiency

        measurement_profile = replace(MEASUREMENT.scaled(occ), duty_cycle=0.6)
        measurement_time = 0.2 * cg_time + 2.0

        phases: list[MacroPhase] = [
            MacroPhase(
                name="startup",
                duration_s=15.0,
                gpu_profile=replace(MEASUREMENT.scaled(0.1), duty_cycle=0.0),
                cpu_utilization=0.30,
                mem_bw_utilization=0.20,
            )
        ]
        for trajectory in range(p.trajectories):
            for _ in range(p.md_steps):
                phases.append(
                    MacroPhase(
                        name="cg_solve",
                        duration_s=cg_time,
                        gpu_profile=cg_profile,
                        cpu_utilization=0.06,
                        mem_bw_utilization=0.08,
                        nic_utilization=0.5 if layout.n_nodes > 1 else 0.05,
                    )
                )
                phases.append(
                    MacroPhase(
                        name="gauge_force",
                        duration_s=force_time,
                        gpu_profile=force_profile,
                        cpu_utilization=0.06,
                        mem_bw_utilization=0.06,
                    )
                )
            if (trajectory + 1) % p.measure_every == 0:
                phases.append(
                    MacroPhase(
                        name="measurement",
                        duration_s=measurement_time,
                        gpu_profile=measurement_profile,
                        cpu_utilization=0.25,
                        mem_bw_utilization=0.15,
                    )
                )
        phases.append(
            MacroPhase(
                name="finalize",
                duration_s=8.0,
                gpu_profile=replace(MEASUREMENT.scaled(0.1), duty_cycle=0.0),
                cpu_utilization=0.25,
                mem_bw_utilization=0.25,
            )
        )
        return phases

    def uncapped_runtime_s(self, parallel: ParallelConfig | None = None) -> float:
        """Total runtime at default power limits."""
        return sum(p.duration_s for p in self.phases(parallel))


def milc_benchmark(size: str = "medium") -> MilcWorkload:
    """Preset MILC campaigns: 'small', 'medium', 'large'."""
    presets = {
        "small": MilcParams(lattice=(16, 16, 16, 32), trajectories=10, md_steps=15),
        "medium": MilcParams(lattice=(32, 32, 32, 64), trajectories=10, md_steps=20),
        "large": MilcParams(
            lattice=(48, 48, 48, 96), trajectories=8, md_steps=20, cg_iterations=800
        ),
    }
    try:
        params = presets[size]
    except KeyError:
        raise ValueError(
            f"unknown MILC size {size!r}; known: {', '.join(presets)}"
        ) from None
    return MilcWorkload(name=f"milc_{size}", params=params)


def expected_class() -> str:
    """MILC's power class under the paper's taxonomy.

    Bandwidth-bound: behaves like the basic-DFT class (cap-insensitive),
    per the companion MILC study.
    """
    return "basic_dft_like"


def milc_cap_slowdown(
    workload: MilcWorkload, cap_w: float, n_nodes: int = 1
) -> float:
    """Runtime multiplier under a GPU power cap (analytic, no traces)."""
    from repro.hardware.gpu import GpuModel
    from repro.hardware.variability import ManufacturingVariation
    from repro.perfmodel.power import demand_power_w
    from repro.runner.cache import cached_phases

    gpu = GpuModel(serial="MILC", variation=ManufacturingVariation.nominal())
    gpu.set_power_limit(cap_w)
    base = 0.0
    capped = 0.0
    for phase in cached_phases(workload, n_nodes):
        profile = phase.gpu_profile
        base += phase.duration_s
        if profile.duty_cycle <= 0:
            capped += phase.duration_s
            continue
        demand = demand_power_w(profile, gpu.envelope)
        sample = gpu.resolve_phase(demand, profile.compute_fraction)
        capped += phase.duration_s * (
            profile.duty_cycle * sample.slowdown + (1.0 - profile.duty_cycle)
        )
    return capped / base if base > 0 else math.nan
