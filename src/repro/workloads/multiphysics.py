"""An LLNL-style multi-physics package alternating compute/memory phases.

Production multi-physics codes (the LLNL study in PAPERS.md profiles one
on Sierra-class GPU nodes) advance a coupled simulation by cycling
through physics *packages* each timestep: a compute-bound hydrodynamics
or transport solve, then a memory-bound diffusion/EOS update, with
periodic host-side checkpoints in between.  The node power profile is a
square wave — near-TDP during the hydro package, a deep trough during
diffusion, idle spikes at checkpoints — exactly the phase-alternating
structure a single-regime workload model cannot express.

Under a power cap the two packages respond oppositely (hydro slows with
the SM clock, diffusion barely notices), so the workload's aggregate cap
sensitivity is set by the package duration ratio — which is why
:func:`classify` below weighs compute-bound *time*, not a static tag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.perfmodel.dvfs import occupancy
from repro.perfmodel.kernels import GpuKernelProfile
from repro.perfmodel.roofline import RooflineModel
from repro.vasp.parallel import CommunicationModel, ParallelConfig
from repro.vasp.phases import MacroPhase

#: Hydrodynamics / transport package: dense small-matrix algebra per
#: zone, compute-bound and power-hungry.
HYDRO_PACKAGE = GpuKernelProfile(
    name="mp_hydro",
    compute_utilization=0.82,
    memory_utilization=0.50,
    compute_fraction=0.70,
)

#: Diffusion / EOS package: sparse stencil sweeps, bandwidth-bound.
DIFFUSION_PACKAGE = GpuKernelProfile(
    name="mp_diffusion",
    compute_utilization=0.25,
    memory_utilization=0.85,
    compute_fraction=0.15,
)


@dataclass(frozen=True)
class MultiPhysicsParams:
    """Cycle structure of a multi-physics campaign.

    ``zones`` is the global mesh size; per cycle the code runs
    ``hydro_subcycles`` hydro sweeps and ``diffusion_subcycles``
    diffusion solves, checkpointing every ``checkpoint_every`` cycles.
    """

    zones: int = 4_000_000
    cycles: int = 40
    hydro_subcycles: int = 3
    diffusion_subcycles: int = 2
    checkpoint_every: int = 10

    def __post_init__(self) -> None:
        if min(self.zones, self.cycles) < 1:
            raise ValueError("zones and cycles must be >= 1")
        if min(self.hydro_subcycles, self.diffusion_subcycles) < 1:
            raise ValueError("hydro and diffusion subcycles must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )


@dataclass(frozen=True)
class MultiPhysicsWorkload:
    """A multi-physics campaign expressed as engine-consumable phases."""

    name: str = "multiphysics_medium"
    params: MultiPhysicsParams = MultiPhysicsParams()
    #: Flops of zonal algebra per zone per hydro subcycle.
    hydro_flops_per_zone: float = 3.0e4
    #: Bytes streamed per zone per diffusion subcycle.
    diffusion_bytes_per_zone: float = 9.0e2
    hydro_efficiency: float = 0.35
    diffusion_efficiency: float = 0.55
    #: Host-side checkpoint duration (GPU idle).
    checkpoint_s: float = 20.0

    def _occupancy(self, local_zones: float) -> float:
        """Occupancy saturates with resident zones per GPU."""
        return float(occupancy(local_zones, w_half=2.5e5, hill=1.2))

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
        local_zones = p.zones / layout.total_ranks
        occ = self._occupancy(local_zones)

        hydro_profile = replace(
            HYDRO_PACKAGE.scaled(occ), duty_cycle=min(0.95, 0.5 + occ / 2)
        )
        hydro_flops = local_zones * self.hydro_flops_per_zone
        hydro_time = hydro_flops / (
            roofline.peak_flops * max(hydro_profile.compute_utilization, 1e-3)
        ) / self.hydro_efficiency

        diffusion_profile = replace(
            DIFFUSION_PACKAGE.scaled(occ), duty_cycle=min(0.93, 0.5 + occ / 2)
        )
        diffusion_bytes = local_zones * self.diffusion_bytes_per_zone
        # Each diffusion solve ends in a convergence all-reduce.
        surface = 6.0 * local_zones ** (2.0 / 3.0)
        halo_s = network.allreduce_time_s(
            surface * 8.0, layout.total_ranks, layout.n_nodes
        )
        diffusion_time = diffusion_bytes / (
            roofline.peak_bandwidth * max(diffusion_profile.memory_utilization, 1e-3)
        ) / self.diffusion_efficiency + halo_s

        phases: list[MacroPhase] = [
            MacroPhase(
                name="setup",
                duration_s=18.0,
                gpu_profile=replace(DIFFUSION_PACKAGE.scaled(0.1), duty_cycle=0.0),
                cpu_utilization=0.40,
                mem_bw_utilization=0.30,
            )
        ]
        for cycle in range(p.cycles):
            for _ in range(p.hydro_subcycles):
                phases.append(
                    MacroPhase(
                        name="hydro_package",
                        duration_s=hydro_time,
                        gpu_profile=hydro_profile,
                        cpu_utilization=0.08,
                        mem_bw_utilization=0.08,
                        nic_utilization=0.2 if layout.n_nodes > 1 else 0.03,
                    )
                )
            for _ in range(p.diffusion_subcycles):
                phases.append(
                    MacroPhase(
                        name="diffusion_package",
                        duration_s=diffusion_time,
                        gpu_profile=diffusion_profile,
                        cpu_utilization=0.06,
                        mem_bw_utilization=0.10,
                        nic_utilization=0.3 if layout.n_nodes > 1 else 0.03,
                    )
                )
            if (cycle + 1) % p.checkpoint_every == 0:
                phases.append(
                    MacroPhase(
                        name="checkpoint",
                        duration_s=self.checkpoint_s,
                        gpu_profile=replace(
                            DIFFUSION_PACKAGE.scaled(0.05), duty_cycle=0.0
                        ),
                        cpu_utilization=0.50,
                        mem_bw_utilization=0.60,
                    )
                )
        return phases

    def uncapped_runtime_s(self, parallel: ParallelConfig | None = None) -> float:
        """Total runtime at default power limits."""
        return sum(p.duration_s for p in self.phases(parallel))

    def compute_bound_fraction(
        self, parallel: ParallelConfig | None = None
    ) -> float:
        """Duration-weighted share of kernel time in compute-bound phases.

        The cheap classification signal: the hydro/diffusion duration
        ratio decides whether the campaign responds to caps like the
        higher-order (compute-bound) or basic-DFT (bandwidth-bound)
        class.  Uses only the phase schedule — no engine run.
        """
        compute = 0.0
        busy = 0.0
        for phase in self.phases(parallel):
            weight = phase.duration_s * phase.gpu_profile.duty_cycle
            busy += weight
            compute += weight * phase.gpu_profile.compute_fraction
        return compute / busy if busy > 0 else 0.0


def classify(workload: MultiPhysicsWorkload) -> str:
    """Class hint from the package duration ratio (scheduler-visible)."""
    if workload.compute_bound_fraction() >= 0.5:
        return "higher_order"
    return "basic_dft"


def multiphysics_benchmark(size: str = "medium") -> MultiPhysicsWorkload:
    """Preset multi-physics campaigns: 'small', 'medium', 'large'."""
    presets = {
        "small": MultiPhysicsParams(zones=1_000_000, cycles=20),
        "medium": MultiPhysicsParams(zones=4_000_000, cycles=40),
        "large": MultiPhysicsParams(
            zones=16_000_000, cycles=60, checkpoint_every=15
        ),
    }
    try:
        params = presets[size]
    except KeyError:
        raise ValueError(
            f"unknown multi-physics size {size!r}; known: {', '.join(presets)}"
        ) from None
    return MultiPhysicsWorkload(name=f"multiphysics_{size}", params=params)
