"""A CLOUDSC-style memory-bound vertical-loop stencil workload.

CLOUDSC is ECMWF's cloud-microphysics dwarf: for every atmospheric
column it sweeps a vertical loop over model levels updating a handful of
prognostic fields (cloud liquid/ice, rain, snow, vapour).  Columns are
independent, so the GPU port maps columns to threads and streams the
field arrays level by level — arithmetic intensity stays low (a few
flops per loaded byte) and the kernel pins HBM bandwidth, not the SMs.

Power-wise that makes CLOUDSC a STREAM-like pole of the zoo: moderate,
very flat draw, near-immune to SM-clock throttling under power caps —
the opposite of the tensor-core-bound HSE/RPA VASP methods.  The model
below reuses the library's roofline/occupancy machinery the same way the
MILC model does: per-timestep duration from streamed bytes over achieved
bandwidth, plus a host-side input/output phase per dump interval.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.perfmodel.dvfs import occupancy
from repro.perfmodel.kernels import GpuKernelProfile
from repro.perfmodel.roofline import RooflineModel
from repro.vasp.parallel import CommunicationModel, ParallelConfig
from repro.vasp.phases import MacroPhase

#: The vertical-loop microphysics sweep: streams every field over every
#: level; near-zero tensor-core use, saturated HBM.
MICROPHYSICS_SWEEP = GpuKernelProfile(
    name="cloudsc_sweep",
    compute_utilization=0.18,
    memory_utilization=0.88,
    compute_fraction=0.12,
)

#: Inter-timestep bookkeeping (halo-free: columns are independent, only
#: reductions for diagnostics cross ranks).
DIAGNOSTICS = GpuKernelProfile(
    name="cloudsc_diagnostics",
    compute_utilization=0.20,
    memory_utilization=0.35,
    compute_fraction=0.20,
)


@dataclass(frozen=True)
class CloudscParams:
    """Grid and stepping parameters of a CLOUDSC campaign.

    ``columns`` is the global horizontal point count (NGPTOT);
    ``levels`` the vertical extent (137 in the operational IFS grid);
    ``fields`` the prognostic/tendency arrays streamed per sweep.
    """

    columns: int = 262_144
    levels: int = 137
    timesteps: int = 240
    fields: int = 12
    dump_every: int = 60

    def __post_init__(self) -> None:
        if min(self.columns, self.levels, self.timesteps, self.fields) < 1:
            raise ValueError("columns, levels, timesteps and fields must be >= 1")
        if self.dump_every < 1:
            raise ValueError(f"dump_every must be >= 1, got {self.dump_every}")

    @property
    def points(self) -> int:
        """Global grid points (columns x levels)."""
        return self.columns * self.levels


@dataclass(frozen=True)
class CloudscWorkload:
    """A CLOUDSC campaign expressed as engine-consumable macro-phases."""

    name: str = "cloudsc_medium"
    params: CloudscParams = CloudscParams()
    #: Bytes streamed per grid point per sweep (read + write over the
    #: prognostic fields, double precision).
    bytes_per_point: float = 2.0 * 8.0
    #: Achieved fraction of roofline bandwidth (strided level access).
    sweep_efficiency: float = 0.60

    def _occupancy(self, local_columns: float) -> float:
        """Occupancy saturates with resident columns per GPU."""
        return float(occupancy(local_columns, w_half=3.0e4, hill=1.2))

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
        local_columns = p.columns / layout.total_ranks
        occ = self._occupancy(local_columns)

        sweep_profile = replace(
            MICROPHYSICS_SWEEP.scaled(occ), duty_cycle=min(0.96, 0.55 + occ / 2.5)
        )
        sweep_bytes = local_columns * p.levels * p.fields * self.bytes_per_point
        sweep_time = sweep_bytes / (
            roofline.peak_bandwidth * max(sweep_profile.memory_utilization, 1e-3)
        ) / self.sweep_efficiency

        diag_profile = replace(DIAGNOSTICS.scaled(occ), duty_cycle=0.5)
        # Diagnostics reduce a few scalars per field across all ranks.
        diag_time = 0.5 + p.fields * network.allreduce_time_s(
            8.0 * p.fields, layout.total_ranks, layout.n_nodes
        )

        phases: list[MacroPhase] = [
            MacroPhase(
                name="startup",
                duration_s=12.0,
                gpu_profile=replace(DIAGNOSTICS.scaled(0.1), duty_cycle=0.0),
                cpu_utilization=0.35,
                mem_bw_utilization=0.30,
            )
        ]
        for step in range(p.timesteps):
            phases.append(
                MacroPhase(
                    name="microphysics_sweep",
                    duration_s=sweep_time,
                    gpu_profile=sweep_profile,
                    cpu_utilization=0.05,
                    mem_bw_utilization=0.08,
                    nic_utilization=0.1 if layout.n_nodes > 1 else 0.02,
                )
            )
            phases.append(
                MacroPhase(
                    name="diagnostics",
                    duration_s=diag_time,
                    gpu_profile=diag_profile,
                    cpu_utilization=0.15,
                    mem_bw_utilization=0.10,
                )
            )
            if (step + 1) % p.dump_every == 0:
                # Field dump: host-side pack + write, GPU idle.
                phases.append(
                    MacroPhase(
                        name="field_dump",
                        duration_s=6.0,
                        gpu_profile=replace(DIAGNOSTICS.scaled(0.05), duty_cycle=0.0),
                        cpu_utilization=0.45,
                        mem_bw_utilization=0.50,
                    )
                )
        phases.append(
            MacroPhase(
                name="finalize",
                duration_s=5.0,
                gpu_profile=replace(DIAGNOSTICS.scaled(0.1), duty_cycle=0.0),
                cpu_utilization=0.25,
                mem_bw_utilization=0.25,
            )
        )
        return phases

    def uncapped_runtime_s(self, parallel: ParallelConfig | None = None) -> float:
        """Total runtime at default power limits."""
        return sum(p.duration_s for p in self.phases(parallel))


def cloudsc_benchmark(size: str = "medium") -> CloudscWorkload:
    """Preset CLOUDSC campaigns: 'small', 'medium', 'large'."""
    presets = {
        "small": CloudscParams(columns=65_536, timesteps=120),
        "medium": CloudscParams(columns=262_144, timesteps=240),
        "large": CloudscParams(columns=1_048_576, timesteps=240, dump_every=40),
    }
    try:
        params = presets[size]
    except KeyError:
        raise ValueError(
            f"unknown CLOUDSC size {size!r}; known: {', '.join(presets)}"
        ) from None
    return CloudscWorkload(name=f"cloudsc_{size}", params=params)
