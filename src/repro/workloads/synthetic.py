"""Synthetic workloads: the DGEMM/STREAM acceptance pair and a drain stub.

The paper's job scripts bracket every VASP run with STREAM and DGEMM
acceptance segments (Section III-B); :class:`GemmStreamWorkload` lifts
that pair into a standalone registrable workload — alternating
compute-saturating and bandwidth-saturating segments, useful as the
power-extremes probe of the zoo.

:class:`OutageWorkload` is the scenario layer's node-failure stub: a
near-idle "job" that occupies drained nodes for the outage duration so
the scheduler sees the capacity loss without a special code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perfmodel.kernels import GpuKernelProfile
from repro.runner.dgemm import dgemm_phase
from repro.runner.stream import stream_phase
from repro.vasp.parallel import CommunicationModel, ParallelConfig
from repro.vasp.phases import MacroPhase


@dataclass(frozen=True)
class GemmStreamWorkload:
    """Alternating DGEMM/STREAM acceptance segments as one workload."""

    name: str = "gemm_stream"
    repeats: int = 5
    dgemm_s: float = 60.0
    stream_s: float = 60.0

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    def phases(
        self,
        parallel: ParallelConfig | None = None,
        comm: CommunicationModel | None = None,
    ) -> list[MacroPhase]:
        """repeats x (STREAM then DGEMM), the acceptance-script order."""
        del parallel, comm  # single-GPU-shaped segments, no layout term
        phases: list[MacroPhase] = []
        for _ in range(self.repeats):
            phases.append(stream_phase(self.stream_s))
            phases.append(dgemm_phase(self.dgemm_s))
        return phases

    def uncapped_runtime_s(self, parallel: ParallelConfig | None = None) -> float:
        """Total runtime at default power limits."""
        return sum(p.duration_s for p in self.phases(parallel))


def gemm_stream_benchmark(variant: str = "standard") -> GemmStreamWorkload:
    """Preset acceptance campaigns: 'burst', 'standard', 'soak'."""
    presets = {
        "burst": GemmStreamWorkload(name="gemm_stream_burst", repeats=2),
        "standard": GemmStreamWorkload(name="gemm_stream_standard", repeats=5),
        "soak": GemmStreamWorkload(
            name="gemm_stream_soak", repeats=15, dgemm_s=120.0, stream_s=120.0
        ),
    }
    try:
        return presets[variant]
    except KeyError:
        raise ValueError(
            f"unknown gemm-stream variant {variant!r}; known: {', '.join(presets)}"
        ) from None


#: Drained-node profile: GPU idle, minimal host activity.
_DRAINED = GpuKernelProfile(
    name="outage_idle",
    compute_utilization=0.0,
    memory_utilization=0.0,
    compute_fraction=0.0,
    duty_cycle=0.0,
)


@dataclass(frozen=True)
class OutageWorkload:
    """A node-failure drain: occupies nodes at idle for the outage."""

    name: str = "outage"
    duration_s: float = 600.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")

    def phases(
        self,
        parallel: ParallelConfig | None = None,
        comm: CommunicationModel | None = None,
    ) -> list[MacroPhase]:
        """One idle phase spanning the outage."""
        del parallel, comm
        return [
            MacroPhase(
                name="drained",
                duration_s=self.duration_s,
                gpu_profile=_DRAINED,
                cpu_utilization=0.02,
                mem_bw_utilization=0.02,
            )
        ]

    def uncapped_runtime_s(self, parallel: ParallelConfig | None = None) -> float:
        """The outage duration."""
        return self.duration_s


def outage_benchmark(variant: str = "10min") -> OutageWorkload:
    """Preset outages: '10min', '1h'."""
    presets = {
        "10min": OutageWorkload(name="outage_10min", duration_s=600.0),
        "1h": OutageWorkload(name="outage_1h", duration_s=3600.0),
    }
    try:
        return presets[variant]
    except KeyError:
        raise ValueError(
            f"unknown outage variant {variant!r}; known: {', '.join(presets)}"
        ) from None
