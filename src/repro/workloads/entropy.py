"""An input-entropy-parameterized workload (Bhalachandra et al.).

The LBNL study in PAPERS.md shows that for several HPC kernels the
*content* of the input — its bit-level entropy — shifts GPU power draw
at nearly constant runtime: low-entropy (structured, compressible)
operands keep functional-unit toggling low, high-entropy (random-like)
operands flip more gates per cycle and draw tens of watts more for the
same instruction stream.  No structural workload feature (size, method,
node count) can see this; it only surfaces as a power delta between
otherwise identical runs.

The model captures that axis directly: ``entropy`` in [0, 1] scales the
achieved utilizations (the power model's proxy for switching activity)
between a low- and a high-toggle operating point while the phase
*durations* stay fixed — same schedule, different watts.  High-entropy
instances push compute utilization into cap-sensitive territory, which
is why the classifier keys on the entropy parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perfmodel.kernels import GpuKernelProfile
from repro.vasp.parallel import CommunicationModel, ParallelConfig
from repro.vasp.phases import MacroPhase


@dataclass(frozen=True)
class EntropyParams:
    """Shape of an entropy-sweep campaign.

    ``entropy`` is the normalized input entropy in [0, 1];
    ``kernel_s`` the duration of each of the ``batches`` kernel
    batches (runtime is entropy-*independent* by construction).
    """

    entropy: float = 0.5
    batches: int = 24
    kernel_s: float = 45.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.entropy <= 1.0:
            raise ValueError(f"entropy must be in [0, 1], got {self.entropy}")
        if self.batches < 1:
            raise ValueError(f"batches must be >= 1, got {self.batches}")
        if self.kernel_s <= 0:
            raise ValueError(f"kernel_s must be positive, got {self.kernel_s}")


#: Entropy above which the workload draws like the higher-order class.
HIGH_ENTROPY_THRESHOLD = 0.6


@dataclass(frozen=True)
class EntropyWorkload:
    """An entropy-parameterized kernel campaign as macro-phases."""

    name: str = "entropy_mid"
    params: EntropyParams = EntropyParams()
    #: Utilization operating points at entropy 0 and 1; the entropy
    #: parameter interpolates between them (toggling-rate proxy).
    compute_utilization_low: float = 0.45
    compute_utilization_high: float = 0.90
    memory_utilization_low: float = 0.35
    memory_utilization_high: float = 0.55

    def _profile(self) -> GpuKernelProfile:
        e = self.params.entropy
        compute = (
            self.compute_utilization_low
            + e * (self.compute_utilization_high - self.compute_utilization_low)
        )
        memory = (
            self.memory_utilization_low
            + e * (self.memory_utilization_high - self.memory_utilization_low)
        )
        # Clock sensitivity tracks how compute-bound the operating point
        # is; bounded away from the extremes like the catalogue profiles.
        compute_fraction = min(0.85, max(0.15, 0.25 + 0.55 * e))
        return GpuKernelProfile(
            name="entropy_kernel",
            compute_utilization=compute,
            memory_utilization=memory,
            compute_fraction=compute_fraction,
            duty_cycle=0.92,
        )

    def phases(
        self,
        parallel: ParallelConfig | None = None,
        comm: CommunicationModel | None = None,
    ) -> list[MacroPhase]:
        """The macro-phase sequence: fixed schedule, entropy-set watts."""
        del parallel, comm  # embarrassingly parallel batches, no halo
        p = self.params
        profile = self._profile()
        idle = GpuKernelProfile(
            name="entropy_stage",
            compute_utilization=0.05,
            memory_utilization=0.10,
            compute_fraction=0.10,
            duty_cycle=0.0,
        )
        phases: list[MacroPhase] = [
            MacroPhase(
                name="stage_inputs",
                duration_s=10.0,
                gpu_profile=idle,
                cpu_utilization=0.40,
                mem_bw_utilization=0.45,
            )
        ]
        for _ in range(p.batches):
            phases.append(
                MacroPhase(
                    name="entropy_kernel",
                    duration_s=p.kernel_s,
                    gpu_profile=profile,
                    cpu_utilization=0.06,
                    mem_bw_utilization=0.08,
                )
            )
        phases.append(
            MacroPhase(
                name="collect_outputs",
                duration_s=6.0,
                gpu_profile=idle,
                cpu_utilization=0.30,
                mem_bw_utilization=0.35,
            )
        )
        return phases

    def uncapped_runtime_s(self, parallel: ParallelConfig | None = None) -> float:
        """Total runtime at default power limits (entropy-independent)."""
        return sum(p.duration_s for p in self.phases(parallel))


def classify(workload: EntropyWorkload) -> str:
    """Class hint from the entropy parameter (scheduler-visible)."""
    if workload.params.entropy >= HIGH_ENTROPY_THRESHOLD:
        return "higher_order"
    return "basic_dft"


def entropy_benchmark(level: str = "mid") -> EntropyWorkload:
    """Preset entropy points: 'low' (0.1), 'mid' (0.5), 'high' (0.9)."""
    presets = {
        "low": EntropyParams(entropy=0.1),
        "mid": EntropyParams(entropy=0.5),
        "high": EntropyParams(entropy=0.9),
    }
    try:
        params = presets[level]
    except KeyError:
        raise ValueError(
            f"unknown entropy level {level!r}; known: {', '.join(presets)}"
        ) from None
    return EntropyWorkload(name=f"entropy_{level}", params=params)
