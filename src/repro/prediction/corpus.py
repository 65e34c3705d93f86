"""Surrogate training-corpus generation over the sweep executor.

The two-stage surrogate trains on a grid of engine runs spanning
workloads × node counts × power caps × platforms.  Each grid point is a
:class:`CorpusSpec` — a content-addressed spec in the
:mod:`repro.runner.sweep` sense, so corpus generation gets dedupe and
run-cache reuse for free, and each point reduces to a compact
:class:`CorpusSample` (features plus scalar targets), never a full
``MeasuredRun``.

Cap grids are expressed as *fractions of the platform GPU's TDP* (clamped
to the platform's cap floor), not absolute watts: 200 W is half-TDP on an
A100 but below the cap floor on an H100, and the surrogate's cap features
are fractional for the same reason.

The cap-induced slowdown target needs an uncapped baseline, which is why
every (workload, nodes, platform) group always includes the ``cap=None``
point: :func:`build_corpus` fills ``slowdown`` in after the sweep by
dividing each runtime by its group's baseline runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro import obs
from repro.runner.sweep import SweepExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vasp.workload import VaspWorkload

#: TDP fractions the default corpus caps at, besides uncapped.  0.3125 is
#: the paper's 125 W-on-A100 deep-cap point; 0.5 is the recommended
#: operating cap; 0.75 probes the shallow-regulation regime.
DEFAULT_CAP_FRACTIONS: tuple[float, ...] = (0.3125, 0.5, 0.75)


@dataclass(frozen=True)
class CorpusSample:
    """One corpus grid point: surrogate features plus measured targets.

    ``slowdown`` is relative to the same (workload, nodes, platform)
    group's uncapped run and is filled in by :func:`build_corpus` after
    the sweep (a spec cannot see its sibling grid points).
    """

    workload_name: str
    n_nodes: int
    cap_w: float | None
    platform_id: str
    #: :func:`repro.prediction.features.surrogate_feature_vector`.
    input_features: np.ndarray
    #: :func:`repro.prediction.clustering.profile_features` of the run's
    #: node-power telemetry (engine-derived; stage-1 training only).
    profile: np.ndarray
    hpm_w: float
    mean_node_power_w: float
    runtime_s: float
    energy_per_node_j: float
    #: GPU high power mode over the platform GPU's TDP.
    tdp_fraction: float
    #: Runtime over the group's uncapped runtime (1.0 before fill-in).
    slowdown: float = 1.0


@dataclass(frozen=True)
class CorpusSpec:
    """One corpus grid point by content (picklable, fingerprintable)."""

    #: Any zoo workload instance (VASP or registered non-VASP model).
    workload: object
    n_nodes: int
    cap_w: float | None
    platform_id: str
    seed: int = 13

    def execute(self) -> CorpusSample:
        """Run the point through the full pipeline and reduce it to a sample."""
        # Imported lazily: experiments.common sits above the runner layer.
        from repro.analysis.modes import high_power_mode_w
        from repro.experiments.common import run_workload
        from repro.hardware.platform import get_platform
        from repro.prediction.clustering import profile_features
        from repro.prediction.features import surrogate_feature_vector

        measured = run_workload(
            self.workload,
            n_nodes=self.n_nodes,
            gpu_cap_w=self.cap_w,
            seed=self.seed,
            platform=self.platform_id,
        )
        node_power = measured.telemetry[0].node_power
        gpu = get_platform(self.platform_id).gpu
        runtime = measured.runtime_s
        mean_node_w = measured.result.total_energy_j() / (self.n_nodes * runtime)
        return CorpusSample(
            workload_name=self.workload.name,
            n_nodes=self.n_nodes,
            cap_w=self.cap_w,
            platform_id=self.platform_id,
            input_features=surrogate_feature_vector(
                self.workload, self.n_nodes, self.cap_w, self.platform_id
            ),
            profile=profile_features(node_power),
            hpm_w=high_power_mode_w(node_power),
            mean_node_power_w=mean_node_w,
            runtime_s=runtime,
            energy_per_node_j=runtime * mean_node_w,
            tdp_fraction=high_power_mode_w(measured.telemetry[0].gpu_power(0))
            / gpu.tdp_w,
        )


@dataclass(frozen=True)
class CorpusConfig:
    """Shape of the training grid (content-only; part of the store key).

    The default mirrors (and extends across caps/platforms) the corpus
    :func:`repro.prediction.evaluate.training_corpus` trains the seed
    ridge model on: silicon sizes × methods at one node, the higher-order
    silicon pair, and the benchmark suite at one and two nodes.
    """

    silicon_sizes: tuple[int, ...] = (64, 128, 256, 512, 1024)
    silicon_methods: tuple[str, ...] = ("dft_normal", "dft_veryfast")
    higher_order_sizes: tuple[int, ...] = (128, 256)
    higher_order_methods: tuple[str, ...] = ("hse", "acfdtr")
    benchmark_nodes: tuple[int, ...] = (1, 2)
    include_benchmarks: bool = True
    platforms: tuple[str, ...] = ("a100-40g", "h100-sxm")
    cap_fractions: tuple[float, ...] = DEFAULT_CAP_FRACTIONS
    nelm: int = 6
    seed: int = 13
    #: Registry references of the non-VASP zoo workloads to include
    #: (resolved via :func:`repro.workloads.resolve_workload`); sampled
    #: on the first corpus platform only, at one node — enough for the
    #: profile-clustering stage to give each zoo regime its own head
    #: without doubling the grid.
    zoo: tuple[str, ...] = (
        "milc:small",
        "cloudsc:small",
        "multiphysics:small",
        "entropy:high",
        "entropy:low",
        "gemm-stream:burst",
    )
    zoo_nodes: tuple[int, ...] = (1,)

    def workload_grid(self) -> "list[tuple[VaspWorkload, int]]":
        """The (workload, node count) pairs the corpus measures."""
        from repro.vasp.benchmarks import BENCHMARKS, silicon_workload

        pairs: list[tuple["VaspWorkload", int]] = []
        for n_atoms in self.silicon_sizes:
            for method in self.silicon_methods:
                pairs.append((silicon_workload(n_atoms, method, nelm=self.nelm), 1))
        for n_atoms in self.higher_order_sizes:
            for method in self.higher_order_methods:
                pairs.append((silicon_workload(n_atoms, method, nelm=self.nelm), 1))
        if self.include_benchmarks:
            for case in BENCHMARKS.values():
                workload = case.build()
                for n_nodes in self.benchmark_nodes:
                    pairs.append((workload, n_nodes))
        return pairs

    def zoo_grid(self) -> "list[tuple[object, int]]":
        """The non-VASP (workload, node count) pairs (first platform only)."""
        from repro.workloads import resolve_workload

        pairs: list[tuple[object, int]] = []
        for ref in self.zoo:
            workload = resolve_workload(ref)
            for n_nodes in self.zoo_nodes:
                pairs.append((workload, n_nodes))
        return pairs

    def caps_for(self, platform_id: str) -> list[float | None]:
        """The cap grid for one platform: uncapped plus clamped fractions.

        Fractions resolve against the platform GPU's TDP and clamp to its
        cap floor; duplicates after clamping collapse (the sweep would
        dedupe them anyway, but the grid should say what it means).
        """
        from repro.hardware.platform import get_platform

        gpu = get_platform(platform_id).gpu
        caps: list[float | None] = [None]
        for fraction in self.cap_fractions:
            cap = min(max(fraction * gpu.tdp_w, gpu.cap_min_w), gpu.cap_max_w)
            if cap not in caps:
                caps.append(cap)
        return caps

    def specs(self) -> Iterator[CorpusSpec]:
        """Every grid point, workloads-major then platforms then caps.

        The VASP grid spans every platform; the zoo grid rides on the
        first platform, appended after so the legacy point order is
        untouched.
        """
        pairs = self.workload_grid()
        for platform_id in self.platforms:
            caps = self.caps_for(platform_id)
            for workload, n_nodes in pairs:
                for cap_w in caps:
                    yield CorpusSpec(
                        workload=workload,
                        n_nodes=n_nodes,
                        cap_w=cap_w,
                        platform_id=platform_id,
                        seed=self.seed,
                    )
        if self.zoo and self.platforms:
            platform_id = self.platforms[0]
            caps = self.caps_for(platform_id)
            for workload, n_nodes in self.zoo_grid():
                for cap_w in caps:
                    yield CorpusSpec(
                        workload=workload,
                        n_nodes=n_nodes,
                        cap_w=cap_w,
                        platform_id=platform_id,
                        seed=self.seed,
                    )


def build_corpus(config: CorpusConfig | None = None) -> list[CorpusSample]:
    """Measure the training grid and fill in the slowdown target.

    Runs through :class:`SweepExecutor` (dedupe + run-cache reuse), then
    divides each sample's runtime by its (workload, nodes, platform)
    group's uncapped runtime.
    """
    config = config or CorpusConfig()
    specs = list(config.specs())
    with obs.span("surrogate.build_corpus", specs=len(specs)):
        samples: list[CorpusSample] = SweepExecutor().run(specs)
    baseline: dict[tuple[str, int, str], float] = {
        (s.workload_name, s.n_nodes, s.platform_id): s.runtime_s
        for s in samples
        if s.cap_w is None
    }
    filled = [
        replace(
            sample,
            slowdown=sample.runtime_s
            / baseline[(sample.workload_name, sample.n_nodes, sample.platform_id)],
        )
        for sample in samples
    ]
    return filled
