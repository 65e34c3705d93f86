"""The paper's job protocol: prologue segments, five repeats, min pick.

Section III-B: *"Each benchmark was run five times to avoid outliers...
We ran DGEMM and Stream tests before running VASP in the same job script
... We selected the run with the minimum total runtime as a
representative."*

:class:`JobScript` reproduces that protocol on the simulated nodes.
Run-to-run variation enters as a non-negative runtime jitter (slow
system components only ever add time) and a fresh noise seed per repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.node import GpuNode
from repro.perfmodel.kernels import KernelCatalogue
from repro.vasp.parallel import layout_for
from repro.vasp.phases import MacroPhase
from repro.vasp.workload import VaspWorkload
from repro.runner.dgemm import dgemm_phase
from repro.runner.engine import EngineConfig, PowerEngine
from repro.runner.stream import stream_phase
from repro.runner.trace import RunResult


def idle_phase(duration_s: float = 30.0) -> MacroPhase:
    """An idle gap between job segments."""
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    return MacroPhase(
        name="idle",
        duration_s=duration_s,
        gpu_profile=KernelCatalogue.HOST_SECTION,
        cpu_utilization=0.0,
        mem_bw_utilization=0.0,
    )


@dataclass
class JobResult:
    """All repeats of a job plus the representative (min-runtime) run."""

    repeats: list[RunResult]
    representative_index: int

    @property
    def representative(self) -> RunResult:
        """The repeat with the minimum VASP-segment runtime."""
        return self.repeats[self.representative_index]

    @property
    def runtimes_s(self) -> list[float]:
        """VASP-segment runtimes of every repeat."""
        return [float(r.metadata["vasp_runtime_s"]) for r in self.repeats]


@dataclass
class JobScript:
    """One batch job: prologue + VASP segment on a set of nodes.

    Parameters
    ----------
    workload:
        The VASP workload to run.
    nodes:
        Allocated nodes; their GPUs run uncapped, at the TDP limit.
    include_prologue:
        Run the STREAM / DGEMM / idle segments first (Fig 1's layout).
    n_repeats:
        Paper protocol: five.
    runtime_jitter_sigma:
        Scale of the half-normal run-to-run runtime inflation.
    """

    workload: VaspWorkload
    nodes: list[GpuNode]
    include_prologue: bool = True
    n_repeats: int = 5
    runtime_jitter_sigma: float = 0.015
    prologue_duration_s: float = 60.0
    idle_duration_s: float = 30.0
    engine_config: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("job needs at least one node")
        if self.n_repeats < 1:
            raise ValueError(f"n_repeats must be >= 1, got {self.n_repeats}")

    def _phases(self) -> tuple[list[MacroPhase], int]:
        """Full phase list and the index where the VASP segment starts."""
        prologue: list[MacroPhase] = []
        if self.include_prologue:
            prologue = [
                stream_phase(self.prologue_duration_s),
                dgemm_phase(self.prologue_duration_s),
                idle_phase(self.idle_duration_s),
            ]
        parallel = layout_for(self.workload, len(self.nodes))
        vasp = self.workload.phases(parallel)
        return prologue + vasp, len(prologue)

    def run(self, seed: int = 0) -> JobResult:
        """Execute all repeats and pick the representative run."""
        engine = PowerEngine(self.nodes, self.engine_config)
        phases, vasp_start = self._phases()
        rng = np.random.default_rng(seed)
        repeats: list[RunResult] = []
        for repeat in range(self.n_repeats):
            jitter = 1.0 + abs(rng.normal(0.0, self.runtime_jitter_sigma))
            jittered = phases[:vasp_start] + [
                p.stretched(jitter) for p in phases[vasp_start:]
            ]
            result = engine.run(
                jittered,
                label=f"{self.workload.name}/repeat{repeat}",
                seed=seed * 1000 + repeat,
            )
            prologue_s = sum(p.duration_s for p in result.phases[:vasp_start])
            result.metadata["vasp_runtime_s"] = result.runtime_s - prologue_s
            result.metadata["vasp_start_s"] = prologue_s
            result.metadata["jitter"] = jitter
            repeats.append(result)
        best = min(
            range(len(repeats)), key=lambda i: repeats[i].metadata["vasp_runtime_s"]
        )
        return JobResult(repeats=repeats, representative_index=best)
