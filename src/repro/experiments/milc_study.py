"""Section VI-B: extending the approach to MILC, NERSC's second app.

The deployment strategy scales application-by-application: the same
pipeline (workload model -> engine -> telemetry -> high power mode ->
cap response) is applied to MILC, and its power class is compared against
the VASP taxonomy.  Expected outcome (per the companion MILC study):
bandwidth-bound, steady power well below TDP, and tolerant of deep power
caps — i.e. the scheduler can treat MILC like the basic-DFT class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import DistributionSummary, summarize
from repro.apps.milc import MilcWorkload, milc_benchmark, milc_cap_slowdown
from repro.experiments.common import run_workload
from repro.experiments.report import format_table
from repro.runner.sweep import SweepExecutor

#: Caps applied, matching the VASP study.
POWER_CAPS_W: tuple[float, ...] = (400.0, 300.0, 200.0, 100.0)


def _profile_preset(task: tuple[str, tuple[float, ...], int]) -> "MilcProfile":
    """Worker-side task: profile one MILC preset on one node."""
    size, caps_w, seed = task
    workload: MilcWorkload = milc_benchmark(size)
    measured = run_workload(workload, n_nodes=1, seed=seed)
    telem = measured.telemetry[0]
    return MilcProfile(
        name=workload.name,
        stats=summarize(telem.node_power),
        runtime_s=measured.runtime_s,
        gpu_fraction=float(np.mean(telem.gpu_total / telem.node_power)),
        cap_slowdown={cap: milc_cap_slowdown(workload, cap) for cap in caps_w},
    )


@dataclass
class MilcProfile:
    """One MILC campaign's power profile and cap response."""

    name: str
    stats: DistributionSummary
    runtime_s: float
    gpu_fraction: float
    #: cap watts -> runtime multiplier.
    cap_slowdown: dict[float, float]

    def normalized_performance(self, cap_w: float) -> float:
        """Performance at a cap relative to the default limit."""
        return 1.0 / self.cap_slowdown[cap_w]


@dataclass
class MilcStudyResult:
    """Profiles for the MILC presets."""

    profiles: list[MilcProfile]

    def profile(self, name: str) -> MilcProfile:
        """Look up one preset by workload name."""
        for p in self.profiles:
            if p.name == name:
                return p
        raise KeyError(f"no MILC profile named {name!r}")


def run(
    sizes: tuple[str, ...] = ("small", "medium", "large"),
    caps_w: tuple[float, ...] = POWER_CAPS_W,
    seed: int = 7,
) -> MilcStudyResult:
    """Profile each MILC preset on one node, as one sweep."""
    tasks = [(size, tuple(caps_w), seed) for size in sizes]
    profiles = SweepExecutor().map(_profile_preset, tasks)
    return MilcStudyResult(profiles=profiles)


def render(result: MilcStudyResult) -> str:
    """ASCII rendering of the MILC study."""
    caps = sorted(result.profiles[0].cap_slowdown, reverse=True)
    table = format_table(
        headers=["Campaign", "Runtime (s)", "HPM (W)", "Max (W)", "GPU share"]
        + [f"perf @{c:.0f} W" for c in caps],
        rows=[
            [
                p.name,
                p.runtime_s,
                p.stats.high_power_mode_w,
                p.stats.max_w,
                f"{p.gpu_fraction:.0%}",
            ]
            + [f"{p.normalized_performance(c):.3f}" for c in caps]
            for p in result.profiles
        ],
        title="Section VI-B: MILC power profiles and cap response",
    )
    return table + (
        "\nMILC's bandwidth-bound kernels tolerate deep caps — the scheduler "
        "can treat it like the basic-DFT VASP class."
    )
