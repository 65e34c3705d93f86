"""Fig 8: power and energy-to-solution vs concurrency (Si256_hse).

Power stays steady across the node counts where parallel efficiency is
healthy (>= 70 %) and drops at higher concurrency as communication time
dilutes GPU activity; energy-to-solution increases monotonically with
node count throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.modes import high_power_mode_w
from repro.experiments.report import format_table
from repro.runner.sweep import EstimateSpec, RunSpec, SweepExecutor
from repro.vasp.benchmarks import BENCHMARKS

#: Node counts swept (Si256_hse's Fig 4/5 sweep).
NODE_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16)


def _measure(spec: RunSpec) -> tuple[float, float, float]:
    """Sweep reduction: (node HPM, runtime, energy) for one spec."""
    measured = spec.execute()
    return (
        high_power_mode_w(measured.telemetry[0].node_power),
        measured.runtime_s,
        measured.energy_mj(),
    )


@dataclass(frozen=True)
class ConcurrencyPoint:
    """One node count: power, runtime, energy, efficiency."""

    n_nodes: int
    high_power_mode_w: float
    runtime_s: float
    energy_mj: float
    parallel_efficiency: float


@dataclass
class Fig08Result:
    """The concurrency sweep."""

    points: list[ConcurrencyPoint]

    def energies(self) -> list[float]:
        """Energy-to-solution per node count, in sweep order."""
        return [p.energy_mj for p in self.points]

    def hpms(self) -> list[float]:
        """High power mode per node count, in sweep order."""
        return [p.high_power_mode_w for p in self.points]


def run(
    node_counts: tuple[int, ...] = NODE_COUNTS, seed: int = 7
) -> Fig08Result:
    """Run Si256_hse at each node count (one sweep for the whole grid)."""
    workload = BENCHMARKS["Si256_hse"].build()
    executor = SweepExecutor()
    estimates = executor.run([EstimateSpec(workload, n_nodes=n) for n in node_counts])
    ref = estimates[0].runtime_s
    measured = executor.map(
        _measure, [RunSpec(workload, n_nodes=n, seed=seed) for n in node_counts]
    )
    points = []
    for n, est, (hpm, runtime, energy) in zip(node_counts, estimates, measured):
        points.append(
            ConcurrencyPoint(
                n_nodes=n,
                high_power_mode_w=hpm,
                runtime_s=runtime,
                energy_mj=energy,
                parallel_efficiency=ref / est.runtime_s / (n / node_counts[0]),
            )
        )
    return Fig08Result(points=points)


def render(result: Fig08Result) -> str:
    """ASCII rendering of the concurrency sweep."""
    return format_table(
        headers=["Nodes", "HPM/node (W)", "Runtime (s)", "Energy (MJ)", "PE"],
        rows=[
            [p.n_nodes, p.high_power_mode_w, p.runtime_s, p.energy_mj, p.parallel_efficiency]
            for p in result.points
        ],
        title="Fig 8: Si256_hse power and energy vs concurrency",
    )
