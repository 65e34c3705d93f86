"""Fig 5: high power mode per node vs node count, for all seven workloads.

The paper's central observation: power varies far more across *workloads*
(766-1810 W per node) than across *concurrency* — as long as the job runs
at reasonable parallel efficiency (>= 70 %), the high power mode barely
moves with node count, and only starts dropping visibly below that line.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.modes import high_power_mode_w
from repro.experiments.report import format_table
from repro.runner.sweep import RunSpec, SweepExecutor
from repro.vasp.benchmarks import BENCHMARKS


def _node_hpm(spec: RunSpec) -> float:
    """Sweep reduction: run a spec, return only the node HPM."""
    measured = spec.execute()
    return high_power_mode_w(measured.telemetry[0].node_power)


@dataclass(frozen=True)
class PowerPoint:
    """High power mode per node at one node count."""

    n_nodes: int
    high_power_mode_w: float


@dataclass
class WorkloadPowerCurve:
    """One benchmark's power-vs-concurrency curve."""

    name: str
    points: list[PowerPoint]
    optimal_nodes: int


@dataclass
class Fig05Result:
    """All seven curves."""

    curves: list[WorkloadPowerCurve]

    def curve(self, name: str) -> WorkloadPowerCurve:
        """Look up one benchmark's curve."""
        for c in self.curves:
            if c.name == name:
                return c
        raise KeyError(f"no curve for {name!r}")

    def workload_spread_w(self) -> float:
        """Spread of single-node (reference) HPM across workloads."""
        firsts = [c.points[0].high_power_mode_w for c in self.curves]
        return max(firsts) - min(firsts)

    def max_concurrency_spread_w(self, within_efficiency: bool = True) -> float:
        """Largest within-workload HPM spread (optionally PE >= 70 % only)."""
        spreads = []
        for c in self.curves:
            points = (
                [p for p in c.points if p.n_nodes <= c.optimal_nodes]
                if within_efficiency
                else c.points
            )
            values = [p.high_power_mode_w for p in points]
            spreads.append(max(values) - min(values))
        return max(spreads)


def run(seed: int = 7, node_counts: dict[str, tuple[int, ...]] | None = None) -> Fig05Result:
    """Measure the HPM of every benchmark at each of its node counts.

    The benchmark x node-count grid runs through one
    :class:`~repro.runner.sweep.SweepExecutor` sweep, reducing to the HPM
    inside each worker.
    """
    grid: list[tuple[str, tuple[int, ...]]] = []
    specs: list[RunSpec] = []
    for name, case in BENCHMARKS.items():
        counts = tuple((node_counts or {}).get(name, case.node_counts))
        grid.append((name, counts))
        workload = case.build()
        specs.extend(RunSpec(workload, n_nodes=n, seed=seed) for n in counts)
    hpms = iter(SweepExecutor().map(_node_hpm, specs))
    curves = []
    for name, counts in grid:
        points = [
            PowerPoint(n_nodes=n, high_power_mode_w=next(hpms)) for n in counts
        ]
        curves.append(
            WorkloadPowerCurve(
                name=name, points=points, optimal_nodes=BENCHMARKS[name].optimal_nodes
            )
        )
    return Fig05Result(curves=curves)


def render(result: Fig05Result) -> str:
    """ASCII rendering of the power-vs-concurrency curves."""
    node_counts = sorted({p.n_nodes for c in result.curves for p in c.points})
    rows = []
    for curve in result.curves:
        by_n = {p.n_nodes: p.high_power_mode_w for p in curve.points}
        rows.append(
            [curve.name]
            + [f"{by_n[n]:.0f}" if n in by_n else "" for n in node_counts]
        )
    table = format_table(
        headers=["Benchmark"] + [f"{n}n (W)" for n in node_counts],
        rows=rows,
        title="Fig 5: high power mode per node vs node count",
    )
    return (
        table
        + f"\nworkload spread: {result.workload_spread_w():.0f} W; "
        f"max concurrency spread (PE>=70%): {result.max_concurrency_spread_w():.0f} W"
    )
