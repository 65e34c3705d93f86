"""Fig 10: efficacy of GPU power capping.

Each benchmark runs at its optimal node count under caps of 400 (default),
300, 200 and 100 W; the figure reports the high power mode *per GPU* as a
fraction of the applied cap.  Capping is effective — the fraction stays at
or below one — except at the 100 W floor, where the controller's
regulation error lets sustained power exceed the cap slightly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.modes import high_power_mode_w
from repro.experiments.report import format_table
from repro.runner.sweep import RunSpec, SweepExecutor
from repro.vasp.benchmarks import BENCHMARKS

#: The four power caps of Section V, in watts.
POWER_CAPS_W: tuple[float, ...] = (400.0, 300.0, 200.0, 100.0)


def _gpu_hpm(spec: RunSpec) -> float:
    """Sweep reduction: run a spec, return GPU 0's HPM."""
    measured = spec.execute()
    return high_power_mode_w(measured.telemetry[0].gpu_power(0))


@dataclass(frozen=True)
class CapPoint:
    """One (benchmark, cap): per-GPU HPM and its fraction of the cap."""

    benchmark: str
    cap_w: float
    gpu_hpm_w: float

    @property
    def fraction_of_cap(self) -> float:
        """High power mode per GPU divided by the applied cap."""
        return self.gpu_hpm_w / self.cap_w


@dataclass
class Fig10Result:
    """The cap-efficacy sweep."""

    points: list[CapPoint]

    def fractions(self, cap_w: float) -> dict[str, float]:
        """Benchmark -> fraction at one cap."""
        return {
            p.benchmark: p.fraction_of_cap for p in self.points if p.cap_w == cap_w
        }


def run(
    caps_w: tuple[float, ...] = POWER_CAPS_W, seed: int = 7
) -> Fig10Result:
    """Run every benchmark at its optimal node count under each cap.

    The benchmark x cap grid executes as one sweep, reducing to the
    per-GPU HPM inside each worker.
    """
    grid = [
        (name, case, cap) for name, case in BENCHMARKS.items() for cap in caps_w
    ]
    specs = [
        RunSpec(case.build(), n_nodes=case.optimal_nodes, gpu_cap_w=cap, seed=seed)
        for _, case, cap in grid
    ]
    hpms = SweepExecutor().map(_gpu_hpm, specs)
    points = [
        CapPoint(benchmark=name, cap_w=cap, gpu_hpm_w=hpm)
        for (name, _, cap), hpm in zip(grid, hpms)
    ]
    return Fig10Result(points=points)


def render(result: Fig10Result) -> str:
    """ASCII rendering: fraction-of-cap per benchmark per cap."""
    caps = sorted({p.cap_w for p in result.points}, reverse=True)
    benchmarks = list(dict.fromkeys(p.benchmark for p in result.points))
    rows = []
    for name in benchmarks:
        row: list[object] = [name]
        for cap in caps:
            match = next(
                p for p in result.points if p.benchmark == name and p.cap_w == cap
            )
            row.append(f"{match.fraction_of_cap:.2f}")
        rows.append(row)
    return format_table(
        headers=["Benchmark"] + [f"{c:.0f} W cap" for c in caps],
        rows=rows,
        title="Fig 10: per-GPU high power mode as a fraction of the applied cap",
    )
