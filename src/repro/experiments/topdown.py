"""Section VI-B: the top-down (telemetry-only) workload classification.

Clusters the power profiles of the full job population — the seven VASP
benchmarks plus the MILC campaigns — into power classes using nothing but
the measured node-power series, and checks the result against the
bottom-up taxonomy (higher-order HSE/RPA vs basic DFT) the paper derived
from deep application knowledge.  Agreement between the two routes is the
prerequisite for scaling power-aware scheduling beyond hand-profiled
applications.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.milc import milc_benchmark
from repro.experiments.common import TELEMETRY_INTERVAL_S, make_nodes, run_workload
from repro.experiments.report import format_table
from repro.prediction.clustering import classify_jobs, profile_features
from repro.runner.cache import cached_phases
from repro.runner.engine import PowerEngine
from repro.telemetry.downsample import downsample_trace
from repro.vasp.benchmarks import BENCHMARKS

#: Ground-truth classes from the bottom-up (application-knowledge) route.
BOTTOM_UP_CLASSES: dict[str, int] = {
    "Si256_hse": 1,
    "B.hR105_hse": 1,
    "Si128_acfdtr": 1,
    "PdO4": 0,
    "PdO2": 0,
    "GaAsBi-64": 0,
    "CuC_vdw": 0,
    "milc_small": 0,
    "milc_medium": 0,
}


@dataclass
class TopDownResult:
    """Telemetry-only classes vs the bottom-up taxonomy."""

    assigned: dict[str, int]
    bottom_up: dict[str, int]
    hpm_by_job: dict[str, float]

    def agreement(self) -> float:
        """Fraction of jobs whose class matches the bottom-up label."""
        matches = sum(
            1 for name, label in self.assigned.items() if label == self.bottom_up[name]
        )
        return matches / len(self.assigned)


def run(k: int = 2, seed: int = 7) -> TopDownResult:
    """Profile the job population and cluster it by power alone."""
    series = {}
    hpm = {}
    for name, case in BENCHMARKS.items():
        measured = run_workload(case.build(), n_nodes=1, seed=seed)
        series[name] = measured.telemetry[0].node_power
    for size in ("small", "medium"):
        workload = milc_benchmark(size)
        result = PowerEngine(make_nodes(1)).run(
            cached_phases(workload, 1), seed=seed
        )
        series[workload.name] = downsample_trace(
            result.traces[0], TELEMETRY_INTERVAL_S
        ).node_power
    for name, values in series.items():
        hpm[name] = float(profile_features(values)[0])
    assigned = classify_jobs(series, k=k, seed=seed)
    return TopDownResult(
        assigned=assigned,
        bottom_up={name: BOTTOM_UP_CLASSES[name] for name in assigned},
        hpm_by_job=hpm,
    )


def render(result: TopDownResult) -> str:
    """ASCII rendering of the class comparison."""
    table = format_table(
        headers=["Job", "HPM (W)", "Top-down class", "Bottom-up class", "Match"],
        rows=[
            [
                name,
                result.hpm_by_job[name],
                result.assigned[name],
                result.bottom_up[name],
                result.assigned[name] == result.bottom_up[name],
            ]
            for name in sorted(result.assigned, key=lambda n: -result.hpm_by_job[n])
        ],
        title="Section VI-B: top-down power classes vs bottom-up taxonomy",
    )
    return table + f"\nagreement: {result.agreement():.0%}"
