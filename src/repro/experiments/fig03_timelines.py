"""Fig 3: component power timelines for three representative benchmarks.

Si256_hse, GaAsBi-64 and Si128_acfdtr on a single node, with component
breakdown (CPU, 4 GPUs, memory, total), the text-box statistics (max /
median / min / high power mode per node), and the node-power histogram.
The paper's observations, reproduced here:

* GPUs account for >70 % of node power for the two hot workloads, with
  CPU + memory below 10 %;
* Si128_acfdtr has a flat CPU-resident section (un-ported exact
  diagonalization) and large power swings;
* GaAsBi-64 draws far less, its GPUs underutilized;
* high power mode per node ranges ~766-1814 W and stays well below the
  node's 2,350 W TDP even as maxima exceed 2,100 W on the hot cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import DistributionSummary, summarize
from repro.experiments.common import MeasuredRun, run_workload
from repro.experiments.report import format_table, sparkline
from repro.vasp.benchmarks import BENCHMARKS

#: The three benchmarks shown in Fig 3.
FIG3_BENCHMARKS: tuple[str, ...] = ("Si256_hse", "GaAsBi-64", "Si128_acfdtr")


@dataclass
class TimelinePanel:
    """One Fig 3 panel: a benchmark's single-node component timeline."""

    name: str
    run: MeasuredRun
    node_stats: DistributionSummary
    gpu_fraction: float
    cpu_mem_fraction: float
    histogram_counts: np.ndarray
    histogram_edges_w: np.ndarray
    host_section_s: float

    @property
    def runtime_s(self) -> float:
        """Wall time of the run."""
        return self.run.runtime_s


@dataclass
class Fig03Result:
    """All three panels."""

    panels: list[TimelinePanel]

    def panel(self, name: str) -> TimelinePanel:
        """Look up a panel by benchmark name."""
        for p in self.panels:
            if p.name == name:
                return p
        raise KeyError(f"no panel for {name!r}")


def run(seed: int = 7, histogram_bins: int = 40) -> Fig03Result:
    """Run the three benchmarks on one node each and summarize."""
    panels = []
    for name in FIG3_BENCHMARKS:
        workload = BENCHMARKS[name].build()
        measured = run_workload(workload, n_nodes=1, seed=seed)
        telem = measured.telemetry[0]
        node_power = telem.node_power
        stats = summarize(node_power)
        gpu_fraction = float(np.mean(telem.gpu_total / node_power))
        cpu_mem = float(
            np.mean((telem.component("cpu") + telem.component("memory")) / node_power)
        )
        counts, edges = np.histogram(node_power, bins=histogram_bins)
        host_s = measured.result.phase_time_s("exact_diag_host")
        panels.append(
            TimelinePanel(
                name=name,
                run=measured,
                node_stats=stats,
                gpu_fraction=gpu_fraction,
                cpu_mem_fraction=cpu_mem,
                histogram_counts=counts,
                histogram_edges_w=edges,
                host_section_s=host_s,
            )
        )
    return Fig03Result(panels=panels)


def render(result: Fig03Result) -> str:
    """ASCII rendering: stats table plus a node-power sparkline per panel."""
    table = format_table(
        headers=[
            "Benchmark",
            "Runtime (s)",
            "Max (W)",
            "Median (W)",
            "Min (W)",
            "HPM (W)",
            "GPU share",
            "CPU+mem share",
        ],
        rows=[
            [
                p.name,
                p.runtime_s,
                p.node_stats.max_w,
                p.node_stats.median_w,
                p.node_stats.min_w,
                p.node_stats.high_power_mode_w,
                f"{p.gpu_fraction:.0%}",
                f"{p.cpu_mem_fraction:.0%}",
            ]
            for p in result.panels
        ],
        title="Fig 3: single-node power timelines (2-second averages)",
    )
    lines = [table, ""]
    for p in result.panels:
        lines.append(f"{p.name:14s} |{sparkline(p.run.telemetry[0].node_power, 60)}|")
    return "\n".join(lines)
