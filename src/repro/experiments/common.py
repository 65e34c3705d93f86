"""Shared plumbing for the experiment modules.

All experiments run the same pipeline the paper's measurements went
through: workload -> engine (ground truth at 0.1 s) -> 2-second telemetry
view -> KDE/mode analysis.  This module owns that pipeline so the
per-figure modules stay declarative.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro import obs
from repro.config import read
from repro.analysis.stats import DistributionSummary, summarize
from repro.hardware.gpu import applied_cap_w
from repro.hardware.node import GpuNode
from repro.hardware.platform import Platform, get_platform
from repro.runner.cache import RunCache, cached_phases, fingerprint, process_cache
from repro.runner.engine import EngineConfig, PowerEngine
from repro.runner.trace import PowerTrace, RunResult
from repro.telemetry.downsample import downsample_trace
from repro.workloads.registry import workload_model_id
from repro.vasp.workload import VaspWorkload

logger = logging.getLogger(__name__)

#: The effective telemetry cadence of the paper's data (Section II-B).
TELEMETRY_INTERVAL_S: float = 2.0

#: Process-wide memoization of run_workload results.  Content-keyed on
#: (workload fingerprint, node count, cap, seed, engine config); see
#: :mod:`repro.runner.cache`.  ``REPRO_CACHE=0`` bypasses it entirely;
#: ``REPRO_CACHE_DIR`` adds an on-disk layer shared across processes.
_RUN_CACHE = process_cache(
    __name__, RunCache(maxsize=256, disk_dir=read("REPRO_CACHE_DIR"), name="run")
)


def run_cache() -> RunCache:
    """The process-wide :class:`RunCache` behind :func:`run_workload`."""
    return _RUN_CACHE


def make_nodes(
    n: int, first: int = 1000, platform: "str | Platform | None" = None
) -> list[GpuNode]:
    """``n`` deterministic nodes with Perlmutter-style names.

    ``platform`` picks the registered hardware platform the nodes are
    built from (None = registry default).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    spec = get_platform(platform).node
    return [GpuNode(name=f"nid{first + i:06d}", spec=spec) for i in range(n)]


@dataclass
class MeasuredRun:
    """One executed run plus its telemetry-rate view and node summary."""

    result: RunResult
    telemetry: list[PowerTrace]

    @property
    def runtime_s(self) -> float:
        """Wall time of the run."""
        return self.result.runtime_s

    def node_summary(self, node_index: int = 0) -> DistributionSummary:
        """Fig 3-style summary of one node's total power."""
        return summarize(self.telemetry[node_index].node_power)

    def gpu_summary(self, node_index: int = 0, gpu_index: int = 0) -> DistributionSummary:
        """Summary of one GPU's power."""
        return summarize(self.telemetry[node_index].gpu_power(gpu_index))

    def energy_mj(self) -> float:
        """Energy-to-solution over all nodes, in megajoules."""
        return self.result.total_energy_j() / 1.0e6


def run_workload(
    workload: VaspWorkload,
    n_nodes: int = 1,
    gpu_cap_w: float | None = None,
    seed: int = 7,
    engine_config: EngineConfig | None = None,
    platform: "str | Platform | None" = None,
) -> MeasuredRun:
    """Run a workload through the full pipeline.

    ``gpu_cap_w`` is the ``nvidia-smi -pl``-style cap of every GPU (None
    = the TDP); an out-of-range cap raises
    :class:`~repro.hardware.platform.PowerLimitError`.  ``platform`` selects
    the hardware the run executes on (None = registry default); it is
    part of the cache key, so runs on different platforms never share a
    cache entry.

    Results are memoized in :func:`run_cache` keyed by content and by
    the cap applied, so "uncapped" and "capped at the TDP" share one
    entry — the pipeline is deterministic, so a repeated grid point is a
    lookup, not a re-run.  Treat cached results as immutable.
    ``REPRO_CACHE=0`` forces execution.
    """
    plat = get_platform(platform)
    if not read("REPRO_CACHE"):
        return _execute_run(workload, n_nodes, gpu_cap_w, seed, engine_config, plat)
    key = fingerprint(
        "run_workload",
        workload_model_id(workload),
        workload,
        n_nodes,
        applied_cap_w(plat.gpu, gpu_cap_w),
        seed,
        engine_config,
        TELEMETRY_INTERVAL_S,
        read("REPRO_TRACE_DTYPE"),
        plat.id,
    )
    return _RUN_CACHE.get_or_compute(
        key,
        lambda: _execute_run(workload, n_nodes, gpu_cap_w, seed, engine_config, plat),
    )


def _execute_run(
    workload: VaspWorkload,
    n_nodes: int,
    gpu_cap_w: float | None,
    seed: int,
    engine_config: EngineConfig | None,
    platform: Platform,
) -> MeasuredRun:
    """The uncached pipeline body behind :func:`run_workload`."""
    obs.inc("repro_pipeline_runs_total")
    logger.debug(
        "executing pipeline: %s on %d node(s), cap=%s, seed=%d",
        workload.name,
        n_nodes,
        gpu_cap_w,
        seed,
    )
    with obs.span(
        "experiments.run_workload",
        workload=workload.name,
        nodes=n_nodes,
        cap_w=gpu_cap_w,
        seed=seed,
    ):
        engine = PowerEngine(make_nodes(n_nodes, platform=platform), engine_config)
        result = engine.run(
            cached_phases(workload, n_nodes),
            label=workload.name,
            seed=seed,
            cap_w=gpu_cap_w,
        )
        with obs.span("experiments.downsample", traces=len(result.traces)):
            telemetry = [
                downsample_trace(t, TELEMETRY_INTERVAL_S) for t in result.traces
            ]
        return MeasuredRun(result=result, telemetry=telemetry)
