"""Cached, deduplicated execution of run-spec grids.

Every paper artifact is a sweep: Table I iterates the seven benchmarks,
Figs 4/5/8/13 sweep node counts, Figs 10/12 sweep power caps, and the
fleet studies sweep policies.  The seed repository executed every grid
point serially, one ``engine.run()`` at a time.  This module turns a grid
into a first-class object:

* :class:`RunSpec` / :class:`EstimateSpec` describe one grid point by
  *content* (workload, node count, cap, seed, engine config) — never by
  execution context — so a spec executes to the same bits wherever it
  runs, and fingerprints as a cache key.
* :class:`SweepExecutor` deduplicates identical specs, executes each
  distinct spec once in the calling process and returns results in the
  original grid order.  Every execution goes through the process's run
  caches, so a re-swept grid is all cache hits.

Sweeps always run in process: the only process pool is the fleet shard
pool (:mod:`repro.capping.shard`), which ``REPRO_SWEEP_WORKERS`` sizes.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

from repro import obs
from repro.runner.cache import Account, fingerprint
from repro.runner.engine import EngineConfig
from repro.vasp.workload import VaspWorkload

logger = logging.getLogger(__name__)

SpecT = TypeVar("SpecT")
ResultT = TypeVar("ResultT")


@dataclass
class SweepStats(Account):
    """Process-wide sweep effectiveness totals (cheap plain counters).

    Always maintained — a few integer adds per *grid* — they feed the
    CLI footer, the run ledger, metrics and the bench trajectory fields.
    """

    COUNTS = ("grids", "specs_submitted", "specs_executed")

    grids: int = 0
    specs_submitted: int = 0
    specs_executed: int = 0

    @property
    def specs_deduped(self) -> int:
        """Grid points served by another point's execution."""
        return self.specs_submitted - self.specs_executed

    @property
    def dedupe_ratio(self) -> float:
        """Deduped fraction of submitted specs (0.0 when nothing ran)."""
        if self.specs_submitted == 0:
            return 0.0
        return self.specs_deduped / self.specs_submitted

    def summary_line(self) -> str:
        """One-line human summary (for CLI footers)."""
        return (
            f"sweeps: {self.specs_submitted} specs over {self.grids} grids, "
            f"{self.specs_executed} executed "
            f"({self.specs_deduped} deduped, {self.dedupe_ratio:.0%})"
        )

    @staticmethod
    def counters(state: dict[str, int]) -> list[tuple]:
        """The ``repro_sweep_specs_*`` series one :meth:`state` renders as."""
        submitted, executed = state["specs_submitted"], state["specs_executed"]
        return [
            ("repro_sweep_specs_submitted_total", {}, submitted),
            ("repro_sweep_specs_executed_total", {}, executed),
            ("repro_sweep_specs_deduped_total", {}, submitted - executed),
        ]


_STATS = SweepStats()
obs.register_stats(f"{__name__}:sweeps", _STATS)


def sweep_stats() -> SweepStats:
    """The process-wide :class:`SweepStats` accumulator."""
    return _STATS


def reset_sweep_stats() -> None:
    """Zero the process-wide sweep totals (tests, CLI session scoping)."""
    _STATS.reset()


@dataclass(frozen=True)
class RunSpec:
    """One full-pipeline grid point (engine + telemetry view).

    Executes to the :class:`~repro.experiments.common.MeasuredRun` that
    ``run_workload`` produces for the same arguments.  Nodes are derived
    from ``n_nodes`` at execution, so the result depends only on this
    spec's content.
    """

    workload: VaspWorkload
    n_nodes: int = 1
    gpu_cap_w: float | None = None
    seed: int = 7
    engine_config: EngineConfig | None = None
    #: Hardware platform id (None = registry default).  A string, not a
    #: ``Platform``, so the spec stays trivially picklable/fingerprintable.
    platform: str | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")

    def execute(self) -> Any:
        """Run the spec through the full pipeline (cached)."""
        # Imported lazily: experiments.common sits above the runner layer.
        from repro.experiments.common import run_workload

        return run_workload(
            self.workload,
            n_nodes=self.n_nodes,
            gpu_cap_w=self.gpu_cap_w,
            seed=self.seed,
            engine_config=self.engine_config,
            platform=self.platform,
        )


@dataclass(frozen=True)
class EstimateSpec:
    """One analytic-estimator grid point (no trace rendering).

    Executes to the :class:`~repro.capping.scheduler.RunEstimate` for the
    workload at one node count and cap — what Figs 4/12/13 and the
    scheduler sweep over.
    """

    workload: VaspWorkload
    n_nodes: int = 1
    cap_w: float | None = None
    #: Hardware platform id (None = registry default).
    platform: str | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")

    def execute(self) -> Any:
        """Estimate the spec analytically (cached)."""
        from repro.capping.scheduler import cached_estimate_run

        return cached_estimate_run(
            self.workload, self.n_nodes, self.cap_w, self.platform
        )


def _run_spec(fn: Callable[[SpecT], ResultT], task: SpecT, index: int) -> ResultT:
    """One grid point: span plus latency metric."""
    start = time.perf_counter()
    with obs.span("sweep.spec", index=index, spec=type(task).__name__):
        result = fn(task)
    obs.observe(
        "repro_sweep_spec_seconds",
        time.perf_counter() - start,
        help_text="Per-spec sweep execution latency",
    )
    return result


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the host's cores even when a cgroup or
    ``taskset`` pins the process to fewer.  ``sched_getaffinity``
    reflects the real allowance where the platform supports it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class SweepExecutor:
    """Executes grids of specs in process, with dedupe and grid order.

    Specs are fingerprinted and each distinct spec executes once, its
    result fanned back out to every duplicate grid point.  This is what
    makes a shared baseline (e.g. the uncapped run in every cap curve) a
    single execution.  Specs that cannot be fingerprinted are executed
    individually.

    ``run()`` executes spec objects (anything with ``execute()``);
    ``map()`` applies an arbitrary function, for sweeps that keep only a
    reduction of each result.
    """

    def __init__(self) -> None:
        #: Executions actually performed by the last call (after dedupe).
        self.last_executed = 0

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[Any]) -> list[Any]:
        """Execute a grid of specs, returning results in grid order."""
        return self.map(lambda spec: spec.execute(), specs)

    def map(
        self, fn: Callable[[SpecT], ResultT], specs: Sequence[SpecT]
    ) -> list[ResultT]:
        """Apply ``fn`` to every spec, deduplicated and in grid order."""
        specs = list(specs)
        if not specs:
            self.last_executed = 0
            return []

        # Dedupe by content: execute each distinct spec once.
        try:
            keys = [fingerprint(spec) for spec in specs]
        except TypeError:
            keys = [f"pos:{index}" for index in range(len(specs))]
        order: dict[str, int] = {}
        unique: list[SpecT] = []
        for key, spec in zip(keys, specs):
            if key not in order:
                order[key] = len(unique)
                unique.append(spec)

        _STATS.grids += 1
        _STATS.specs_submitted += len(specs)
        _STATS.specs_executed += len(unique)
        logger.debug(
            "sweep grid: %d specs, %d unique after dedupe",
            len(specs),
            len(unique),
        )
        with obs.span(
            "sweep.map",
            specs=len(specs),
            unique=len(unique),
            deduped=len(specs) - len(unique),
        ):
            results = [
                _run_spec(fn, task, index) for index, task in enumerate(unique)
            ]
        self.last_executed = len(unique)
        return [results[order[key]] for key in keys]
