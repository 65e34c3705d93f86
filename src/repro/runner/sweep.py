"""Parallel, cached execution of run-spec grids.

Every paper artifact is a sweep: Table I iterates the seven benchmarks,
Figs 4/5/8/13 sweep node counts, Figs 10/12 sweep power caps, and the
fleet studies sweep policies.  The seed repository executed every grid
point serially, one ``engine.run()`` at a time.  This module turns a grid
into a first-class object:

* :class:`RunSpec` / :class:`EstimateSpec` describe one grid point by
  *content* (workload, node count, cap, seed, engine config) — never by
  execution context — so a spec executes to the same bits no matter which
  worker runs it, and fingerprints as a cache key.
* :class:`SweepExecutor` executes a grid through
  :mod:`concurrent.futures` (process pool), deduplicating identical specs
  first and always returning results in the original grid order.  A
  serial fallback covers single-CPU hosts, pools that fail to start, and
  ``REPRO_SWEEP_WORKERS=1``.

Determinism contract: parallel execution is bit-identical to serial
execution.  Seeds are part of the spec, engine inputs are rebuilt from
the spec inside the worker, and nothing about worker identity enters the
computation.

Observability composes with the pool: each worker wraps its specs in a
fresh per-process capture (:mod:`repro.obs.merge`) and ships back with
the result its account deltas (cache, sweep and surrogate counts) plus
the spans and metric state of the layers the coordinator collects — the
merged trace shows every ``sweep.spec`` span under its worker's pid
row, and merged counts equal a serial run's exactly.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

from repro import obs
from repro.config import read
from repro.obs import merge as obs_merge
from repro.runner.cache import Account, fingerprint
from repro.runner.engine import EngineConfig
from repro.vasp.workload import VaspWorkload

logger = logging.getLogger(__name__)

#: Grids smaller than this run serially unless workers are set
#: explicitly — pool startup would cost more than it saves.
MIN_PARALLEL_GRID = 4

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
    from ``n_nodes`` inside the worker, so the result depends only on this
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


def execute_spec(spec: Any) -> Any:
    """Module-level task entry point (picklable for process pools)."""
    return spec.execute()


def _run_spec(fn: Callable[[SpecT], ResultT], task: SpecT, index: int) -> ResultT:
    """One grid point, in-process or in a worker: span plus latency metric."""
    start = time.perf_counter()
    with obs.span("sweep.spec", index=index, spec=type(task).__name__):
        result = fn(task)
    obs.observe(
        "repro_sweep_spec_seconds",
        time.perf_counter() - start,
        help_text="Per-spec sweep execution latency",
    )
    return result


def _call_captured(payload: tuple) -> tuple:
    """Worker-side: run one spec under a fresh observability capture.

    The spec runs through :func:`_run_spec`, exactly as in-process, and
    the capture ships the spans and metrics of the layers the coordinator
    collects plus the worker's account deltas (cache, nested sweep and
    surrogate counts).  Returns ``(result, ObsPartial | None)``.
    """
    fn, task, index, (trace_on, metrics_on) = payload
    token = obs_merge.begin_worker_capture(
        trace_on,
        metrics_on,
        process_label=f"repro sweep worker {os.getpid()}",
        thread_label="sweep",
    )
    try:
        result = _run_spec(fn, task, index)
    finally:
        partial = obs_merge.finish_worker_capture(token)
    return result, partial


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the host's cores even when a cgroup or
    ``taskset`` pins the process to fewer — sizing a pool that way
    oversubscribes containerized CI.  ``sched_getaffinity`` reflects the
    real allowance where the platform supports it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_workers(n_tasks: int, workers: int | None = None) -> int:
    """Worker count for a grid: explicit arg > ``REPRO_SWEEP_WORKERS`` >
    host size (``REPRO_SWEEP_WORKERS=1`` forces serial execution)."""
    workers = read("REPRO_SWEEP_WORKERS", workers)
    if workers is not None:
        return max(min(workers, n_tasks), 1)
    if n_tasks < MIN_PARALLEL_GRID:
        return 1
    return max(min(available_cpus(), n_tasks), 1)


class SweepExecutor:
    """Executes grids of specs with dedupe, a process pool and grid order.

    Parameters
    ----------
    workers:
        Worker processes; None resolves via ``REPRO_SWEEP_WORKERS`` and the
        host CPU count, 1 (or any grid smaller than
        :data:`MIN_PARALLEL_GRID`) runs serially in-process.
    dedupe:
        Fingerprint specs and execute each distinct spec once, fanning the
        result back out to every duplicate grid point.  This is what makes
        a shared baseline (e.g. the uncapped run in every cap curve) a
        single execution.  Specs that cannot be fingerprinted are executed
        individually.

    ``run()`` executes spec objects (anything with ``execute()``);
    ``map()`` applies an arbitrary picklable module-level function, for
    sweeps whose tasks reduce results in the worker (keeping IPC small).
    """

    def __init__(self, workers: int | None = None, dedupe: bool = True) -> None:
        self.workers = workers
        self.dedupe = dedupe
        #: Executions actually performed by the last call (after dedupe).
        self.last_executed = 0

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[Any]) -> list[Any]:
        """Execute a grid of specs, returning results in grid order."""
        return self.map(execute_spec, specs)

    def map(
        self, fn: Callable[[SpecT], ResultT], specs: Sequence[SpecT]
    ) -> list[ResultT]:
        """Apply ``fn`` to every spec, deduplicated and in grid order."""
        specs = list(specs)
        if not specs:
            self.last_executed = 0
            return []

        # Dedupe by content: execute each distinct spec once.
        if self.dedupe:
            try:
                keys = [fingerprint(spec) for spec in specs]
            except TypeError:
                keys = [f"pos:{index}" for index in range(len(specs))]
        else:
            keys = [f"pos:{index}" for index in range(len(specs))]
        order: dict[str, int] = {}
        unique: list[SpecT] = []
        for key, spec in zip(keys, specs):
            if key not in order:
                order[key] = len(unique)
                unique.append(spec)

        workers = resolve_workers(len(unique), self.workers)
        _STATS.grids += 1
        _STATS.specs_submitted += len(specs)
        _STATS.specs_executed += len(unique)
        obs.gauge_set("repro_sweep_workers", workers)
        logger.debug(
            "sweep grid: %d specs, %d unique after dedupe, %d worker(s)",
            len(specs),
            len(unique),
            workers,
        )
        with obs.span(
            "sweep.map",
            specs=len(specs),
            unique=len(unique),
            deduped=len(specs) - len(unique),
            workers=workers,
        ):
            results = self._execute(fn, unique, workers)
        self.last_executed = len(unique)
        return [results[order[key]] for key in keys]

    def _execute(
        self, fn: Callable[[SpecT], ResultT], tasks: list[SpecT], workers: int
    ) -> list[ResultT]:
        if workers > 1 and len(tasks) > 1:
            try:
                return self._execute_pooled(fn, tasks, workers)
            except (OSError, PermissionError, ImportError) as exc:
                # Pools need fork/spawn and pipes; restricted hosts fall
                # back to serial execution (identical results, by
                # construction).
                logger.warning(
                    "process pool unavailable (%s: %s); falling back to serial "
                    "execution of %d specs",
                    type(exc).__name__,
                    exc,
                    len(tasks),
                )
        return [_run_spec(fn, task, index) for index, task in enumerate(tasks)]

    @staticmethod
    def _execute_pooled(
        fn: Callable[[SpecT], ResultT], tasks: list[SpecT], workers: int
    ) -> list[ResultT]:
        """Run every spec in a worker capture, folding each partial home."""
        capture = obs_merge.capture_flags()
        payloads = [(fn, task, index, capture) for index, task in enumerate(tasks)]
        chunksize = max(len(tasks) // (workers * 4), 1)
        results: list[ResultT] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result, partial in pool.map(
                _call_captured, payloads, chunksize=chunksize
            ):
                obs_merge.absorb_partial(partial)
                results.append(result)
        return results


def run_sweep(
    specs: Sequence[Any], workers: int | None = None, dedupe: bool = True
) -> list[Any]:
    """One-call convenience: ``SweepExecutor(workers, dedupe).run(specs)``."""
    return SweepExecutor(workers=workers, dedupe=dedupe).run(specs)
