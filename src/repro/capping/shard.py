"""Sharded execution and checkpointing for the traced fleet simulation.

A 100k-node fleet cannot be rendered by one Python process in useful
time, and a week-long-horizon simulation should not restart from zero
after an interruption.  This layer renders the fleet on a process pool
(sized by ``REPRO_SWEEP_WORKERS``, which sizes no other pool) and
checkpoints its fold:

* The coordinator plans the whole schedule (allocation replay binds each
  job to node *names* — no node objects are built) and cuts it into
  contiguous chronological batches, which one process pool takes in
  order: any free worker takes the next batch, so the pool balances the
  work as it runs.  Each worker process rebuilds its jobs' nodes from
  (name, spec) and renders them through :func:`render_batch` — the same
  routine serial runs call in-process on the whole schedule.  A batch
  resolves each of its phase tables once, for all of its jobs of one
  (workload, width).
* Workers never ship raw trace chunks.  Each job comes back as a
  compact :class:`JobPartial`: an origin-offset
  :class:`~repro.hardware.system.JobPowerPartial` energy array, one
  :class:`~repro.hardware.system.RunningMoments` row per chunk, and (for
  monitored runs) a :class:`~repro.monitor.collector.JobMonitorPartial`.
  The coordinator Chan-merges partials in chronological job order — the
  canonical fold the serial path also uses, so sharded output is
  bit-identical to single-process output by construction.
* :class:`FleetFold` is that fold: accumulator bins, node moments and
  stream counters.  :class:`FleetCheckpoint` snapshots its state to an
  atomic, checksummed on-disk pickle (``REPRO_FLEET_CHECKPOINT``).
  Per-job render seeds are content-derived, so no RNG stream state needs
  saving: resuming recomputes the schedule, validates the input
  fingerprint, restores the fold and continues from the next
  chronological job — bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.config import read
from repro.obs import merge as obs_merge
from repro.hardware.node import GpuNode
from repro.hardware.platform import NodeSpec, Platform
from repro.hardware.system import (
    JobPowerPartial,
    RunningMoments,
    SystemPowerAccumulator,
)
from repro.runner.cache import (
    atomic_write_pickle,
    cached_phases,
    content_key,
    read_pickle,
)
from repro.runner.engine import (
    EngineConfig,
    Layout,
    ResolvedRows,
    lay_out,
    render_blocks,
    resolve_table,
)
from repro.runner.trace import COMPONENT_KEYS, trace_dtype
from repro.vasp.phases import PhaseList
from repro.vasp.workload import VaspWorkload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.monitor.collector import JobMonitorPartial

logger = logging.getLogger(__name__)

#: On-disk checkpoint format version.
CHECKPOINT_VERSION = 4


def resolve_fleet_workers(n_jobs: int, workers: int | None = None) -> int:
    """Fleet worker count: explicit arg > ``REPRO_SWEEP_WORKERS`` > serial.

    ``REPRO_SWEEP_WORKERS`` sizes only this pool: grid sweeps always run
    in the calling process.  The fleet stays serial unless parallelism
    is asked for — the serial path *is* the reference output, and small
    fleets don't amortize pool startup.
    """
    workers = read("REPRO_SWEEP_WORKERS", workers)
    if workers is None:
        return 1
    return max(min(workers, n_jobs), 1)


# ----------------------------------------------------------------------
# Task and partial records (everything that crosses the pool boundary)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardJobTask:
    """One scheduled job, bound to its allocated nodes, ready to render."""

    #: Chronological position in the schedule (the fold order).
    index: int
    job_id: str
    start_s: float
    end_s: float
    cap_w: float
    n_nodes: int
    node_names: tuple[str, ...]
    #: Per-node indices into the schedule's spec table.
    spec_indices: tuple[int, ...]
    workload: VaspWorkload
    #: Content-derived render seed (crc32 of the job id ^ run seed).
    seed: int
    #: Uncapped runtime estimate (monitored runs only).
    nominal_runtime_s: float | None = None


@dataclass(frozen=True)
class ShardTask:
    """A batch of scheduled jobs plus their shared render parameters.

    One worker batch on the sharded path; the whole schedule on the
    serial path, which renders it in-process job by job.
    """

    specs: tuple[NodeSpec, ...]
    engine_config: EngineConfig | None
    bin_s: float
    #: The monitor's platform; None renders unmonitored.
    monitor_platform: Platform | None
    jobs: tuple[ShardJobTask, ...]
    #: (trace, metrics) layers the coordinator is collecting — the
    #: worker's :class:`repro.obs.merge.ObsPartial` carries those and,
    #: always, the worker's account deltas.
    obs_capture: tuple[bool, bool] = (False, False)


@dataclass
class JobPartial:
    """Compact per-job render result shipped from worker to coordinator."""

    index: int
    job_id: str
    start_s: float
    n_nodes: int
    runtime_s: float
    power: JobPowerPartial
    #: One RunningMoments.state() row per streamed node-power chunk, in
    #: chunk order — merged rows reproduce the serial update sequence.
    moment_rows: list[tuple]
    chunks: int
    nbytes: int
    monitor: "JobMonitorPartial | None" = None


@dataclass
class ShardResult:
    """One batch's render results plus the worker's observability capture."""

    jobs: list[JobPartial]
    #: What the worker recorded while rendering this batch; None when it
    #: recorded nothing.
    obs: "obs_merge.ObsPartial | None" = None


# ----------------------------------------------------------------------
# Rendering (shared by the serial path and the shard workers)
# ----------------------------------------------------------------------
def clamped_cap_w(cap_w: float, spec: NodeSpec) -> float:
    """A policy cap clamped to one node's supported GPU cap range."""
    gpu = spec.gpu
    return min(max(cap_w, gpu.cap_min_w), gpu.cap_max_w)


def resolve_batch(
    task: ShardTask, nodes: Sequence[list[GpuNode]]
) -> list[tuple[PhaseList, ResolvedRows, Layout]]:
    """Each job's phase list, resolved rows and layout, one pass per phase table.

    ``nodes`` holds each job's nodes, in ``task.jobs`` order.  Jobs
    sharing a store-held table — one (workload, width) — are resolved
    together in one :func:`~repro.runner.engine.resolve_table` pass and
    laid out together in one :func:`~repro.runner.engine.lay_out` call,
    which lays out each distinct slowdown once (jobs sharing one share
    their :class:`~repro.runner.engine.Layout`).
    Caps come from :func:`clamped_cap_w` of each job's cap on each of
    its nodes, not from node state: one node may serve several jobs of a
    batch at different caps.  A job's rows and layout equal its lone
    resolve and layout bit for bit.  Returned in ``task.jobs`` order.
    """
    groups: dict[tuple[str, int], list[int]] = {}
    for at, job in enumerate(task.jobs):
        groups.setdefault((content_key(job.workload), job.n_nodes), []).append(at)
    config = task.engine_config or EngineConfig()
    out: list = [None] * len(task.jobs)
    for members in groups.values():
        first = task.jobs[members[0]]
        phases = cached_phases(first.workload, first.n_nodes)
        table = phases.table
        cap_w = [
            [clamped_cap_w(task.jobs[at].cap_w, node.spec)] * len(node.gpus)
            for at in members
            for node in nodes[at]
        ]
        rows = resolve_table(
            table, [nodes[at] for at in members], np.array(cap_w), config.rank_imbalance
        )
        # Jobs of a group at one cap mostly share their slowdowns, and
        # equal slowdowns lay out equally: each distinct one once.
        distinct, which = np.unique(
            np.stack([job_rows.slowdown for job_rows in rows]),
            axis=0,
            return_inverse=True,
        )
        layouts = lay_out(
            table.durations, distinct[:, table.row_of_phase], config.base_interval_s
        )
        for at, job_rows, index in zip(members, rows, which.tolist()):
            out[at] = (phases, job_rows, layouts[index])
    return out


def render_batch(
    task: ShardTask,
    node_for: Callable[[str, NodeSpec], GpuNode],
) -> Iterator[JobPartial]:
    """Render a batch's jobs in index order, yielding each job's partial.

    The only way fleet jobs are rendered: serial runs render the whole
    schedule as one batch and fold each partial as it is yielded, shard
    workers render their batches — which is what makes the modes
    bit-identical.  Every phase table of the batch is resolved and laid
    out once, up front (:func:`resolve_batch`).  ``node_for(name, spec)``
    supplies the nodes (the pool's lazy map in-process, the per-process
    memo in workers).
    """
    nodes = [
        [node_for(name, task.specs[i]) for name, i in zip(job.node_names, job.spec_indices)]
        for job in task.jobs
    ]
    resolved = resolve_batch(task, nodes)
    dtype = trace_dtype()
    for job, job_nodes, (phases, rows, layout) in zip(task.jobs, nodes, resolved):
        yield render_task_job(job, task, job_nodes, phases, rows, layout, dtype)


#: Row of the node total in a job's rendered ``[nodes, components]`` series.
_NODE_ROW = COMPONENT_KEYS.index("node")


def render_task_job(
    job: ShardJobTask,
    task: ShardTask,
    nodes: list[GpuNode],
    phases: PhaseList,
    resolved: ResolvedRows,
    layout: Layout,
    dtype: np.dtype,
) -> JobPartial:
    """Render one scheduled job's traces and reduce them to a :class:`JobPartial`.

    ``nodes``, ``phases``, ``resolved`` and ``layout`` come from
    :func:`render_batch`; the caps are in ``resolved``, so no node state
    is set.  Samples are stored as ``dtype``
    (:func:`~repro.runner.trace.trace_dtype`) before they are folded.
    The job renders as :func:`~repro.runner.engine.render_blocks` blocks
    of its node rows (a monitored run also renders the GPU rows), and
    each block is folded as it comes:

    * its node rows deposit into the :class:`JobPowerPartial` in one
      ``np.add.at`` over their samples, concatenated in stream order — so
      every bin adds the same samples in the same order as one deposit
      per series chunk;
    * each node row gives one :class:`RunningMoments` row per series
      chunk (:meth:`RunningMoments.block_states`), which keeps the chunk
      counts and every digest as a chunk-at-a-time fold gives them;
    * a monitored run (``task.monitor_platform``) hands every series
      chunk to a :class:`repro.monitor.collector.JobProbe`, in (node,
      component, time) order, with the node chunk's moment row.
    """
    config = task.engine_config or EngineConfig()
    probe = None
    if task.monitor_platform is not None:
        from repro.monitor.collector import JobProbe

        probe = JobProbe(
            task.monitor_platform,
            job_id=job.job_id,
            n_nodes=job.n_nodes,
            cap_w=job.cap_w,
            start_s=job.start_s,
            end_s=job.end_s,
            nominal_runtime_s=job.nominal_runtime_s,
            node_specs={node.name: node.spec for node in nodes},
        )
    # The fold reads node rows only; a probe also reads the GPU rows.
    components = probe.COMPONENTS if probe is not None else ("node",)
    rows = frozenset(COMPONENT_KEYS.index(key) for key in components)
    _, means = resolved.gather(phases.table)
    dt = config.base_interval_s
    times = (np.arange(layout.n_samples) + 0.5) * dt
    power = JobPowerPartial(start_s=job.start_s, bin_s=task.bin_s)
    moment_rows: list[tuple] = []
    chunks = 0
    nbytes = 0
    for block in render_blocks(means, layout, rows, job.seed, config):
        obs.inc("repro_engine_chunks_total", len(block.series))
        values = block.values.astype(dtype, copy=False)
        block_times = times[block.start : block.start + values.shape[1]]
        at_node = [i for i, (_, row) in enumerate(block.series) if row == _NODE_ROW]
        states: list[tuple] = []
        if at_node:
            node_values = values if len(at_node) == len(values) else values[at_node]
            states = RunningMoments.block_states(node_values)
            power.add_samples(job.start_s, block_times, node_values, dt)
            moment_rows.extend(states)
            chunks += len(at_node)
            nbytes += int(node_values.nbytes)
        if probe is not None:
            node_states = iter(states)
            for (node_index, row), series in zip(block.series, values):
                probe.observe_chunk(
                    nodes[node_index].name,
                    COMPONENT_KEYS[row],
                    block_times,
                    series,
                    dt,
                    next(node_states) if row == _NODE_ROW else None,
                )
    power.trim()
    return JobPartial(
        index=job.index,
        job_id=job.job_id,
        start_s=job.start_s,
        n_nodes=job.n_nodes,
        runtime_s=layout.runtime_s,
        power=power,
        moment_rows=moment_rows,
        chunks=chunks,
        nbytes=nbytes,
        monitor=probe.partial if probe is not None else None,
    )


#: Worker-process-global node memo, keyed by (name, spec): construction
#: (~0.45 ms per node) is deterministic in both, so a node is built once
#: per process however many jobs and batches touch it.
_WORKER_NODES: dict[tuple[str, NodeSpec], GpuNode] = {}


def _worker_node(name: str, spec: NodeSpec) -> GpuNode:
    node = _WORKER_NODES.get((name, spec))
    if node is None:
        node = _WORKER_NODES[(name, spec)] = GpuNode(name=name, spec=spec)
    return node


def _render_shard(task: ShardTask) -> ShardResult:
    """Worker entry point: render every job in one batch.

    Nodes are rebuilt from (name, spec) — node construction is
    deterministic, so worker-built nodes match coordinator-built ones
    bit for bit.  The batch renders under a worker capture whose
    contents ship back in the :class:`ShardResult` (see
    :mod:`repro.obs.merge`); capture is observation-only, so the job
    partials are byte-identical whatever it records.
    """
    trace_on, metrics_on = task.obs_capture
    token = obs_merge.begin_worker_capture(
        trace=trace_on,
        metrics=metrics_on,
        process_label=f"repro fleet worker {os.getpid()}",
    )
    try:
        with obs.span(
            "shard.render_batch", first_job=task.jobs[0].index, jobs=len(task.jobs)
        ):
            partials = list(render_batch(task, _worker_node))
    finally:
        captured = obs_merge.finish_worker_capture(token)
    return ShardResult(jobs=partials, obs=captured)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
#: Batches submitted per pool worker.  A handful keeps partials arriving
#: (and the chronological fold, its checkpoints and the heartbeat
#: advancing) throughout the run without flooding the pool with
#: single-job tasks.
BATCHES_PER_WORKER = 4


def run_sharded(
    schedule: ShardTask,
    *,
    workers: int,
    fold: Callable[[JobPartial], None],
) -> bool:
    """Render a schedule's jobs across worker processes, folding chronologically.

    ``schedule`` is the whole-schedule :class:`ShardTask` the serial path
    renders in-process; it is cut into contiguous chronological batches
    of ``ceil(jobs / (BATCHES_PER_WORKER * workers))`` jobs, each a copy
    of its render parameters, submitted in order to a pool of
    ``min(workers, batches)`` processes.
    All batches share the pool's call queue and any free worker takes
    the next one, so the pool balances the work as it runs.  Batches can
    finish out of order; ``fold`` is invoked in chronological (schedule)
    order as soon as the prefix is complete — a checkpoint written
    mid-run therefore always covers an exact chronological prefix.

    Every batch comes back with an :class:`repro.obs.merge.ObsPartial`
    that is absorbed into the coordinator — the worker's account deltas
    always, spans and metrics when those layers are on: worker spans
    land in the merged Chrome trace under their own pid row, and merged
    counts equal a serial run's exactly.

    Returns False when no process pool could be started before any work
    was folded (the caller falls back to the serial path, which produces
    identical results).
    """
    tasks = schedule.jobs
    if not tasks:
        return True
    capture = obs_merge.capture_flags()
    size = math.ceil(len(tasks) / (BATCHES_PER_WORKER * workers))
    batches = [
        replace(schedule, jobs=tasks[at : at + size], obs_capture=capture)
        for at in range(0, len(tasks), size)
    ]
    width = min(workers, len(batches))
    obs.gauge_set("repro_fleet_shard_workers", width)
    order = [task.index for task in tasks]
    pending: dict[int, JobPartial] = {}
    folded = 0
    try:
        try:
            with ProcessPoolExecutor(max_workers=width) as pool:
                futures = [pool.submit(_render_shard, batch) for batch in batches]
                for future in as_completed(futures):
                    result = future.result()
                    obs_merge.absorb_partial(result.obs)
                    for partial in result.jobs:
                        pending[partial.index] = partial
                    while folded < len(order) and order[folded] in pending:
                        fold(pending.pop(order[folded]))
                        folded += 1
        except (OSError, PermissionError, ImportError) as exc:
            # Pools need fork/spawn and pipes; restricted hosts fall back
            # to the serial path — unless results were already folded, in
            # which case a retry would double-count and the error must
            # surface.
            if folded:
                raise
            logger.warning(
                "fleet process pool unavailable (%s: %s); falling back to "
                "serial rendering of %d jobs",
                type(exc).__name__,
                exc,
                len(tasks),
            )
            return False
    finally:
        # The gauge reports *live* pool width; once the run is over (or
        # dead) there are zero shard workers — leaving the last pool size
        # behind would misreport idle state to `repro obs` and scrapes.
        obs.gauge_set("repro_fleet_shard_workers", 0)
    return True


# ----------------------------------------------------------------------
# The fold and its checkpoints
# ----------------------------------------------------------------------
@dataclass
class FleetFold:
    """Everything downstream of rendering: what each job partial merges into.

    Every execution mode adds partials in chronological job order — this
    one fold is the bit-identity anchor, and its :meth:`state` is all a
    checkpoint needs.
    """

    accumulator: SystemPowerAccumulator
    #: Per-sample node-power moments across every streamed trace.
    moments: RunningMoments = field(default_factory=RunningMoments)
    chunks: int = 0
    nbytes: int = 0
    #: Chronological jobs folded, and the nodes they held.
    jobs: int = 0
    nodes: int = 0

    def add(self, partial: JobPartial) -> None:
        """Chan-merge one job's partial into the run aggregates."""
        self.accumulator.merge_partial(partial.power)
        for row in partial.moment_rows:
            self.moments.merge(RunningMoments.from_state(row))
        self.accumulator.add_busy_interval(
            partial.start_s, partial.start_s + partial.runtime_s, partial.n_nodes
        )
        self.chunks += partial.chunks
        self.nbytes += partial.nbytes
        self.jobs += 1
        self.nodes += partial.n_nodes

    def state(self) -> dict:
        """Picklable snapshot of the fold (see :meth:`restore`)."""
        return {
            "accumulator": self.accumulator.state(),
            "moments": self.moments.state(),
            "chunks": self.chunks,
            "nbytes": self.nbytes,
            "jobs": self.jobs,
            "nodes": self.nodes,
        }

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`state` snapshot (the accumulator rejects one
        taken over a different pool size, bin width or idle power)."""
        self.accumulator.restore(state["accumulator"])
        self.moments = RunningMoments.from_state(state["moments"])
        self.chunks = state["chunks"]
        self.nbytes = state["nbytes"]
        self.jobs = state["jobs"]
        self.nodes = state["nodes"]


@dataclass
class FleetCheckpoint:
    """Resumable state of a traced fleet simulation: its saved fold.

    The schedule itself is *not* stored — it is recomputed on resume
    (deterministic), and ``fingerprint``
    (:func:`repro.capping.fleet.run_fingerprint`) guards against resuming
    into a different simulation.
    Render seeds are content-derived per job, so no RNG stream state is
    needed.
    """

    version: int
    fingerprint: str
    #: :meth:`FleetFold.state` after the last folded job.
    fold: dict

    @property
    def jobs_done(self) -> int:
        """Chronological jobs the saved fold covers."""
        return self.fold["jobs"]


def save_checkpoint(path: str | Path, checkpoint: FleetCheckpoint) -> None:
    """Atomically persist a checkpoint (crash-safe: old file or new file)."""
    atomic_write_pickle(Path(path), checkpoint)
    obs.inc("repro_fleet_checkpoint_writes_total")


def load_checkpoint(path: str | Path) -> FleetCheckpoint | None:
    """Load a checkpoint; None when the file does not exist.

    Raises
    ------
    ValueError
        If the file exists but is not a compatible checkpoint.
    """
    path = Path(path)
    if not path.is_file():
        return None
    try:
        value = read_pickle(path)
    except ValueError as exc:
        raise ValueError(f"unreadable fleet checkpoint: {exc}") from exc
    if not isinstance(value, FleetCheckpoint) or value.version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path} is not a version-{CHECKPOINT_VERSION} fleet checkpoint"
        )
    obs.inc("repro_fleet_checkpoint_loads_total")
    return value
