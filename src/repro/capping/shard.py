"""Sharded execution and checkpointing for the traced fleet simulation.

A 100k-node fleet cannot be rendered by one Python process in useful
time, and a week-long-horizon simulation should not restart from zero
after an interruption.  This layer extends the ``REPRO_SWEEP_WORKERS``
machinery of :mod:`repro.runner.sweep` to the fleet path:

* The coordinator plans the whole schedule (allocation replay binds each
  job to node *names* — no node objects are built), balances the jobs
  across shards by per-node render cost (platform-aware, so mixed
  ``node_platforms`` pools split evenly), and each worker process
  rebuilds its jobs' nodes from (name, spec) and renders them through
  :func:`render_task_job` — the same per-job routine serial runs call
  in-process.
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
from typing import TYPE_CHECKING, Callable, Sequence

from repro import obs
from repro.config import read
from repro.obs import merge as obs_merge
from repro.hardware.node import GpuNode
from repro.hardware.platform import NodeSpec
from repro.hardware.system import (
    JobPowerPartial,
    RunningMoments,
    SystemPowerAccumulator,
)
from repro.runner.cache import (
    atomic_write_pickle,
    cached_phases,
    fingerprint,
    read_pickle,
)
from repro.runner.engine import EngineConfig, PowerEngine
from repro.vasp.workload import VaspWorkload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.monitor.collector import JobMonitorPartial, MonitorConfig

logger = logging.getLogger(__name__)

#: On-disk checkpoint format version.
CHECKPOINT_VERSION = 3


def resolve_fleet_workers(n_jobs: int, workers: int | None = None) -> int:
    """Fleet worker count: explicit arg > ``REPRO_SWEEP_WORKERS`` > serial.

    Unlike grid sweeps (which size themselves to the host), the fleet
    stays serial unless parallelism is asked for — the serial path *is*
    the reference output, and small fleets don't amortize pool startup.
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
    #: Per-node indices into the shard's spec table.
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

    shard_index: int
    specs: tuple[NodeSpec, ...]
    engine_config: EngineConfig | None
    bin_s: float
    monitor_config: "MonitorConfig | None"
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


def render_task_job(
    job: ShardJobTask,
    task: ShardTask,
    node_for: Callable[[str, NodeSpec], GpuNode],
) -> JobPartial:
    """Render one scheduled job's traces and reduce them to a :class:`JobPartial`.

    The only way a fleet job is rendered: serial runs call it in-process
    job by job, shard workers call it for every job of a batch — which
    is what makes the modes bit-identical.  ``node_for(name, spec)``
    supplies the job's nodes (the pool's lazy map in-process, the
    per-process memo in workers); a node's only per-job state, its GPU
    cap, is set here before every render.  Phase lists come from the
    process's content-keyed phase store
    (:func:`repro.runner.cache.cached_phases`).  Monitored runs
    (``task.monitor_config``) observe the stream through a
    :class:`repro.monitor.collector.JobProbe` whose partial rides home
    on the job partial.
    """
    specs = [task.specs[i] for i in job.spec_indices]
    nodes = [node_for(name, spec) for name, spec in zip(job.node_names, specs)]
    for node in nodes:
        # A mixed pool may contain GPUs whose supported cap range does
        # not include the policy's cap; clamp per node.
        node.set_gpu_power_limit(clamped_cap_w(job.cap_w, node.spec))
    phases = cached_phases(job.workload, job.n_nodes)
    engine = PowerEngine(nodes, task.engine_config)
    probe = None
    if task.monitor_config is not None:
        from repro.monitor.collector import JobProbe, node_idle_bands

        probe = JobProbe(
            task.monitor_config,
            job_id=job.job_id,
            n_nodes=job.n_nodes,
            cap_w=job.cap_w,
            start_s=job.start_s,
            end_s=job.end_s,
            nominal_runtime_s=job.nominal_runtime_s,
            node_bands=node_idle_bands(
                task.monitor_config, zip(job.node_names, specs)
            ),
        )
    # The fold reads node rows only; a probe also reads the GPU rows.
    streamed = engine.stream(
        phases,
        label=job.job_id,
        seed=job.seed,
        on_chunk=(
            probe.tap(engine.config.base_interval_s) if probe is not None else None
        ),
        components=probe.COMPONENTS if probe is not None else ("node",),
    )
    power = JobPowerPartial(start_s=job.start_s, bin_s=task.bin_s)
    moment_rows: list[tuple] = []
    chunks = 0
    nbytes = 0
    dt = streamed.base_interval_s
    for chunk in streamed.chunks:
        if chunk.component != "node":
            continue
        power.add_samples(job.start_s, chunk.times, chunk.values, dt)
        moment_rows.append(RunningMoments.from_batch(chunk.values).state())
        chunks += 1
        nbytes += int(chunk.values.nbytes)
    power.trim()
    return JobPartial(
        index=job.index,
        job_id=job.job_id,
        start_s=job.start_s,
        n_nodes=job.n_nodes,
        runtime_s=streamed.runtime_s,
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
            "shard.render_batch", shard=task.shard_index, jobs=len(task.jobs)
        ):
            partials = [
                render_task_job(job, task, _worker_node)
                for job in task.jobs
            ]
    finally:
        captured = obs_merge.finish_worker_capture(token)
    return ShardResult(jobs=partials, obs=captured)


# ----------------------------------------------------------------------
# Shard planning and dispatch
# ----------------------------------------------------------------------
def estimate_task_cost(task: ShardJobTask, specs: Sequence[NodeSpec]) -> float:
    """Relative render cost of one job (for shard balancing).

    Samples scale with scheduled duration; streams per node with the
    node's component count (cpu + memory + node + its GPUs), which is
    what makes mixed-platform pools balance by real work, not job count.
    """
    duration = max(task.end_s - task.start_s, 1.0)
    streams = sum(3 + specs[i].gpus_per_node for i in task.spec_indices)
    return duration * streams


def plan_shards(
    tasks: Sequence[ShardJobTask],
    specs: Sequence[NodeSpec],
    n_shards: int,
) -> list[list[ShardJobTask]]:
    """Balance jobs across shards (LPT greedy on estimated render cost).

    Deterministic: ties break on chronological index, and each shard's
    slice is returned in chronological order.  Empty shards are dropped.
    """
    n_shards = max(min(n_shards, len(tasks)), 1)
    costs = [estimate_task_cost(task, specs) for task in tasks]
    order = sorted(range(len(tasks)), key=lambda i: (-costs[i], i))
    loads = [0.0] * n_shards
    members: list[list[ShardJobTask]] = [[] for _ in range(n_shards)]
    for i in order:
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        loads[target] += costs[i]
        members[target].append(tasks[i])
    for slice_ in members:
        slice_.sort(key=lambda task: task.index)
    return [slice_ for slice_ in members if slice_]


def default_batch_jobs(
    n_tasks: int, n_shards: int, target_batches: int = 4
) -> int:
    """Jobs per submitted batch (aim ``target_batches`` per shard).

    Batching trades a little IPC overhead for steady coordinator-side
    progress: with whole-shard futures the chronological fold — and with
    it checkpoints and the heartbeat — only advances when an entire
    shard completes.  A handful of batches per shard keeps partials
    arriving throughout the run without flooding the pool with
    single-job tasks.
    """
    return max(1, math.ceil(n_tasks / max(n_shards * target_batches, 1)))


def run_sharded(
    schedule: ShardTask,
    *,
    workers: int,
    fold: Callable[[JobPartial], None],
    batch_jobs: int | None = None,
) -> bool:
    """Render a schedule's jobs across worker processes, folding chronologically.

    ``schedule`` is the whole-schedule :class:`ShardTask` the serial path
    renders in-process; every worker batch copies its render parameters.
    ``fold`` is invoked in chronological (schedule) order as soon as the
    prefix is complete — a checkpoint written mid-run therefore always
    covers an exact chronological prefix.  Each shard's slice is
    submitted as several chronological batches (``batch_jobs`` jobs
    each), interleaved round-robin across shards, so early-schedule
    partials arrive early and the fold advances steadily.

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
    shards = plan_shards(tasks, schedule.specs, workers)
    capture = obs_merge.capture_flags()
    if batch_jobs is None:
        batch_jobs = default_batch_jobs(len(tasks), len(shards))
    per_shard_batches: list[list[ShardTask]] = []
    for i, slice_ in enumerate(shards):
        per_shard_batches.append(
            [
                replace(
                    schedule,
                    shard_index=i,
                    jobs=tuple(slice_[at : at + batch_jobs]),
                    obs_capture=capture,
                )
                for at in range(0, len(slice_), batch_jobs)
            ]
        )
    # Round-robin across shards: every shard's chronologically-earliest
    # batch is in flight first, so the fold's prefix completes early.
    rounds = max(len(batches) for batches in per_shard_batches)
    ordered = [
        batches[round_index]
        for round_index in range(rounds)
        for batches in per_shard_batches
        if round_index < len(batches)
    ]
    obs.gauge_set("repro_fleet_shard_workers", len(shards))
    expected = sorted(task.index for task in tasks)
    pending: dict[int, JobPartial] = {}
    folded = 0
    try:
        try:
            with ProcessPoolExecutor(max_workers=len(shards)) as pool:
                futures = [pool.submit(_render_shard, st) for st in ordered]
                for future in as_completed(futures):
                    result = future.result()
                    obs_merge.absorb_partial(result.obs)
                    for partial in result.jobs:
                        pending[partial.index] = partial
                    while folded < len(expected) and expected[folded] in pending:
                        fold(pending.pop(expected[folded]))
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
    (deterministic), and ``fingerprint`` (over jobs, policy, pool and
    engine inputs) guards against resuming into a different simulation.
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


def run_fingerprint(*parts) -> str:
    """Content fingerprint binding a checkpoint to its simulation inputs."""
    return fingerprint("fleet_checkpoint", CHECKPOINT_VERSION, *parts)


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
