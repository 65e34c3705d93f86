"""Fleet simulation: a production-like job stream on a node pool.

The paper's motivation is system-level: "65 % of the variation in the
system power consumption was due to temporal variation in the power used
by individual jobs" (analysis of Perlmutter, ref [14]), and power-aware
scheduling "has the potential to keep the total system power within a
prescribed budget".

This module generates a production-like stream of VASP jobs (mix weighted
toward the common DFT workloads, node counts drawn from each benchmark's
realistic range, Poisson-ish arrivals) and runs it through the
power-aware scheduler, reporting the system power timeline's statistics —
the quantities a facility watches: mean, peak, variability, throughput.
Comparing the capped policy against the uncapped baseline quantifies how
much system-power variation application-level capping removes.
"""

from __future__ import annotations

import heapq
import logging
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.config import read
from repro.capping import shard
from repro.obs import ledger as run_ledger
from repro.obs.heartbeat import POLICY_SUFFIXES, RunHeartbeat, policy_path
from repro.capping.policy import CapPolicy
from repro.capping.scheduler import (
    Job,
    PowerAwareScheduler,
    ScheduleResult,
    SchedulerConfig,
    cached_estimate_run,
)
from repro.hardware.platform import (
    DEFAULT_PLATFORM_ID,
    NodeSpec,
    Platform,
    get_platform,
)
from repro.hardware.system import (
    PerlmutterSystem,
    SystemPowerAccumulator,
    SystemPowerStats,
)
from repro.runner.cache import content_key, fingerprint
from repro.runner.engine import EngineConfig
from repro.vasp.benchmarks import BENCHMARKS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.monitor.collector import FleetMonitor

logger = logging.getLogger(__name__)

#: Seconds between a traced run's heartbeat snapshots (the terminal
#: ``done`` snapshot is always published).
HEARTBEAT_INTERVAL_S = 1.0

#: Jobs between a checkpointed run's fold snapshots (the last job is
#: always snapshotted too).
CHECKPOINT_EVERY = 64


#: The paper's capped-vs-uncapped comparison, in that order, keyed by
#: ``repro monitor --policy``: (report policy name, checkpoint/heartbeat
#: path suffix, CapPolicy constructor taking the platform).
FLEET_POLICIES: dict[str, tuple[str, str, Callable[..., CapPolicy]]] = {
    "capped": ("50% TDP policy", POLICY_SUFFIXES[0], CapPolicy.half_tdp),
    "uncapped": ("uncapped", POLICY_SUFFIXES[1], CapPolicy.uncapped),
}

#: Production-like mix weights: basic DFT dominates NERSC's VASP cycles,
#: with a meaningful share of higher-order (HSE/RPA) jobs.
DEFAULT_MIX: dict[str, float] = {
    "PdO4": 0.20,
    "PdO2": 0.20,
    "GaAsBi-64": 0.15,
    "CuC_vdw": 0.15,
    "Si256_hse": 0.12,
    "B.hR105_hse": 0.08,
    "Si128_acfdtr": 0.10,
}


def job_stream(
    n_jobs: int = 24,
    mean_interarrival_s: float = 120.0,
    mix: dict[str, float] | None = None,
    seed: int = 0,
) -> list[Job]:
    """A seeded, production-like stream of jobs.

    Arrivals are exponential (Poisson process); each job's workload is
    drawn from the mix and its node count from the workload's healthy
    range (1 .. optimal for Table I benchmarks, the model's default
    widths for other registry references).  Mix keys are workload
    references in the :func:`repro.workloads.resolve_workload` sense:
    benchmark names, model ids, or ``model:variant``.  The default
    (all-benchmark) mix draws the exact rng sequence it always has, so
    existing seeded streams are bit-identical.
    """
    from repro.workloads import resolve_widths, resolve_workload

    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if mean_interarrival_s <= 0:
        raise ValueError("mean_interarrival_s must be positive")
    weights = mix if mix is not None else DEFAULT_MIX
    for ref in set(weights) - set(BENCHMARKS):
        try:
            resolve_workload(ref)
        except KeyError as err:
            raise ValueError(f"unresolvable mix entry: {err.args[0]}") from None
    names = sorted(weights)
    probs = np.array([weights[n] for n in names], dtype=float)
    if probs.sum() <= 0:
        raise ValueError("mix weights must sum to a positive value")
    probs = probs / probs.sum()
    workloads = {ref: resolve_workload(ref) for ref in names}
    healthy = {ref: list(resolve_widths(ref)) for ref in names}

    rng = np.random.default_rng(seed)
    jobs = []
    clock = 0.0
    for index in range(n_jobs):
        name = names[int(rng.choice(len(names), p=probs))]
        n_nodes = int(rng.choice(healthy[name]))
        jobs.append(
            Job(
                job_id=f"{name}@{index}",
                workload=workloads[name],
                n_nodes=n_nodes,
                submit_s=clock,
            )
        )
        clock += float(rng.exponential(mean_interarrival_s))
    return jobs


@dataclass(frozen=True)
class FleetReport:
    """System-level outcome of one policy on one job stream."""

    policy_name: str
    schedule: ScheduleResult
    mean_power_w: float
    peak_power_w: float
    power_std_w: float
    makespan_s: float
    jobs_completed: int

    @property
    def coefficient_of_variation(self) -> float:
        """Relative temporal variability of system power."""
        return self.power_std_w / self.mean_power_w if self.mean_power_w > 0 else 0.0


@dataclass(frozen=True)
class FleetRun:
    """The inputs of one fleet simulation under one policy.

    Both entry points take one: :func:`simulate_fleet` (the analytic
    schedule) and :func:`simulate_fleet_traced` (the schedule rendered
    node by node).  A checkpoint's fingerprint covers exactly these
    fields (:func:`run_fingerprint`); how a traced run executes
    (workers, monitor, checkpoint, heartbeat) is not part of it,
    because every execution mode gives the same bits.
    """

    jobs: tuple[Job, ...]
    #: A :data:`FLEET_POLICIES` key.
    policy: str = "capped"
    n_nodes: int = 16
    #: Platforms cycled round-robin over the pool's nodes (one entry: a
    #: uniform pool).  The first drives the scheduler and the monitor.
    platforms: "tuple[str | Platform, ...]" = (DEFAULT_PLATFORM_ID,)
    #: Facility budget; None is the pool's summed node TDP (unbounded).
    power_budget_w: float | None = None
    #: System power bin width of the traced run, in seconds.
    bin_s: float = 1.0
    engine_config: EngineConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(self, "platforms", tuple(self.platforms))
        budget, config = self.power_budget_w, self.engine_config
        for ok, problem in (
            (
                self.jobs and all(isinstance(job, Job) for job in self.jobs),
                "jobs must be one or more Job records",
            ),
            (self.policy in FLEET_POLICIES, f"unknown fleet policy {self.policy!r}"),
            (self.n_nodes >= 1, f"n_nodes must be >= 1, got {self.n_nodes}"),
            (self.platforms, "platforms must name at least one platform"),
            (
                budget is None or budget > 0,
                f"power_budget_w must be positive, got {budget}",
            ),
            (self.bin_s > 0, f"bin_s must be positive, got {self.bin_s}"),
            (
                config is None or isinstance(config, EngineConfig),
                "engine_config must be an EngineConfig",
            ),
            (isinstance(self.seed, int), f"seed must be an int, got {self.seed!r}"),
        ):
            if not ok:
                raise ValueError(problem)
        for platform in self.platforms:
            try:
                get_platform(platform)
            except KeyError as err:
                raise ValueError(err.args[0]) from None

    @property
    def policy_name(self) -> str:
        """The policy's report name."""
        return FLEET_POLICIES[self.policy][0]


def run_fingerprint(run: FleetRun) -> str:
    """Content fingerprint binding a checkpoint to its run's inputs."""
    return fingerprint("fleet_checkpoint", shard.CHECKPOINT_VERSION, run)


def _schedule(run: FleetRun) -> tuple[PerlmutterSystem, ScheduleResult]:
    """The run's node pool and its analytic power-aware schedule."""
    _, _, build = FLEET_POLICIES[run.policy]
    platform = run.platforms[0]
    pool = PerlmutterSystem(n_nodes=run.n_nodes, node_platforms=run.platforms)
    budget = run.power_budget_w
    if budget is None:
        # The pool's summed node TDP: effectively unbounded.
        budget = sum(spec.tdp_w for spec in pool.node_specs())
    config = SchedulerConfig(
        n_nodes=run.n_nodes,
        power_budget_w=budget,
        policy=build(platform),
        platform=platform,
    )
    with obs.span("fleet.schedule", policy=run.policy_name, jobs=len(run.jobs)):
        schedule = PowerAwareScheduler(config).schedule(list(run.jobs))
    return pool, schedule


def simulate_fleet(run: FleetRun) -> FleetReport:
    """Schedule a stream under a policy and summarize system power.

    The power timeline is duration-weighted over scheduling-cycle samples
    (the samples are irregular when the scheduler skips quiet spans).
    """
    _, schedule = _schedule(run)
    times = np.array([t for t, _ in schedule.power_timeline])
    powers = np.array([p for _, p in schedule.power_timeline])
    if len(times) > 1:
        spans = np.diff(np.append(times, schedule.makespan_s))
        spans = np.maximum(spans, 0.0)
        total = spans.sum()
        weights = spans / total if total > 0 else np.full_like(spans, 1.0 / len(spans))
        mean = float(np.average(powers, weights=weights))
        std = float(np.sqrt(np.average((powers - mean) ** 2, weights=weights)))
    else:
        mean = float(powers.mean()) if len(powers) else 0.0
        std = 0.0
    return FleetReport(
        policy_name=run.policy_name,
        schedule=schedule,
        mean_power_w=mean,
        peak_power_w=schedule.peak_power_w,
        power_std_w=std,
        makespan_s=schedule.makespan_s,
        jobs_completed=len(schedule.records),
    )


@dataclass(frozen=True)
class FleetTraceReport:
    """System-level outcome of one policy, from streamed node traces.

    Unlike :class:`FleetReport` (analytic per-cycle projections), these
    statistics come from actually rendering every scheduled job's node
    traces and streaming them through incremental aggregation — the
    engine's noise, per-node manufacturing variability and cap responses
    are all in the numbers, yet no job's full trace is ever retained.
    """

    policy_name: str
    schedule: ScheduleResult
    system: SystemPowerStats
    #: Per-sample node-power moments across every streamed trace (Welford).
    node_power_mean_w: float
    node_power_std_w: float
    node_power_peak_w: float
    jobs_completed: int
    samples_streamed: int
    chunks_streamed: int
    bytes_streamed: int

    @property
    def mean_power_w(self) -> float:
        """Mean system power over the schedule horizon."""
        return self.system.mean_power_w

    @property
    def peak_power_w(self) -> float:
        """Peak binned system power."""
        return self.system.peak_power_w

    @property
    def power_std_w(self) -> float:
        """Temporal standard deviation of system power."""
        return self.system.power_std_w

    @property
    def makespan_s(self) -> float:
        """Makespan of the underlying schedule."""
        return self.schedule.makespan_s

    @property
    def coefficient_of_variation(self) -> float:
        """Relative temporal variability of system power."""
        return self.power_std_w / self.mean_power_w if self.mean_power_w > 0 else 0.0


def _job_seed(job_id: str, seed: int) -> int:
    """Stable per-job render seed (crc32: PYTHONHASHSEED-independent)."""
    return (zlib.crc32(job_id.encode("utf-8")) ^ seed) & 0x7FFFFFFF


def simulate_fleet_traced(
    run: FleetRun,
    *,
    workers: int | None = None,
    monitor: "FleetMonitor | None" = None,
    checkpoint: "str | Path | None" = None,
    resume: bool = False,
    heartbeat: "str | Path | None" = None,
) -> FleetTraceReport:
    """Schedule a stream, render every job's traces, aggregate streaming.

    The schedule comes from the same analytic pass as
    :func:`simulate_fleet`; the report's power statistics come from
    replaying that schedule against a real node pool
    (:class:`PerlmutterSystem` allocations, per-node variability, each
    job's cap).  Every job is rendered by one routine,
    :func:`repro.capping.shard.render_batch` — in-process over the whole
    schedule on the serial path, inside worker processes batch by batch
    on the sharded one; each batch resolves each of its phase tables
    once — into a compact :class:`repro.capping.shard.JobPartial`, and the
    partials fold in chronological job order into one
    :class:`repro.capping.shard.FleetFold` (accumulator bins, node
    moments, busy intervals) and the monitor — which is why the modes
    below are bit-identical to each other.

    ``workers`` > 1 (or ``REPRO_SWEEP_WORKERS``) shards the schedule
    across worker processes (:func:`repro.capping.shard.run_sharded`):
    contiguous chronological batches go to one process pool, whose free
    workers take the next batch; workers rebuild their nodes from
    (name, spec) and ship partials back — raw trace chunks never cross
    IPC.  Peak memory at the coordinator stays
    O(chunk) + O(makespan / bin_s) regardless of fleet size.

    ``checkpoint`` atomically snapshots the fold every
    :data:`CHECKPOINT_EVERY` jobs and after the last one;
    ``resume=True`` restores the snapshot — after validating
    :func:`run_fingerprint` of ``run`` — and continues from the next
    chronological job, producing the same bits as an uninterrupted run.
    Incompatible with ``monitor`` (monitor state is not checkpointed).

    ``heartbeat`` publishes a live, atomically-replaced JSON progress
    snapshot — jobs folded, node-weighted progress, nodes/sec, ETA,
    checkpoint age — after each folded job (throttled to
    :data:`HEARTBEAT_INTERVAL_S`).  Observation-only, like the monitor.
    Neither path defaults to an environment variable here.

    Observability composes with every mode: worker spans and metric
    updates merge into the coordinator's
    (:func:`repro.capping.shard.run_sharded`).

    ``monitor`` attaches a :class:`repro.monitor.FleetMonitor`: each job's
    render loop hands every chunk to a
    :class:`repro.monitor.collector.JobProbe`, and the fold replays the
    probe's partial in
    chronological order — the same way in every mode.  It never writes
    back; the fleet report is bit-identical with or without it.  The
    caller finalizes the monitor.

    In a mixed pool (several ``run.platforms``) each job's cap is
    clamped to each node's own GPU cap range when the job's phase table
    is resolved (:func:`repro.capping.shard.clamped_cap_w`; a clamped-up
    cap can surface as a ``cap_violation`` health signal — the node
    genuinely cannot honour the policy's cap).

    The node pool is lazy: only nodes that jobs actually touch are
    constructed (a 100k-node pool with a handful of jobs builds a
    handful of nodes); serial runs reuse each built node across jobs.
    Monitored runs materialize the whole pool (the monitor surveys every
    node's idle band).
    """
    if checkpoint is not None and monitor is not None:
        raise ValueError(
            "monitor state is not checkpointable; run monitored fleets "
            "without a checkpoint"
        )
    if resume and checkpoint is None:
        raise ValueError("resume needs a checkpoint path")
    resolved_workers = shard.resolve_fleet_workers(len(run.jobs), workers)
    run_fp = run_fingerprint(run) if checkpoint is not None else None
    policy_name, n_nodes, platform = run.policy_name, run.n_nodes, run.platforms[0]
    pool, schedule = _schedule(run)
    pool_specs = pool.node_specs()
    workloads = {job.job_id: job.workload for job in run.jobs}
    if monitor is not None:
        # The monitor surveys every node's idle band up front.
        monitor.attach_pool(pool.materialize())
    idle_node_w = sum(spec.idle_node_w for spec in pool_specs) / len(pool_specs)
    fold = shard.FleetFold(
        SystemPowerAccumulator(
            n_nodes=n_nodes, bin_s=run.bin_s, idle_node_w=idle_node_w
        )
    )
    #: (analytic end time, job id) release queue for pool bookkeeping.
    release_queue: list[tuple[float, str]] = []
    #: Uncapped runtime per (workload, width) for the monitor's slowdown
    #: accounting, memoized here too so that ``REPRO_CACHE=0`` does not
    #: re-estimate on every job start.
    nominal_cache: dict[tuple[str, int], float] = {}

    # ---- plan: replay allocations, binding each job to node *names* ----
    # No nodes are built here; the per-job renderer touches exactly the
    # nodes its job holds (the lazy pool in-process, a per-worker memo
    # when sharded), specs coming from the deduplicated spec table.
    spec_table: list[NodeSpec] = []
    spec_ids: dict[int, int] = {}
    tasks: list[shard.ShardJobTask] = []
    for index, record in enumerate(schedule.records_chronological()):
        while release_queue and release_queue[0][0] <= record.start_s + 1e-9:
            _, done = heapq.heappop(release_queue)
            pool.release(done)
        names = pool.allocate_names(record.job_id, record.n_nodes)
        heapq.heappush(release_queue, (record.end_s, record.job_id))
        indices = []
        for name in names:
            spec = pool.node_spec(name)
            at = spec_ids.get(id(spec))
            if at is None:
                at = spec_ids[id(spec)] = len(spec_table)
                spec_table.append(spec)
            indices.append(at)
        workload = workloads[record.job_id]
        nominal_s = None
        if monitor is not None:
            phase_key = (content_key(workload), record.n_nodes)
            nominal_s = nominal_cache.get(phase_key)
            if nominal_s is None:
                nominal_s = nominal_cache[phase_key] = cached_estimate_run(
                    workload, record.n_nodes, None, platform
                ).runtime_s
        tasks.append(
            shard.ShardJobTask(
                index=index,
                job_id=record.job_id,
                start_s=record.start_s,
                end_s=record.end_s,
                cap_w=record.cap_w,
                n_nodes=record.n_nodes,
                node_names=tuple(names),
                spec_indices=tuple(indices),
                workload=workload,
                seed=_job_seed(record.job_id, run.seed),
                nominal_runtime_s=nominal_s,
            )
        )
    total_jobs = len(tasks)

    beat: RunHeartbeat | None = None
    if heartbeat is not None:
        beat = RunHeartbeat(
            heartbeat,
            label=f"fleet:{policy_name}",
            jobs_total=total_jobs,
            nodes_total=sum(task.n_nodes for task in tasks),
            min_interval_s=HEARTBEAT_INTERVAL_S,
        )

    # ---- resume: adopt the saved fold, skip the chronological prefix it covers
    if resume:
        state = shard.load_checkpoint(checkpoint)
        if state is not None:
            if state.fingerprint != run_fp:
                raise ValueError(
                    f"{checkpoint} was written by a different "
                    "simulation (input fingerprint mismatch); refusing "
                    "to resume"
                )
            fold.restore(state.fold)
            tasks = tasks[fold.jobs :]
            if beat is not None:
                # Resumed jobs cost nothing this run; keep them out of
                # the nodes/sec (and therefore ETA) estimate.
                beat.resume_baseline(fold.jobs, fold.nodes)
            obs.inc("repro_fleet_jobs_resumed_total", fold.jobs)
            logger.debug(
                "resuming fleet (%s) from %s: %d/%d jobs already folded",
                policy_name,
                checkpoint,
                fold.jobs,
                total_jobs,
            )

    def on_partial(partial: shard.JobPartial) -> None:
        """Fold one job's partial, then feed the run's observers.

        Called in chronological job order by every execution mode.
        """
        fold.add(partial)
        if partial.chunks:
            obs.inc("repro_fleet_chunks_total", partial.chunks)
        if monitor is not None and partial.monitor is not None:
            monitor.absorb_job_partial(partial.monitor)
        obs.inc("repro_fleet_jobs_rendered_total")
        obs.gauge_set("repro_fleet_resident_bytes", fold.accumulator.resident_bytes)
        if checkpoint is not None and (
            fold.jobs % CHECKPOINT_EVERY == 0 or fold.jobs == total_jobs
        ):
            shard.save_checkpoint(
                checkpoint,
                shard.FleetCheckpoint(shard.CHECKPOINT_VERSION, run_fp, fold.state()),
            )
            if beat is not None:
                beat.note_checkpoint()
        if beat is not None:
            beat.update(fold.jobs, fold.nodes)

    batch = shard.ShardTask(
        specs=tuple(spec_table),
        engine_config=run.engine_config,
        bin_s=run.bin_s,
        monitor_platform=monitor.platform if monitor is not None else None,
        jobs=tuple(tasks),
    )
    with obs.span(
        "fleet.stream_traces",
        policy=policy_name,
        jobs=total_jobs,
        workers=resolved_workers,
    ):
        pooled = resolved_workers > 1 and shard.run_sharded(
            batch, workers=resolved_workers, fold=on_partial
        )
        if not pooled:
            for partial in shard.render_batch(
                batch, lambda name, _spec: pool.nodes[name]
            ):
                on_partial(partial)
    if beat is not None:
        beat.finish(fold.jobs, fold.nodes)
    system = fold.accumulator.finalize()
    logger.debug(
        "traced fleet (%s): %d jobs, %d chunks, %.1f MB streamed, peak %.0f W, "
        "%d/%d nodes built",
        policy_name,
        len(schedule.records),
        fold.chunks,
        fold.nbytes / 1e6,
        system.peak_power_w,
        pool.nodes.built_count,
        n_nodes,
    )
    run_ledger.annotate_run(
        workers=resolved_workers,
        nodes=n_nodes,
        fleet={
            policy_name: {
                "jobs": len(schedule.records),
                "pool_nodes": n_nodes,
                "workers": resolved_workers,
                "mean_power_w": round(system.mean_power_w, 3),
                "peak_power_w": round(system.peak_power_w, 3),
                "energy_j": system.energy_j,
                "makespan_s": round(schedule.makespan_s, 3),
                "chunks_streamed": fold.chunks,
                "checkpoint": str(checkpoint) if checkpoint else None,
                "resumed_jobs": (total_jobs - len(tasks)) if resume else 0,
            }
        },
    )
    return FleetTraceReport(
        policy_name=policy_name,
        schedule=schedule,
        system=system,
        node_power_mean_w=fold.moments.mean,
        node_power_std_w=fold.moments.std,
        node_power_peak_w=fold.moments.peak,
        jobs_completed=len(schedule.records),
        samples_streamed=fold.accumulator.samples_added,
        chunks_streamed=fold.chunks,
        bytes_streamed=fold.nbytes,
    )


def compare_fleet_policies_traced(
    n_jobs: int = 24,
    n_nodes: int = 16,
    power_budget_w: float | None = None,
    seed: int = 0,
    *,
    bin_s: float = 1.0,
    engine_config: EngineConfig | None = None,
    monitors: "tuple[FleetMonitor | None, FleetMonitor | None] | None" = None,
    platform: "str | Platform | None" = None,
    node_platforms: "list[str | Platform] | None" = None,
    workers: int | None = None,
    checkpoint: "str | Path | None" = None,
    resume: bool = False,
    heartbeat: "str | Path | None" = None,
    scenario: "str | object | None" = None,
) -> tuple[FleetTraceReport, FleetTraceReport]:
    """(capped, uncapped) trace-streamed fleet reports, same job stream.

    Both policies run one :class:`FleetRun` built from these arguments;
    its ``platforms`` are ``node_platforms`` (a mixed pool) or else
    ``platform``, which must otherwise be ``node_platforms[0]``.

    ``scenario`` names a registered :class:`repro.capping.scenarios.
    FleetScenario` (or passes one directly): the job stream then comes
    from ``scenario.build_jobs(seed)`` — its arrival process, workload
    mix and failure drains — instead of the default :func:`job_stream`,
    and ``n_jobs`` is ignored (the scenario fixes its own job count).
    The caller remains responsible for aligning ``n_nodes`` /
    ``node_platforms`` with the scenario's pool (the CLI does this).

    ``monitors`` optionally attaches one :class:`repro.monitor.FleetMonitor`
    per policy, ``(capped, uncapped)`` — each policy replays the same job
    ids, so the two runs cannot share a single ledger.  Callers finalize.

    ``workers``/``checkpoint``/``resume``/``heartbeat`` pass through to
    :func:`simulate_fleet_traced`; this is the one reader of their
    defaults, ``REPRO_FLEET_CHECKPOINT`` and ``REPRO_FLEET_HEARTBEAT``.
    The two policies are distinct simulations, so each base path gets a
    per-policy suffix (:data:`FLEET_POLICIES`).
    """
    base = read("REPRO_FLEET_CHECKPOINT", checkpoint)
    beat_base = read("REPRO_FLEET_HEARTBEAT", heartbeat)
    platforms = tuple(node_platforms or (platform or DEFAULT_PLATFORM_ID,))
    if platform is not None and get_platform(platform) != get_platform(platforms[0]):
        raise ValueError("platform must be the first of node_platforms")
    if scenario is not None:
        from repro.capping.scenarios import get_scenario

        jobs = get_scenario(scenario).build_jobs(seed=seed)
    else:
        jobs = job_stream(n_jobs=n_jobs, seed=seed)
    run = FleetRun(
        jobs, "capped", n_nodes, platforms, power_budget_w, bin_s, engine_config, seed
    )
    reports = []
    for index, (key, (_, suffix, _)) in enumerate(FLEET_POLICIES.items()):
        reports.append(
            simulate_fleet_traced(
                replace(run, policy=key),
                workers=workers,
                monitor=monitors[index] if monitors is not None else None,
                checkpoint=policy_path(base, suffix),
                resume=resume,
                heartbeat=policy_path(beat_base, suffix),
            )
        )
    return reports[0], reports[1]


def compare_fleet_policies(
    n_jobs: int = 24,
    n_nodes: int = 16,
    power_budget_w: float | None = None,
    seed: int = 0,
    platform: "str | Platform | None" = None,
) -> tuple[FleetReport, FleetReport]:
    """(capped, uncapped) fleet reports for the same job stream."""
    run = FleetRun(
        job_stream(n_jobs=n_jobs, seed=seed),
        n_nodes=n_nodes,
        platforms=(platform or DEFAULT_PLATFORM_ID,),
        power_budget_w=power_budget_w,
        seed=seed,
    )
    return simulate_fleet(run), simulate_fleet(replace(run, policy="uncapped"))
