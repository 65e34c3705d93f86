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
from dataclasses import dataclass
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
from repro.hardware.platform import NodeSpec, Platform, get_platform
from repro.hardware.system import (
    PerlmutterSystem,
    SystemPowerAccumulator,
    SystemPowerStats,
)
from repro.runner.cache import content_key
from repro.runner.engine import EngineConfig
from repro.runner.sweep import SweepExecutor
from repro.vasp.benchmarks import BENCHMARKS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.monitor.collector import FleetMonitor

logger = logging.getLogger(__name__)

#: Seconds between a traced run's heartbeat snapshots (the terminal
#: ``done`` snapshot is always published).
HEARTBEAT_INTERVAL_S = 1.0


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


def simulate_fleet(
    jobs: list[Job],
    policy: CapPolicy,
    policy_name: str,
    n_nodes: int = 16,
    power_budget_w: float | None = None,
    platform: "str | Platform | None" = None,
) -> FleetReport:
    """Schedule a stream under a policy and summarize system power.

    The power timeline is duration-weighted over scheduling-cycle samples
    (the samples are irregular when the scheduler skips quiet spans).
    """
    if power_budget_w is None:
        # Node TDP: effectively unbounded.
        power_budget_w = n_nodes * get_platform(platform).node.tdp_w
    config = SchedulerConfig(
        n_nodes=n_nodes,
        power_budget_w=power_budget_w,
        policy=policy,
        platform=platform,
    )
    logger.debug(
        "simulating fleet: policy=%s, %d jobs on %d nodes, budget %.0f W",
        policy_name,
        len(jobs),
        n_nodes,
        power_budget_w,
    )
    with obs.span("fleet.simulate", policy=policy_name, jobs=len(jobs)):
        schedule = PowerAwareScheduler(config).schedule(list(jobs))
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
        policy_name=policy_name,
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
    jobs: list[Job],
    policy: CapPolicy,
    policy_name: str,
    n_nodes: int = 16,
    power_budget_w: float | None = None,
    *,
    bin_s: float = 1.0,
    engine_config: EngineConfig | None = None,
    seed: int = 0,
    monitor: "FleetMonitor | None" = None,
    platform: "str | Platform | None" = None,
    node_platforms: "list[str | Platform | NodeSpec] | None" = None,
    workers: int | None = None,
    checkpoint: "str | Path | None" = None,
    checkpoint_every: int = 64,
    resume: bool = False,
    heartbeat: "str | Path | None" = None,
) -> FleetTraceReport:
    """Schedule a stream, render every job's traces, aggregate streaming.

    The schedule comes from the same analytic :class:`PowerAwareScheduler`
    pass as :func:`simulate_fleet`; the report's power statistics come
    from replaying that schedule against a real node pool
    (:class:`PerlmutterSystem` allocations, per-node variability, cap
    state).  Every job is rendered by one routine,
    :func:`repro.capping.shard.render_task_job` — in-process job by job
    on the serial path, inside worker processes on the sharded one —
    into a compact :class:`repro.capping.shard.JobPartial`, and the
    partials fold in chronological job order into one
    :class:`repro.capping.shard.FleetFold` (accumulator bins, node
    moments, busy intervals) and the monitor — which is why the modes
    below are bit-identical to each other.

    ``workers`` > 1 (or ``REPRO_SWEEP_WORKERS``) shards the schedule
    across worker processes (:func:`repro.capping.shard.run_sharded`):
    jobs are balanced by platform-aware render cost, workers rebuild
    their nodes from (name, spec) and ship partials back — raw trace
    chunks never cross IPC.  Peak memory at the coordinator stays
    O(chunk) + O(makespan / bin_s) regardless of fleet size.

    ``checkpoint`` (or ``REPRO_FLEET_CHECKPOINT``) atomically snapshots
    the fold every ``checkpoint_every`` jobs and after the last one;
    ``resume=True`` restores the snapshot — after validating a content
    fingerprint of the simulation inputs — and continues from the next
    chronological job, producing the same bits as an uninterrupted run.
    Incompatible with ``monitor`` (monitor state is not checkpointed).

    ``heartbeat`` (or ``REPRO_FLEET_HEARTBEAT``) publishes a live,
    atomically-replaced JSON progress snapshot — jobs folded,
    node-weighted progress, nodes/sec, ETA, checkpoint age — after each
    folded job (throttled to :data:`HEARTBEAT_INTERVAL_S`).
    Observation-only, like the monitor.

    Observability composes with every mode: sharded workers capture
    their spans and metric updates into a fresh per-process state and
    ship an :class:`repro.obs.merge.ObsPartial` back with their job
    partials, which the coordinator folds into the live tracer and
    registry — the merged Chrome trace carries one row per worker pid,
    and merged counter totals equal a serial run's exactly.

    ``monitor`` attaches a :class:`repro.monitor.FleetMonitor`: each job
    renders with a :class:`repro.monitor.collector.JobProbe` on its
    engine stream, and the fold replays the probe's partial in
    chronological order — the same way in every mode.  It never writes back; the fleet report is
    bit-identical with or without it.  The caller finalizes the monitor.

    ``platform`` selects the hardware platform for the whole pool;
    ``node_platforms`` instead builds a *mixed* pool, cycling the given
    platforms/specs round-robin across nodes.  In a mixed pool each
    node's cap is clamped to its own GPU's supported range before being
    applied (a clamped-up cap can surface as a ``cap_violation`` health
    signal — the node genuinely cannot honour the policy's cap).

    The node pool is lazy: only nodes that jobs actually touch are
    constructed (a 100k-node pool with a handful of jobs builds a
    handful of nodes); serial runs reuse each built node across jobs.
    Monitored runs materialize the whole pool (the monitor surveys every
    node's idle band).
    """
    resolved_workers = shard.resolve_fleet_workers(len(jobs), workers)
    checkpoint_path = read("REPRO_FLEET_CHECKPOINT", checkpoint)
    if checkpoint_path is not None and monitor is not None:
        raise ValueError(
            "monitor state is not checkpointable; run monitored fleets "
            "without checkpoint="
        )
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if resume and checkpoint_path is None:
        raise ValueError(
            "resume=True requires checkpoint= (or REPRO_FLEET_CHECKPOINT)"
        )
    run_fp = None
    if checkpoint_path is not None:
        run_fp = shard.run_fingerprint(
            jobs,
            policy,
            policy_name,
            n_nodes,
            power_budget_w,
            bin_s,
            engine_config,
            seed,
            get_platform(platform).id,
            node_platforms,
        )
    pool = PerlmutterSystem(
        n_nodes=n_nodes, platform=platform, node_platforms=node_platforms
    )
    pool_specs = pool.node_specs()
    if power_budget_w is None:
        # Node TDP: effectively unbounded.
        power_budget_w = sum(spec.tdp_w for spec in pool_specs)
    config = SchedulerConfig(
        n_nodes=n_nodes,
        power_budget_w=power_budget_w,
        policy=policy,
        platform=platform,
    )
    with obs.span("fleet.schedule_traced", policy=policy_name, jobs=len(jobs)):
        schedule = PowerAwareScheduler(config).schedule(list(jobs))
    workloads = {job.job_id: job.workload for job in jobs}
    if monitor is not None:
        # The monitor surveys every node's idle band up front.
        monitor.attach_pool(pool.materialize())
    idle_node_w = sum(spec.idle_node_w for spec in pool_specs) / len(pool_specs)
    fold = shard.FleetFold(
        SystemPowerAccumulator(n_nodes=n_nodes, bin_s=bin_s, idle_node_w=idle_node_w)
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
                seed=_job_seed(record.job_id, seed),
                nominal_runtime_s=nominal_s,
            )
        )
    for _, job_id in release_queue:
        pool.release(job_id)
    total_jobs = len(tasks)

    heartbeat_path = read("REPRO_FLEET_HEARTBEAT", heartbeat)
    beat: RunHeartbeat | None = None
    if heartbeat_path is not None:
        beat = RunHeartbeat(
            heartbeat_path,
            label=f"fleet:{policy_name}",
            jobs_total=total_jobs,
            nodes_total=sum(task.n_nodes for task in tasks),
            min_interval_s=HEARTBEAT_INTERVAL_S,
        )

    # ---- resume: adopt the saved fold, skip the chronological prefix it covers
    if resume:
        state = shard.load_checkpoint(checkpoint_path)
        if state is not None:
            if state.fingerprint != run_fp:
                raise ValueError(
                    f"{checkpoint_path} was written by a different "
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
                checkpoint_path,
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
        if checkpoint_path is not None and (
            fold.jobs % checkpoint_every == 0 or fold.jobs == total_jobs
        ):
            shard.save_checkpoint(
                checkpoint_path,
                shard.FleetCheckpoint(shard.CHECKPOINT_VERSION, run_fp, fold.state()),
            )
            if beat is not None:
                beat.note_checkpoint()
        if beat is not None:
            beat.update(fold.jobs, fold.nodes)

    batch = shard.ShardTask(
        shard_index=0,
        specs=tuple(spec_table),
        engine_config=engine_config,
        bin_s=bin_s,
        monitor_config=monitor.config if monitor is not None else None,
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
            for job in batch.jobs:
                on_partial(
                    shard.render_task_job(
                        job, batch, lambda name, _spec: pool.nodes[name]
                    )
                )
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
                "checkpoint": str(checkpoint_path) if checkpoint_path else None,
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
    node_platforms: "list[str | Platform | NodeSpec] | None" = None,
    workers: int | None = None,
    checkpoint: "str | Path | None" = None,
    checkpoint_every: int = 64,
    resume: bool = False,
    heartbeat: "str | Path | None" = None,
    scenario: "str | object | None" = None,
) -> tuple[FleetTraceReport, FleetTraceReport]:
    """(capped, uncapped) trace-streamed fleet reports, same job stream.

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
    :func:`simulate_fleet_traced`.  The two policies are distinct
    simulations, so the checkpoint and heartbeat base paths (argument or
    ``REPRO_FLEET_CHECKPOINT`` / ``REPRO_FLEET_HEARTBEAT``) get a
    per-policy suffix (:data:`FLEET_POLICIES`) — resolved here so both
    policies don't fight over the env-provided path.
    """
    base = read("REPRO_FLEET_CHECKPOINT", checkpoint)
    beat_base = read("REPRO_FLEET_HEARTBEAT", heartbeat)
    if scenario is not None:
        from repro.capping.scenarios import get_scenario

        scenario = get_scenario(scenario)
    reports = []
    for index, (policy_name, suffix, build) in enumerate(FLEET_POLICIES.values()):
        jobs = (
            scenario.build_jobs(seed=seed)
            if scenario is not None
            else job_stream(n_jobs=n_jobs, seed=seed)
        )
        reports.append(
            simulate_fleet_traced(
                jobs,
                build(platform),
                policy_name,
                n_nodes,
                power_budget_w,
                bin_s=bin_s,
                engine_config=engine_config,
                seed=seed,
                monitor=monitors[index] if monitors is not None else None,
                platform=platform,
                node_platforms=node_platforms,
                workers=workers,
                checkpoint=policy_path(base, suffix),
                checkpoint_every=checkpoint_every,
                resume=resume,
                heartbeat=policy_path(beat_base, suffix),
            )
        )
    return reports[0], reports[1]


def _policy_task(
    task: tuple[str, int, int, float | None, int, str]
) -> FleetReport:
    """Worker-side task: one policy over a regenerated job stream.

    The stream is rebuilt from ``seed`` inside the worker (cheap and
    deterministic), so only this small task tuple crosses the pool
    boundary (the policy travels as its :data:`FLEET_POLICIES` key, the
    platform as its registry id).
    """
    key, n_jobs, n_nodes, power_budget_w, seed, platform_id = task
    policy_name, _, build = FLEET_POLICIES[key]
    jobs = job_stream(n_jobs=n_jobs, seed=seed)
    return simulate_fleet(
        jobs, build(platform_id), policy_name, n_nodes, power_budget_w, platform_id
    )


def compare_fleet_policies(
    n_jobs: int = 24,
    n_nodes: int = 16,
    power_budget_w: float | None = None,
    seed: int = 0,
    platform: "str | Platform | None" = None,
) -> tuple[FleetReport, FleetReport]:
    """(capped, uncapped) fleet reports for the same job stream.

    The two policies are independent simulations over the same seeded
    stream, so they execute as one two-task sweep.
    """
    platform_id = get_platform(platform).id
    tasks = [
        (key, n_jobs, n_nodes, power_budget_w, seed, platform_id)
        for key in FLEET_POLICIES
    ]
    capped, uncapped = SweepExecutor().map(_policy_task, tasks)
    return capped, uncapped
