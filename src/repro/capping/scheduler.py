"""A power-aware batch scheduler driven by application power profiles.

Implements the Section VI-A deployment story: each scheduling cycle
(30 s), the batch system classifies queued VASP jobs from their input
files, applies the cap policy to the job's GPUs at launch, and admits jobs
only while the projected facility power stays inside the budget.  Because
capped jobs draw less power, the policy lets more jobs run concurrently
under a tight budget — trading a small, workload-dependent slowdown
(quantified in Fig 12) for throughput.

The scheduler uses a fast analytic estimator (phase durations and DVFS
slowdowns, no trace rendering) so thousands of jobs schedule in
milliseconds.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.config import read
from repro.hardware.gpu import GpuModel
from repro.hardware.platform import Platform, get_platform
from repro.hardware.variability import ManufacturingVariation
from repro.perfmodel.power import demand_power_w, duty_cycle_power_w
from repro.runner.cache import RunCache, cached_phases, content_key, process_cache
from repro.vasp.workload import VaspWorkload
from repro.capping.policy import CapPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.prediction.model import TwoStageSurrogate

#: Non-GPU node power while a VASP job runs (CPU + DDR + NICs + board at
#: typical activity) on the default a100-40g platform.  Kept as a module
#: constant for callers that want the paper's number; platform-aware code
#: reads ``NodeSpec.host_power_w`` instead.
HOST_POWER_W: float = get_platform().node.host_power_w
#: Idle power of an unallocated a100-40g node (mid-range of the 410-510 W
#: window).  Platform-aware code reads ``NodeSpec.idle_node_w``.
IDLE_NODE_W: float = get_platform().node.idle_node_w


@dataclass(frozen=True)
class RunEstimate:
    """Analytic runtime/power estimate for one job at one cap."""

    runtime_s: float
    mean_node_power_w: float
    peak_node_power_w: float

    @property
    def energy_per_node_j(self) -> float:
        """Mean energy one node spends over the run."""
        return self.runtime_s * self.mean_node_power_w


def estimate_run(
    workload: VaspWorkload,
    n_nodes: int,
    cap_w: float | None = None,
    platform: "str | Platform | None" = None,
) -> RunEstimate:
    """Estimate runtime and node power for a job under a GPU power cap.

    Uses a nominal (variation-free) GPU so estimates are deterministic —
    this is what a scheduler could precompute per workload class.  The
    GPU model, GPU count and host power come from ``platform`` (None
    means the registry default, a100-40g).
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    node_spec = get_platform(platform).node
    gpu = GpuModel(
        serial="NOMINAL",
        spec=node_spec.gpu,
        variation=ManufacturingVariation.nominal(),
    )
    if cap_w is not None:
        gpu.set_power_limit(cap_w)
    phases = cached_phases(workload, n_nodes)
    total_time = 0.0
    total_energy = 0.0
    peak = 0.0
    gpus_per_node = node_spec.gpus_per_node
    for phase in phases:
        profile = phase.gpu_profile
        if profile.duty_cycle <= 0.0:
            gpu_w = gpu.idle_power_w
            duration = phase.duration_s
        else:
            demand = demand_power_w(profile, gpu.envelope)
            sample = gpu.resolve_phase(demand, profile.compute_fraction)
            gpu_w = duty_cycle_power_w(
                sample.power_w, profile.duty_cycle, gpu.idle_power_w
            )
            duration = phase.duration_s * (
                profile.duty_cycle * sample.slowdown + (1.0 - profile.duty_cycle)
            )
        node_w = gpus_per_node * gpu_w + node_spec.host_power_w
        total_time += duration
        total_energy += duration * node_w
        peak = max(peak, node_w)
    mean_power = total_energy / total_time if total_time > 0 else node_spec.idle_node_w
    return RunEstimate(
        runtime_s=total_time, mean_node_power_w=mean_power, peak_node_power_w=peak
    )


logger = logging.getLogger(__name__)

#: Memoized estimates: scheduling cycles re-estimate the same (workload,
#: nodes, cap) triples thousands of times, and the estimator is pure.
_ESTIMATE_CACHE = process_cache(__name__, RunCache(maxsize=1024, name="estimate"))


def estimate_cache() -> RunCache:
    """The process-wide cache behind :func:`cached_estimate_run`."""
    return _ESTIMATE_CACHE


def cached_estimate_run(
    workload: VaspWorkload,
    n_nodes: int,
    cap_w: float | None = None,
    platform: "str | Platform | None" = None,
) -> RunEstimate:
    """Content-keyed memoization of :func:`estimate_run`.

    The estimator is deterministic (nominal GPU, no sampling), so the
    result is fully identified by the workload's content key, node
    count, cap and platform id — estimates for different platforms never
    collide.  ``REPRO_CACHE=0`` bypasses the cache.
    """
    if not read("REPRO_CACHE"):
        return estimate_run(workload, n_nodes, cap_w, platform)
    plat = get_platform(platform)
    key = (content_key(workload), n_nodes, cap_w, plat.id)
    return _ESTIMATE_CACHE.get_or_compute(
        key, lambda: estimate_run(workload, n_nodes, cap_w, plat)
    )


@dataclass
class Job:
    """One queued job (any workload from the registry zoo)."""

    job_id: str
    workload: object
    n_nodes: int
    submit_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.submit_s < 0:
            raise ValueError(f"submit_s must be >= 0, got {self.submit_s}")


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one job in a schedule."""

    job_id: str
    start_s: float
    end_s: float
    n_nodes: int
    cap_w: float
    mean_node_power_w: float

    @property
    def runtime_s(self) -> float:
        """Wall time of the job."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler knobs: pool size, budget, cycle length, policy."""

    n_nodes: int = 16
    power_budget_w: float = 16 * 1200.0
    cycle_s: float = 30.0
    policy: CapPolicy = field(default_factory=CapPolicy.half_tdp)
    #: Hardware platform the pool runs on (None = registry default).
    platform: "str | Platform | None" = None
    #: Learned fast path for admission estimates.  In-envelope
    #: predictions replace the analytic estimator; out-of-envelope jobs
    #: (and ``REPRO_SURROGATE=0``) fall back to it, counted in the
    #: ``repro_surrogate_*`` metrics.  None = analytic only.
    surrogate: "TwoStageSurrogate | None" = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.power_budget_w <= 0:
            raise ValueError("power_budget_w must be positive")
        if self.cycle_s <= 0:
            raise ValueError("cycle_s must be positive")


@dataclass
class ScheduleResult:
    """A completed schedule with its power timeline."""

    records: list[JobRecord]
    makespan_s: float
    #: (cycle start time, projected system power) samples.
    power_timeline: list[tuple[float, float]]
    peak_power_w: float
    budget_w: float

    @property
    def budget_respected(self) -> bool:
        """True when projected power never exceeded the budget."""
        return self.peak_power_w <= self.budget_w + 1e-9

    def total_node_seconds(self) -> float:
        """Aggregate node-seconds consumed."""
        return sum(r.runtime_s * r.n_nodes for r in self.records)

    def records_chronological(self) -> list[JobRecord]:
        """Records ordered by start time (ties broken by job id).

        The order a trace-streaming replay must process jobs in so node
        allocations mirror the schedule.
        """
        return sorted(self.records, key=lambda r: (r.start_s, r.job_id))


class PowerAwareScheduler:
    """FCFS-with-backfill scheduler under a facility power budget."""

    def __init__(self, config: SchedulerConfig) -> None:
        self.config = config
        #: Per-scheduler memo of surrogate admission estimates — cycles
        #: re-estimate the same (workload, nodes, cap) triples, and the
        #: analytic path has :func:`cached_estimate_run` for the same
        #: reason.
        self._admission_memo: dict[
            tuple[str, int, float | None], RunEstimate | None
        ] = {}

    def _admission_estimate(
        self,
        workload: VaspWorkload,
        n_nodes: int,
        cap_w: float | None,
        plat: Platform,
    ) -> RunEstimate:
        """Admission estimate: surrogate fast path, analytic fallback.

        The surrogate answers from scheduler-visible features in ~0.1 ms;
        anything out of its training envelope (or an unset/disabled
        surrogate) uses the exact analytic estimator instead, so admission
        decisions never rest on an extrapolated prediction.
        """
        surrogate = self.config.surrogate
        if surrogate is not None:
            if read("REPRO_SURROGATE"):
                key = (content_key(workload), n_nodes, cap_w)
                if key not in self._admission_memo:
                    prediction = surrogate.predict(workload, n_nodes, cap_w, plat.id)
                    # Out-of-envelope memoizes as None so the fallback
                    # decision (and its metric) is made once per triple,
                    # not once per scheduling cycle.
                    self._admission_memo[key] = (
                        RunEstimate(
                            runtime_s=prediction.runtime_s,
                            mean_node_power_w=prediction.mean_node_power_w,
                            peak_node_power_w=prediction.hpm_w,
                        )
                        if prediction.in_envelope
                        else None
                    )
                estimate = self._admission_memo[key]
                if estimate is not None:
                    return estimate
        return cached_estimate_run(workload, n_nodes, cap_w, plat)

    def schedule(self, jobs: list[Job]) -> ScheduleResult:
        """Run the full schedule for a job list.

        Jobs are considered FCFS in submit order; a job that does not fit
        (nodes or power) blocks only itself — later jobs may backfill.
        """
        with obs.span(
            "scheduler.schedule", jobs=len(jobs), n_nodes=self.config.n_nodes
        ) as sched_span:
            result = self._schedule_inner(jobs)
            sched_span.annotate(
                makespan_s=result.makespan_s, cycles=len(result.power_timeline)
            )
        obs.inc("repro_scheduler_jobs_total", len(jobs))
        obs.inc("repro_scheduler_cycles_total", len(result.power_timeline))
        logger.debug(
            "scheduled %d jobs in %d cycles; makespan %.0f s, peak %.0f W",
            len(jobs),
            len(result.power_timeline),
            result.makespan_s,
            result.peak_power_w,
        )
        return result

    def _schedule_inner(self, jobs: list[Job]) -> ScheduleResult:
        cfg = self.config
        plat = get_platform(cfg.platform)
        idle_node_w = plat.node.idle_node_w
        queue = sorted(jobs, key=lambda j: (j.submit_s, j.job_id))
        free_nodes = cfg.n_nodes
        running: list[tuple[float, str, int, float]] = []  # (end, id, nodes, power)
        records: list[JobRecord] = []
        power_timeline: list[tuple[float, float]] = []
        peak_power = 0.0
        now = 0.0
        pending = list(queue)
        max_cycles = 10_000_000
        cycles = 0
        while pending or running:
            cycles += 1
            if cycles > max_cycles:
                raise RuntimeError("scheduler exceeded cycle limit; check job sizes")
            # Complete finished jobs.
            while running and running[0][0] <= now + 1e-9:
                _, _, nodes, _ = heapq.heappop(running)
                free_nodes += nodes
            running_power = sum(p * n for _, _, n, p in running)
            # Try to start pending jobs (FCFS with backfill).
            still_pending: list[Job] = []
            for job in pending:
                if job.submit_s > now + 1e-9:
                    still_pending.append(job)
                    continue
                if job.n_nodes > cfg.n_nodes:
                    raise ValueError(
                        f"job {job.job_id} wants {job.n_nodes} nodes; pool has {cfg.n_nodes}"
                    )
                cap = cfg.policy.cap_for(job.workload)
                estimate = self._admission_estimate(
                    job.workload, job.n_nodes, cap, plat
                )
                idle_after = free_nodes - job.n_nodes
                projected = (
                    running_power
                    + estimate.mean_node_power_w * job.n_nodes
                    + max(idle_after, 0) * idle_node_w
                )
                if job.n_nodes <= free_nodes and projected <= cfg.power_budget_w:
                    end = now + estimate.runtime_s
                    heapq.heappush(
                        running,
                        (end, job.job_id, job.n_nodes, estimate.mean_node_power_w),
                    )
                    free_nodes -= job.n_nodes
                    running_power += estimate.mean_node_power_w * job.n_nodes
                    records.append(
                        JobRecord(
                            job_id=job.job_id,
                            start_s=now,
                            end_s=end,
                            n_nodes=job.n_nodes,
                            cap_w=cap,
                            mean_node_power_w=estimate.mean_node_power_w,
                        )
                    )
                else:
                    still_pending.append(job)
            pending = still_pending
            system_power = running_power + free_nodes * idle_node_w
            power_timeline.append((now, system_power))
            peak_power = max(peak_power, system_power)
            # Advance one scheduling cycle.  The state only changes at the
            # next event (a job ending or a submission arriving), so when
            # that is further than a cycle away, skip ahead along the
            # cycle grid instead of idling through empty cycles.
            next_tick = now + cfg.cycle_s
            events = [running[0][0]] if running else []
            events += [j.submit_s for j in pending if j.submit_s > now + 1e-9]
            if events:
                horizon = min(events)
                if horizon > next_tick:
                    skipped = math.ceil((horizon - now) / cfg.cycle_s)
                    next_tick = now + skipped * cfg.cycle_s
            now = next_tick
        makespan = max((r.end_s for r in records), default=0.0)
        return ScheduleResult(
            records=records,
            makespan_s=makespan,
            power_timeline=power_timeline,
            peak_power_w=peak_power,
            budget_w=cfg.power_budget_w,
        )


def half_tdp_cap_w(platform: "str | Platform | None" = None) -> float:
    """50 % of the platform GPU's TDP — the paper's recommended cap."""
    return get_platform(platform).gpu.tdp_w / 2.0


def scheduling_cycle_s() -> float:
    """The paper's quoted scheduling cycle length."""
    return 30.0


def required_cycles(makespan_s: float, cycle_s: float = 30.0) -> int:
    """Scheduling cycles a makespan spans (utility for reports)."""
    if makespan_s < 0:
        raise ValueError("makespan_s must be non-negative")
    return int(math.ceil(makespan_s / cycle_s))
