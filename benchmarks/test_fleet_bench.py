"""Fleet-scale traced simulation: throughput bench plus the memory gate.

The streaming fleet path exists so a 1000-node / 200-job simulation runs
in bounded memory: node traces are rendered in fixed-size chunks and
folded into the system-power accumulator without ever being retained.
``test_fleet_traced_stream`` times that path; ``test_fleet_memory_gate``
measures its tracemalloc peak against a dense reference
(:func:`_run_dense`: every scheduled job rendered whole with
``PowerEngine.run`` and retained, then folded) and fails unless
streaming uses at least ``MEMORY_REDUCTION_FLOOR`` times less peak
memory while producing bit-identical statistics, and unless the
streaming peak stays under ``STREAMING_PEAK_CEILING_BYTES``.  The peaks
are recorded in ``benchmark.extra_info["memory"]``.
"""

import heapq
import tracemalloc

from repro.capping.fleet import (
    FleetRun,
    FleetTraceReport,
    _job_seed,
    job_stream,
    simulate_fleet_traced,
)
from repro.capping.policy import CapPolicy
from repro.capping.scheduler import PowerAwareScheduler, SchedulerConfig
from repro.hardware.system import (
    JobPowerPartial,
    PerlmutterSystem,
    RunningMoments,
    SystemPowerAccumulator,
)
from repro.runner.engine import RENDER_CHUNK, EngineConfig, PowerEngine
from repro.vasp.parallel import layout_for

#: The ISSUE-scale fleet: 200 jobs streamed across a 1000-node pool.
FLEET_NODES = 1000
FLEET_JOBS = 200
#: Minimum dense/streaming peak-memory ratio the gate accepts.
MEMORY_REDUCTION_FLOOR = 3.0
#: Streaming tracemalloc peak ceiling: 1.5 x 2,878,957 B, the peak this
#: seeded run recorded in the committed bench baseline that this bound
#: replaces, times the 50 % growth that baseline's gate allowed.  Peaks
#: are deterministic, so the margin absorbs allocator and library
#: versions, not host load.
STREAMING_PEAK_CEILING_BYTES = int(1.5 * 2_878_957)
#: 1 s rendering bounds bench wall time; the memory contract is
#: resolution-independent (streaming peak stays O(chunk) at any rate).
ENGINE = EngineConfig(base_interval_s=1.0)


def _fleet_jobs():
    return job_stream(n_jobs=FLEET_JOBS, mean_interarrival_s=60.0, seed=11)


def _run(jobs) -> FleetTraceReport:
    return simulate_fleet_traced(
        FleetRun(jobs, n_nodes=FLEET_NODES, engine_config=ENGINE, seed=11)
    )


def _run_dense(jobs) -> FleetTraceReport:
    """The O(sum-of-traces) reference for :func:`_run`'s statistics.

    Replays the same schedule and node allocation, renders each job
    whole with ``PowerEngine.run`` and keeps every result, then folds
    the retained traces in the streaming path's chunk order — so the
    statistics are bit-identical and only the peak memory differs.
    """
    policy_name = "50% TDP policy"
    pool = PerlmutterSystem(n_nodes=FLEET_NODES)
    specs = pool.node_specs()
    config = SchedulerConfig(
        n_nodes=FLEET_NODES,
        power_budget_w=sum(spec.tdp_w for spec in specs),
        policy=CapPolicy.half_tdp(),
    )
    schedule = PowerAwareScheduler(config).schedule(list(jobs))
    workloads = {job.job_id: job.workload for job in jobs}
    phases: dict[tuple[int, int], list] = {}
    releases: list[tuple[float, str]] = []
    retained = []
    for record in schedule.records_chronological():
        while releases and releases[0][0] <= record.start_s + 1e-9:
            pool.release(heapq.heappop(releases)[1])
        names = pool.allocate_names(record.job_id, record.n_nodes)
        heapq.heappush(releases, (record.end_s, record.job_id))
        nodes = [pool.nodes[name] for name in names]
        for node in nodes:
            node.set_gpu_power_limit(record.cap_w)
        workload = workloads[record.job_id]
        key = (id(workload), record.n_nodes)
        if key not in phases:
            phases[key] = workload.phases(layout_for(workload, record.n_nodes))
        result = PowerEngine(nodes, ENGINE).run(
            phases[key], label=record.job_id, seed=_job_seed(record.job_id, 11)
        )
        retained.append((record, result))

    accumulator = SystemPowerAccumulator(
        n_nodes=FLEET_NODES,
        bin_s=1.0,
        idle_node_w=sum(spec.idle_node_w for spec in specs) / len(specs),
    )
    moments = RunningMoments()
    chunks = nbytes = 0
    for record, result in retained:
        power = JobPowerPartial(start_s=record.start_s, bin_s=1.0)
        for trace in result.traces:
            times, values = trace.times, trace.node_power
            for lo in range(0, len(times), RENDER_CHUNK):
                hi = min(lo + RENDER_CHUNK, len(times))
                power.add_samples(
                    record.start_s, times[lo:hi], values[lo:hi], trace.sample_interval_s
                )
                moments.merge(RunningMoments.from_batch(values[lo:hi]))
                chunks += 1
                nbytes += int(values[lo:hi].nbytes)
        power.trim()
        accumulator.merge_partial(power)
        accumulator.add_busy_interval(
            record.start_s, record.start_s + result.runtime_s, record.n_nodes
        )
    return FleetTraceReport(
        policy_name=policy_name,
        schedule=schedule,
        system=accumulator.finalize(),
        node_power_mean_w=moments.mean,
        node_power_std_w=moments.std,
        node_power_peak_w=moments.peak,
        jobs_completed=len(schedule.records),
        samples_streamed=accumulator.samples_added,
        chunks_streamed=chunks,
        bytes_streamed=nbytes,
    )


def measure_fleet_memory() -> tuple[FleetTraceReport, FleetTraceReport, int, int]:
    """(streaming report, dense report, streaming peak, dense peak).

    Each path runs under its own tracemalloc session so the peaks are
    directly comparable allocated-bytes high-water marks.
    """
    jobs = _fleet_jobs()
    tracemalloc.start()
    stream = _run(jobs)
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracemalloc.start()
    dense = _run_dense(jobs)
    _, dense_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return stream, dense, stream_peak, dense_peak


def test_fleet_traced_stream(benchmark):
    """Time the streaming fleet simulation at ISSUE scale."""
    jobs = _fleet_jobs()
    report = benchmark.pedantic(
        lambda: _run(jobs), rounds=3, iterations=1, warmup_rounds=0
    )
    assert report.jobs_completed == FLEET_JOBS
    assert report.samples_streamed > 100_000
    assert report.system.peak_power_w > report.system.mean_power_w
    print(
        f"\n  {report.jobs_completed} jobs on {FLEET_NODES} nodes: "
        f"{report.samples_streamed:,} samples in {report.chunks_streamed} "
        f"chunks ({report.bytes_streamed / 1e6:.1f} MB streamed); "
        f"system mean {report.mean_power_w / 1e3:.0f} kW, "
        f"peak {report.peak_power_w / 1e3:.0f} kW"
    )


def test_fleet_memory_gate(benchmark):
    """Streaming must beat dense peak memory 3x with identical stats."""
    stream, dense, stream_peak, dense_peak = benchmark.pedantic(
        measure_fleet_memory, rounds=1, iterations=1, warmup_rounds=0
    )
    ratio = dense_peak / stream_peak
    benchmark.extra_info["memory"] = {
        "fleet_nodes": FLEET_NODES,
        "fleet_jobs": FLEET_JOBS,
        "streaming_peak_bytes": int(stream_peak),
        "dense_peak_bytes": int(dense_peak),
        "rss_reduction": round(ratio, 4),
    }
    print(
        f"\n  peak allocated: streaming {stream_peak / 1e6:.2f} MB, "
        f"dense {dense_peak / 1e6:.2f} MB ({ratio:.1f}x reduction)"
    )
    # Load-invariant contracts: same numbers, bounded memory.
    assert stream.system == dense.system
    assert stream.node_power_mean_w == dense.node_power_mean_w
    assert stream.samples_streamed == dense.samples_streamed
    assert ratio >= MEMORY_REDUCTION_FLOOR
    assert stream_peak <= STREAMING_PEAK_CEILING_BYTES
