"""Sharded fleet scaling: nodes/sec at 1k vs 100k nodes, gated vs eager.

The sharded, lazily-materialized fleet path exists so pool size stops
being the bottleneck: a 100k-node simulation should cost little more
than a 1k-node one when the job stream is the same (only allocated
nodes are built, and rendering shards across workers).  The gate
compares the new path (``workers=SHARD_WORKERS``, lazy pool) against
the pre-sharding reference behaviour (:func:`_run_eager`: every pool
node constructed up front, then a serial run) at the 100k-node point and
fails unless the new path clears ``SPEEDUP_FLOOR`` in nodes/sec while
producing bit-identical statistics.

That ratio is load-invariant — eager construction is O(pool) work the
new path simply does not do — so the gate holds on a loaded 1-CPU CI
container just as it does on a workstation.  Wall-clock *parallel*
speedup, by contrast, needs real CPUs; it is printed, and only bounded
(never gated) where the host cannot provide them.
"""

import time

from repro.capping.fleet import FleetTraceReport, job_stream, simulate_fleet_traced
from repro.capping.policy import CapPolicy
from repro.hardware.system import PerlmutterSystem
from repro.runner.engine import EngineConfig
from repro.runner.sweep import available_cpus

SMALL_NODES = 1_000
LARGE_NODES = 100_000
#: Modest stream: scaling the *pool* is what's under test, not the jobs.
SHARD_JOBS = 12
SHARD_WORKERS = 4
#: Minimum (eager nodes/sec) -> (sharded nodes/sec) improvement at the
#: 100k-node point.  Measured margin is ~100x; 2x is the contract.
SPEEDUP_FLOOR = 2.0
#: 1 s rendering bounds bench wall time; pool construction cost (the
#: thing being measured) is resolution-independent.
ENGINE = EngineConfig(base_interval_s=1.0)


def _shard_jobs():
    return job_stream(n_jobs=SHARD_JOBS, mean_interarrival_s=60.0, seed=11)


def _run(jobs, n_nodes: int, **kwargs) -> FleetTraceReport:
    return simulate_fleet_traced(
        jobs,
        CapPolicy.half_tdp(),
        "50% TDP policy",
        n_nodes=n_nodes,
        engine_config=ENGINE,
        seed=11,
        **kwargs,
    )


def _run_eager(jobs, n_nodes: int) -> FleetTraceReport:
    """The pre-sharding reference: materialize the whole pool, run serially."""
    PerlmutterSystem(n_nodes=n_nodes).materialize()
    return _run(jobs, n_nodes)


def _timed(fn) -> tuple[FleetTraceReport, float]:
    start = time.perf_counter()
    report = fn()
    return report, time.perf_counter() - start


def _identical(a: FleetTraceReport, b: FleetTraceReport) -> bool:
    return (
        a.system == b.system
        and a.node_power_mean_w == b.node_power_mean_w
        and a.node_power_std_w == b.node_power_std_w
        and a.node_power_peak_w == b.node_power_peak_w
        and a.samples_streamed == b.samples_streamed
        and a.chunks_streamed == b.chunks_streamed
        and a.bytes_streamed == b.bytes_streamed
    )


def measure_shard_scaling() -> dict:
    """Time the four corners of the scaling matrix on one job stream.

    Returns wall times, nodes/sec throughputs, the eager->sharded
    speedup at the 100k point, and whether all paths produced
    bit-identical reports.
    """
    jobs = _shard_jobs()
    small_serial, small_serial_s = _timed(lambda: _run(jobs, SMALL_NODES))
    large_serial, large_serial_s = _timed(lambda: _run(jobs, LARGE_NODES))
    large_sharded, large_sharded_s = _timed(
        lambda: _run(jobs, LARGE_NODES, workers=SHARD_WORKERS)
    )
    large_eager, large_eager_s = _timed(lambda: _run_eager(jobs, LARGE_NODES))
    return {
        "reports": {
            "small_serial": small_serial,
            "large_serial": large_serial,
            "large_sharded": large_sharded,
            "large_eager": large_eager,
        },
        "small_serial_s": small_serial_s,
        "large_serial_s": large_serial_s,
        "large_sharded_s": large_sharded_s,
        "large_eager_s": large_eager_s,
        "small_nodes_per_s": SMALL_NODES / small_serial_s,
        "sharded_nodes_per_s": LARGE_NODES / large_sharded_s,
        "eager_nodes_per_s": LARGE_NODES / large_eager_s,
        "speedup_vs_eager": large_eager_s / large_sharded_s,
        "bit_identical": (
            _identical(large_serial, large_sharded)
            and _identical(large_serial, large_eager)
        ),
    }


def test_shard_scaling_gate(benchmark):
    """100k-node sharded path must beat the eager reference 2x, same bits."""
    scaling = benchmark.pedantic(
        measure_shard_scaling, rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["shard"] = {
        "small_nodes": SMALL_NODES,
        "large_nodes": LARGE_NODES,
        "fleet_jobs": SHARD_JOBS,
        "workers": SHARD_WORKERS,
        "small_nodes_per_s": round(scaling["small_nodes_per_s"], 1),
        "sharded_nodes_per_s": round(scaling["sharded_nodes_per_s"], 1),
        "eager_nodes_per_s": round(scaling["eager_nodes_per_s"], 1),
        "speedup_vs_eager": round(scaling["speedup_vs_eager"], 2),
    }
    print(
        f"\n  nodes/sec: {SMALL_NODES:,} nodes serial "
        f"{scaling['small_nodes_per_s']:,.0f}; {LARGE_NODES:,} nodes "
        f"sharded({SHARD_WORKERS}) {scaling['sharded_nodes_per_s']:,.0f}, "
        f"eager reference {scaling['eager_nodes_per_s']:,.0f} "
        f"({scaling['speedup_vs_eager']:.1f}x speedup; "
        f"{available_cpus()} CPU(s) available)"
    )
    assert scaling["bit_identical"], "sharded/eager/serial statistics diverged"
    assert scaling["reports"]["large_sharded"].jobs_completed == SHARD_JOBS
    # Load-invariant gate: the new path never pays O(pool) construction.
    assert scaling["speedup_vs_eager"] >= SPEEDUP_FLOOR
    if available_cpus() >= SHARD_WORKERS:
        # With real CPUs the shards also overlap; at minimum the pool
        # must not cost more than it returns at this scale.
        assert scaling["large_sharded_s"] <= scaling["large_serial_s"] * 1.5


def test_sharded_fleet_throughput(benchmark):
    """Time the steady-state sharded 100k-node run (lazy pool, 4 workers)."""
    jobs = _shard_jobs()
    report = benchmark.pedantic(
        lambda: _run(jobs, LARGE_NODES, workers=SHARD_WORKERS),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    assert report.jobs_completed == SHARD_JOBS
    assert report.samples_streamed > 10_000
