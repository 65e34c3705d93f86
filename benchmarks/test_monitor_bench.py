"""Monitor overhead gate: watching a fleet must be nearly free.

The telemetry collector rides the streaming fleet path as a pure
observer (``PowerEngine.stream``'s ``on_chunk`` tap), so a monitored run
must (a) produce bit-identical fleet statistics and (b) cost at most
``MONITOR_OVERHEAD_THRESHOLD`` extra wall time.  ``scripts/bench_compare.py``
reuses :func:`measure_monitor_overhead` to record the ratio in the
baseline.

Plain and monitored runs are interleaved per round and judged on the
best per-round paired ratio, so uniform host slowdown cancels out of
the ratio and a single noisy round cannot fail the gate.

The monitor's up-front idle survey (``attach_pool``) requires the whole
node pool materialized, so the plain reference materializes a pool of
the same size itself — otherwise the ratio would re-measure the lazy
pool's construction savings (gated separately in
``test_shard_bench.py``) instead of the observation cost.
"""

import gc
import time

from repro.capping.fleet import job_stream, simulate_fleet_traced
from repro.capping.policy import CapPolicy
from repro.hardware.system import PerlmutterSystem
from repro.monitor import FleetMonitor, MonitorReport
from repro.runner.engine import EngineConfig

#: Relative wall-time overhead of a monitored run that fails the gate.
MONITOR_OVERHEAD_THRESHOLD = 0.10
#: Big enough to amortize fixed costs, small enough for quick rounds.
MONITOR_NODES = 500
MONITOR_JOBS = 100
ENGINE = EngineConfig(base_interval_s=1.0)


def _run(monitor=None):
    jobs = job_stream(n_jobs=MONITOR_JOBS, mean_interarrival_s=60.0, seed=11)
    if monitor is None:
        # Pool construction on both sides of the overhead ratio
        # (monitored runs always materialize for the idle survey).
        PerlmutterSystem(n_nodes=MONITOR_NODES).materialize()
    return simulate_fleet_traced(
        jobs,
        CapPolicy.half_tdp(),
        "50% TDP policy",
        n_nodes=MONITOR_NODES,
        engine_config=ENGINE,
        seed=11,
        monitor=monitor,
    )


def measure_monitor_overhead(
    rounds: int = 8,
) -> tuple[object, object, MonitorReport, list[float], list[float]]:
    """(plain report, monitored report, monitor report, plain s, monitored s).

    Returns the per-round wall times for both paths.  Each round runs
    plain and monitored back to back — with the in-round order
    alternating — so shared-host drift and position effects (cache and
    frequency state left by the run before) bias both sides equally.
    Judge the result with :func:`paired_overhead`.
    """
    plain = watched = report = None
    plain_times: list[float] = []
    monitored_times: list[float] = []

    def run_plain() -> None:
        nonlocal plain
        start = time.perf_counter()
        plain = _run()
        plain_times.append(time.perf_counter() - start)

    def run_monitored() -> None:
        nonlocal watched, report
        monitor = FleetMonitor()
        start = time.perf_counter()
        watched = _run(monitor=monitor)
        monitored_times.append(time.perf_counter() - start)
        report = monitor.finalize()

    run_plain()  # warm both paths outside the timed comparison
    run_monitored()
    plain_times.clear()
    monitored_times.clear()
    gc.collect()  # don't inherit heap pressure from whatever ran before
    for i in range(rounds):
        first, second = (
            (run_plain, run_monitored) if i % 2 == 0 else (run_monitored, run_plain)
        )
        first()
        second()
    return plain, watched, report, plain_times, monitored_times


def paired_overhead(plain_times: list[float], monitored_times: list[float]) -> float:
    """Minimum within-round monitored/plain overhead ratio.

    A host-noise spike (the 1-CPU container routinely stalls one run by
    tens of percent) inflates one side of one round; a genuine monitor
    regression inflates the monitored side of *every* round.  Taking the
    min over per-round paired ratios discards the noisy rounds while a
    real regression still shows in the cleanest one.
    """
    return min(m / p for p, m in zip(plain_times, monitored_times)) - 1.0


def test_monitored_fleet_stream(benchmark):
    """Time the monitored fleet path and sanity-check the collector."""

    def run_monitored():
        monitor = FleetMonitor()
        fleet = _run(monitor=monitor)
        return fleet, monitor.finalize()

    fleet, report = benchmark.pedantic(
        run_monitored, rounds=3, iterations=1, warmup_rounds=0
    )
    assert fleet.jobs_completed == MONITOR_JOBS
    assert report.chunks_observed > 0
    assert report.energy["totals"]["energy_j"] > 0
    print(
        f"\n  {report.nodes_watched} nodes watched, "
        f"{report.samples_observed:,} samples, "
        f"{report.total_signals} signals "
        f"({report.distinct_signal_kinds} kinds), "
        f"{report.energy['totals']['energy_mj']:.1f} MJ accounted"
    )


def test_monitor_overhead_gate(benchmark):
    """Monitored run: identical statistics, <= 10% wall-time overhead."""
    plain, watched, report, plain_times, monitored_times = benchmark.pedantic(
        measure_monitor_overhead, rounds=1, iterations=1, warmup_rounds=0
    )
    overhead = paired_overhead(plain_times, monitored_times)
    print(
        f"\n  plain best {min(plain_times):.3f} s, "
        f"monitored best {min(monitored_times):.3f} s "
        f"({overhead:+.1%} paired overhead); {report.total_signals} signals"
    )
    # Observation-only contract: the watched run is bit-identical.
    assert watched.system == plain.system
    assert watched.node_power_mean_w == plain.node_power_mean_w
    assert watched.samples_streamed == plain.samples_streamed
    # ...and the monitor did real work while staying within budget.
    assert report.samples_observed > 0
    assert overhead <= MONITOR_OVERHEAD_THRESHOLD
