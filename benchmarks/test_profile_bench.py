"""Sampling-profiler overhead gate: profiling a run must be nearly free.

With ``--profile`` on, a daemon thread walks every Python stack each
``DEFAULT_INTERVAL_S`` and attributes the samples to the open obs span
(:mod:`repro.obs.profile`).  That sampling must (a) leave the fleet
statistics bit-identical — the profiler only ever *reads* interpreter
state — and (b) cost at most ``PROFILE_OVERHEAD_THRESHOLD`` extra wall
time over the same sharded run with observability off.  The ratio and
the sample count are recorded in ``benchmark.extra_info["profile"]``.

Plain and profiled runs are interleaved per round and judged on the
best per-round paired ratio (see ``test_monitor_bench`` for the
rationale: uniform host slowdown cancels out of the ratio and a single
noisy round cannot fail the gate).
"""

import gc
import time

from benchmarks.test_monitor_bench import paired_overhead
from repro import obs
from repro.capping.fleet import job_stream, simulate_fleet_traced
from repro.capping.policy import CapPolicy
from repro.obs.profile import to_speedscope
from repro.runner.engine import EngineConfig

#: Relative wall-time overhead of a profiled run that fails the gate.
PROFILE_OVERHEAD_THRESHOLD = 0.10
#: Same workload as the obs gate: big enough that worker batches
#: dominate pool start-up, small enough for quick interleaved rounds.
PROFILE_NODES = 200
PROFILE_JOBS = 40
PROFILE_WORKERS = 2
ENGINE = EngineConfig(base_interval_s=1.0)


def _run():
    jobs = job_stream(n_jobs=PROFILE_JOBS, mean_interarrival_s=60.0, seed=11)
    return simulate_fleet_traced(
        jobs,
        CapPolicy.half_tdp(),
        "50% TDP policy",
        n_nodes=PROFILE_NODES,
        engine_config=ENGINE,
        seed=11,
        workers=PROFILE_WORKERS,
    )


def measure_profile_overhead(
    rounds: int = 6,
) -> tuple[object, object, int, dict, list[float], list[float]]:
    """(plain report, profiled report, samples, state, plain s, prof s).

    Each round runs the sharded fleet with obs off and with the sampling
    profiler on (which implies tracing), alternating in-round order.
    The obs state is torn down after every profiled run so accumulated
    samples from one round cannot slow the next; the *last* round's
    profile state is returned for export checks.
    """
    plain = profiled = None
    sample_count = 0
    profile_state: dict = {}
    plain_times: list[float] = []
    profile_times: list[float] = []

    def run_plain() -> None:
        nonlocal plain
        obs.disable()
        start = time.perf_counter()
        plain = _run()
        plain_times.append(time.perf_counter() - start)

    def run_profiled() -> None:
        nonlocal profiled, sample_count, profile_state
        obs.enable(trace=True, metrics=False, profile=True)
        try:
            start = time.perf_counter()
            profiled = _run()
            profile_times.append(time.perf_counter() - start)
            profiler = obs.profiler()
            sample_count = profiler.profile.total_samples
            profile_state = profiler.profile.state()
        finally:
            obs.disable()

    run_plain()  # warm both paths outside the timed comparison
    run_profiled()
    plain_times.clear()
    profile_times.clear()
    gc.collect()
    for i in range(rounds):
        first, second = (
            (run_plain, run_profiled) if i % 2 == 0 else (run_profiled, run_plain)
        )
        first()
        second()
    return (
        plain,
        profiled,
        sample_count,
        profile_state,
        plain_times,
        profile_times,
    )


def test_profile_overhead_gate(benchmark):
    """Sampling profiler: identical statistics, <= 10% wall overhead."""
    plain, profiled, samples, state, plain_times, profile_times = (
        benchmark.pedantic(
            measure_profile_overhead, rounds=1, iterations=1, warmup_rounds=0
        )
    )
    overhead = paired_overhead(plain_times, profile_times)
    benchmark.extra_info["profile"] = {
        "fleet_nodes": PROFILE_NODES,
        "fleet_jobs": PROFILE_JOBS,
        "workers": PROFILE_WORKERS,
        "overhead": round(overhead, 4),
        "samples": samples,
    }
    print(
        f"\n  plain best {min(plain_times):.3f} s, "
        f"profiled best {min(profile_times):.3f} s "
        f"({overhead:+.1%} paired overhead); {samples} samples"
    )
    # Observation-only contract: sampling never changes the simulation.
    assert profiled.system == plain.system
    assert profiled.node_power_mean_w == plain.node_power_mean_w
    assert profiled.samples_streamed == plain.samples_streamed
    # ...and the profiler did real work while staying within budget.
    assert samples > 0
    doc = to_speedscope(state)
    assert doc["profiles"], "profile state exported no speedscope rows"
    assert overhead <= PROFILE_OVERHEAD_THRESHOLD
