"""Sharded observability overhead gate: merged obs must be nearly free.

With tracing and metrics on, every shard worker captures spans and
counters and ships them back with its job partials; the coordinator
rebases and folds them (``repro.obs.merge``).  That capture must (a)
leave the fleet statistics bit-identical and (b) cost at most
``OBS_OVERHEAD_THRESHOLD`` extra wall time over the same sharded run
with observability off.  The ratio and the merged span count are
recorded in ``benchmark.extra_info["obs"]``.

Plain and obs-on runs are interleaved per round and judged on the best
per-round paired ratio (see ``test_monitor_bench`` for the rationale:
uniform host slowdown cancels out of the ratio and a single noisy
round cannot fail the gate).
"""

import gc
import time

from benchmarks.test_monitor_bench import paired_overhead
from repro import obs
from repro.capping.fleet import job_stream, simulate_fleet_traced
from repro.capping.policy import CapPolicy
from repro.runner.engine import EngineConfig

#: Relative wall-time overhead of an obs-on sharded run that fails.
OBS_OVERHEAD_THRESHOLD = 0.10
#: Big enough that worker batches dominate pool start-up, small enough
#: for quick interleaved rounds on the shared 1-CPU container.
OBS_NODES = 200
OBS_JOBS = 40
OBS_WORKERS = 2
ENGINE = EngineConfig(base_interval_s=1.0)


def _run():
    jobs = job_stream(n_jobs=OBS_JOBS, mean_interarrival_s=60.0, seed=11)
    return simulate_fleet_traced(
        jobs,
        CapPolicy.half_tdp(),
        "50% TDP policy",
        n_nodes=OBS_NODES,
        engine_config=ENGINE,
        seed=11,
        workers=OBS_WORKERS,
    )


def measure_obs_overhead(
    rounds: int = 6,
) -> tuple[object, object, int, list[float], list[float]]:
    """(plain report, obs report, merged spans, plain s, obs s).

    Each round runs the sharded fleet with obs off and with trace +
    metrics captured in memory, alternating in-round order.  The obs
    state is torn down after every obs-on run so merged events from one
    round cannot slow the next.
    """
    plain = traced = None
    span_count = 0
    plain_times: list[float] = []
    obs_times: list[float] = []

    def run_plain() -> None:
        nonlocal plain
        obs.disable()
        start = time.perf_counter()
        plain = _run()
        plain_times.append(time.perf_counter() - start)

    def run_obs() -> None:
        nonlocal traced, span_count
        obs.enable(trace=True, metrics=True)
        try:
            start = time.perf_counter()
            traced = _run()
            obs_times.append(time.perf_counter() - start)
            span_count = len(obs.tracer().events)
        finally:
            obs.disable()

    run_plain()  # warm both paths outside the timed comparison
    run_obs()
    plain_times.clear()
    obs_times.clear()
    gc.collect()
    for i in range(rounds):
        first, second = (run_plain, run_obs) if i % 2 == 0 else (run_obs, run_plain)
        first()
        second()
    return plain, traced, span_count, plain_times, obs_times


def test_obs_overhead_gate(benchmark):
    """Merged sharded obs: identical statistics, <= 10% wall overhead."""
    plain, traced, span_count, plain_times, obs_times = benchmark.pedantic(
        measure_obs_overhead, rounds=1, iterations=1, warmup_rounds=0
    )
    overhead = paired_overhead(plain_times, obs_times)
    benchmark.extra_info["obs"] = {
        "fleet_nodes": OBS_NODES,
        "fleet_jobs": OBS_JOBS,
        "workers": OBS_WORKERS,
        "overhead": round(overhead, 4),
        "merged_spans": span_count,
    }
    print(
        f"\n  plain best {min(plain_times):.3f} s, "
        f"obs-on best {min(obs_times):.3f} s "
        f"({overhead:+.1%} paired overhead); {span_count} merged spans"
    )
    # Observation-only contract: capture never changes the simulation.
    assert traced.system == plain.system
    assert traced.node_power_mean_w == plain.node_power_mean_w
    assert traced.samples_streamed == plain.samples_streamed
    # ...and the capture did real work while staying within budget.
    assert span_count > OBS_JOBS  # at least one span per job made it back
    assert overhead <= OBS_OVERHEAD_THRESHOLD
