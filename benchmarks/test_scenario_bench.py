"""Scenario layer benchmarks: build throughput + fleet replay gate.

A :class:`repro.capping.scenarios.FleetScenario` is pure bookkeeping on
top of the fleet path — sampling arrivals, mix draws and failure drains
for a few dozen jobs must stay negligible next to rendering even one of
those jobs.  The gate also holds the scenario path to the fleet's
bit-identity contract: replaying the same (scenario, seed) through the
serial and sharded simulators must produce identical reports.
"""

import time
from dataclasses import asdict

from repro.capping.fleet import compare_fleet_policies_traced
from repro.capping.scenarios import get_scenario, scenario_ids
from repro.runner.engine import EngineConfig
from repro.workloads import workload_model_id

BENCH_SCENARIO = "diurnal"
BENCH_SEED = 11
BUILD_ROUNDS = 25
#: Scenario job-list construction must stay >= this many builds/sec —
#: build_jobs is rng sampling plus workload prototyping, orders of
#: magnitude beyond this floor when intact.
BUILD_FLOOR_PER_S = 5.0
ENGINE = EngineConfig(base_interval_s=1.0)


def measure_scenarios() -> dict:
    """Build throughput, job counts and replay identity of the scenarios.

    Returns build throughput over every registered scenario, the job
    counts per scenario (deterministic), and whether the serial and
    sharded fleet replays of ``BENCH_SCENARIO`` are bit-identical.
    """
    start = time.perf_counter()
    for _ in range(BUILD_ROUNDS):
        for scenario_id in scenario_ids():
            get_scenario(scenario_id).build_jobs(seed=BENCH_SEED)
    build_s = time.perf_counter() - start
    builds = BUILD_ROUNDS * len(scenario_ids())

    job_counts = {
        scenario_id: len(get_scenario(scenario_id).build_jobs(seed=BENCH_SEED))
        for scenario_id in scenario_ids()
    }

    scenario = get_scenario(BENCH_SCENARIO)
    kwargs = dict(
        seed=BENCH_SEED,
        n_nodes=scenario.n_nodes,
        scenario=scenario,
        engine_config=ENGINE,
    )
    fleet_start = time.perf_counter()
    serial = compare_fleet_policies_traced(workers=1, **kwargs)
    fleet_s = time.perf_counter() - fleet_start
    sharded = compare_fleet_policies_traced(workers=2, **kwargs)
    return {
        "scenarios": len(scenario_ids()),
        "builds_per_s": builds / build_s,
        "job_counts": job_counts,
        "fleet_s": fleet_s,
        "bit_identical": all(
            asdict(a) == asdict(b) for a, b in zip(serial, sharded)
        ),
        "reports": {"serial": serial, "sharded": sharded},
    }


def test_scenario_gate(benchmark):
    """Builds stay cheap; serial and sharded replays carry the same bits."""
    stats = benchmark.pedantic(
        measure_scenarios, rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["scenario"] = {
        "scenarios": stats["scenarios"],
        "builds_per_s": round(stats["builds_per_s"], 1),
        "fleet_s": round(stats["fleet_s"], 4),
        "total_jobs": sum(stats["job_counts"].values()),
    }
    print(
        f"\n  {stats['scenarios']} scenarios, "
        f"{stats['builds_per_s']:,.0f} builds/sec, "
        f"fleet replay {stats['fleet_s']:.2f}s, "
        f"bit_identical={stats['bit_identical']}"
    )
    assert stats["bit_identical"], "scenario fleet replay diverged across workers"
    assert stats["builds_per_s"] >= BUILD_FLOOR_PER_S
    capped, _ = stats["reports"]["serial"]
    scenario = get_scenario(BENCH_SCENARIO)
    assert capped.jobs_completed == scenario.n_jobs + len(scenario.failures)


def test_scenario_build_throughput(benchmark):
    """Time one deterministic build of every registered scenario."""

    def build_all():
        return [
            get_scenario(scenario_id).build_jobs(seed=BENCH_SEED)
            for scenario_id in scenario_ids()
        ]

    job_lists = benchmark(build_all)
    assert all(job_lists)
    # Failure drains materialize as registered outage jobs.
    burst = job_lists[scenario_ids().index("burst-maintenance")]
    assert any(workload_model_id(job.workload) == "outage" for job in burst)


def test_scenario_sweep_fleet_replay(benchmark):
    """Time the serial scenario fleet replay (the guarded sweep series)."""
    scenario = get_scenario(BENCH_SCENARIO)

    def replay():
        return compare_fleet_policies_traced(
            seed=BENCH_SEED,
            n_nodes=scenario.n_nodes,
            scenario=scenario,
            engine_config=ENGINE,
        )

    capped, uncapped = benchmark.pedantic(
        replay, rounds=1, iterations=1, warmup_rounds=0
    )
    assert capped.jobs_completed == uncapped.jobs_completed
