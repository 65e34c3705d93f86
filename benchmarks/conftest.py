"""Shared configuration for the benchmark harness.

Each bench regenerates one paper artifact (table or figure), times the
full pipeline with pytest-benchmark, prints the regenerated rows/series,
and asserts the *shape* claims (who wins, by what factor, where the
crossovers fall).  Run with::

    pytest benchmarks/ --benchmark-only --benchmark-json=bench.json
    python -m repro sentinel report --kind bench

Experiments are deterministic; three rounds per bench give a usable
spread (min/mean) at acceptable wall time.

A ``--benchmark-json`` run appends one ``kind="bench"`` ledger record
per bench (``REPRO_RUNS=0`` records none): min-of-rounds time as
``wall_s``, ``extra_info`` as ``metrics``, fingerprinted by bench name,
CPU count and machine type, so ``repro sentinel`` judges each bench
against its own host's history only.  A gate bench that ran without
recording its ``extra_info`` section (:data:`GATE_SECTIONS`) fails the
run; floors and ceilings are asserted inside the benches.
"""

import platform

import pytest

#: The ``extra_info`` section each gate bench must record.
GATE_SECTIONS = {
    "test_fig12_dedupe_and_cache": "efficiency",
    "test_fleet_memory_gate": "memory",
    "test_monitor_overhead_gate": "monitor",
    "test_obs_overhead_gate": "obs",
    "test_shard_scaling_gate": "shard",
    "test_surrogate_predict_speedup": "surrogate",
    "test_scenario_gate": "scenario",
}
_MISSING = pytest.StashKey[list]()


def run_experiment(benchmark, run_fn, render_fn=None, **kwargs):
    """Time an experiment over three rounds and print its rendering."""
    result = benchmark.pedantic(
        lambda: run_fn(**kwargs), rounds=3, iterations=1, warmup_rounds=0
    )
    if render_fn is not None:
        print()
        print(render_fn(result))
    return result


@pytest.fixture
def experiment(benchmark):
    """Fixture wrapping :func:`run_experiment` with the bench object."""

    def runner(run_fn, render_fn=None, **kwargs):
        return run_experiment(benchmark, run_fn, render_fn, **kwargs)

    return runner


def bench_record(row: dict, cpus: int, machine: str):
    """One pytest-benchmark JSON row as a ``kind="bench"`` ledger record."""
    # Imported on use: the e2e self-tests load this conftest and time
    # the package's imports themselves.
    from repro.obs.ledger import RunRecord, new_run_id, utc_now_iso
    from repro.runner.cache import fingerprint

    name = row["name"]
    return RunRecord(
        run_id=new_run_id(),
        kind="bench",
        label=name,
        created_at=utc_now_iso(),
        fingerprint=fingerprint("bench", name, cpus, machine),
        wall_s=float(row["stats"]["min"]),
        metrics=row.get("extra_info") or {},
    )


def missing_sections(rows: list[dict]) -> list[str]:
    """``bench: section`` for each gate bench that did not record its own."""
    return [
        f"{row['name']}: {GATE_SECTIONS[row['name']]}"
        for row in rows
        if row["name"] in GATE_SECTIONS
        and GATE_SECTIONS[row["name"]] not in (row.get("extra_info") or {})
    ]


def pytest_benchmark_update_json(config, benchmarks, output_json):
    from repro.config import read
    from repro.obs.ledger import RunLedger
    from repro.runner.sweep import available_cpus

    rows = output_json["benchmarks"]
    config.stash[_MISSING] = missing_sections(rows)
    if read("REPRO_RUNS"):
        book = RunLedger()
        cpus, machine = available_cpus(), platform.machine()
        for row in rows:
            book.append(bench_record(row, cpus, machine))


def pytest_sessionfinish(session):
    missing = session.config.stash.get(_MISSING, [])
    if missing:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        reporter.write_line(
            f"gate benches without their extra_info section: {', '.join(missing)}"
        )
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
