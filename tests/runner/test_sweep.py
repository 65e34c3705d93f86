"""Unit tests for the sweep executor and run specs."""

import os

import numpy as np
import pytest

from repro import obs
from repro.runner.sweep import (
    MIN_PARALLEL_GRID,
    EstimateSpec,
    RunSpec,
    SweepExecutor,
    available_cpus,
    reset_sweep_stats,
    resolve_workers,
    run_sweep,
    sweep_stats,
)
from repro.vasp.benchmarks import benchmark


@pytest.fixture(scope="module")
def workload():
    return benchmark("PdO2").build()


class TestSpecs:
    def test_run_spec_rejects_bad_nodes(self, workload):
        with pytest.raises(ValueError):
            RunSpec(workload, n_nodes=0)

    def test_estimate_spec_rejects_bad_nodes(self, workload):
        with pytest.raises(ValueError):
            EstimateSpec(workload, n_nodes=0)

    def test_run_spec_executes_like_run_workload(self, workload):
        from repro.experiments.common import run_workload

        via_spec = RunSpec(workload, n_nodes=1, seed=11).execute()
        direct = run_workload(workload, n_nodes=1, seed=11)
        np.testing.assert_array_equal(
            via_spec.result.traces[0].node_power, direct.result.traces[0].node_power
        )

    def test_estimate_spec_executes_like_estimate_run(self, workload):
        from repro.capping.scheduler import estimate_run

        via_spec = EstimateSpec(workload, n_nodes=2, cap_w=200.0).execute()
        direct = estimate_run(workload, 2, 200.0)
        assert via_spec.runtime_s == direct.runtime_s
        assert via_spec.mean_node_power_w == direct.mean_node_power_w


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "8")
        assert resolve_workers(16, workers=3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "5")
        assert resolve_workers(16) == 5

    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers(16)

    def test_small_grids_run_serially(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert resolve_workers(MIN_PARALLEL_GRID - 1) == 1

    def test_never_more_workers_than_tasks(self):
        assert resolve_workers(2, workers=16) == 2

    def test_never_below_one(self):
        assert resolve_workers(10, workers=0) == 1


class TestAvailableCpus:
    def test_prefers_scheduler_affinity(self, monkeypatch):
        monkeypatch.setattr(
            "repro.runner.sweep.os.sched_getaffinity",
            lambda pid: {0, 1, 2},
            raising=False,
        )
        assert available_cpus() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        def unsupported(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(
            "repro.runner.sweep.os.sched_getaffinity", unsupported, raising=False
        )
        monkeypatch.setattr("repro.runner.sweep.os.cpu_count", lambda: 6)
        assert available_cpus() == 6

    def test_never_below_one(self, monkeypatch):
        monkeypatch.setattr(
            "repro.runner.sweep.os.sched_getaffinity",
            lambda pid: set(),
            raising=False,
        )
        assert available_cpus() == 1

    def test_sizes_default_worker_pool(self, monkeypatch):
        """An affinity mask narrower than the host bounds the pool."""
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        monkeypatch.setattr(
            "repro.runner.sweep.os.sched_getaffinity",
            lambda pid: {0, 1},
            raising=False,
        )
        assert resolve_workers(16) == 2


class TestSweepExecutor:
    def test_empty_grid(self):
        executor = SweepExecutor()
        assert executor.run([]) == []
        assert executor.last_executed == 0

    def test_grid_order_preserved(self, workload):
        specs = [EstimateSpec(workload, n_nodes=n) for n in (4, 1, 2)]
        results = SweepExecutor().run(specs)
        runtimes = [r.runtime_s for r in results]
        # Scaling is monotone: 4 nodes finishes fastest, 1 node slowest.
        assert runtimes[0] < runtimes[2] < runtimes[1]

    def test_dedupe_executes_each_distinct_spec_once(self, workload):
        specs = [
            EstimateSpec(workload, n_nodes=1),
            EstimateSpec(workload, n_nodes=2),
            EstimateSpec(workload, n_nodes=1),
            EstimateSpec(workload, n_nodes=2),
        ]
        executor = SweepExecutor(workers=1)
        results = executor.run(specs)
        assert executor.last_executed == 2
        assert results[0].runtime_s == results[2].runtime_s
        assert results[1].runtime_s == results[3].runtime_s

    def test_dedupe_can_be_disabled(self, workload):
        specs = [EstimateSpec(workload, n_nodes=1)] * 3
        executor = SweepExecutor(workers=1, dedupe=False)
        executor.run(specs)
        assert executor.last_executed == 3

    def test_unfingerprintable_specs_fall_back_to_positional(self):
        executor = SweepExecutor(workers=1)
        # object() cannot be fingerprinted -> positional keys, no dedupe.
        results = executor.map(lambda s: type(s).__name__, ["aa", object(), "aa"])
        assert results == ["str", "object", "str"]
        assert executor.last_executed == 3

    def test_serial_and_parallel_bit_identical(self, workload):
        from repro.experiments.common import run_cache

        specs = [RunSpec(workload, n_nodes=n, seed=3) for n in (1, 2, 1)]
        serial = SweepExecutor(workers=1).run(specs)
        run_cache().clear()  # force the parallel pass to recompute
        parallel = SweepExecutor(workers=2, dedupe=False).run(specs)
        for a, b in zip(serial, parallel):
            assert a.runtime_s == b.runtime_s
            for ta, tb in zip(a.result.traces, b.result.traces):
                np.testing.assert_array_equal(ta.node_power, tb.node_power)
                np.testing.assert_array_equal(ta.gpu_total, tb.gpu_total)

    def test_env_worker_override_is_respected(self, workload, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
        specs = [EstimateSpec(workload, n_nodes=n) for n in (1, 2, 4, 8)]
        results = run_sweep(specs)
        assert len(results) == 4

    def test_map_applies_module_level_function(self, workload):
        specs = [EstimateSpec(workload, n_nodes=n) for n in (1, 2)]
        runtimes = SweepExecutor(workers=1).map(
            lambda s: s.execute().runtime_s, specs
        )
        assert runtimes[0] > runtimes[1]


class TestSweepStats:
    @pytest.fixture(autouse=True)
    def fresh_stats(self):
        reset_sweep_stats()
        yield
        reset_sweep_stats()

    def test_map_accumulates_totals(self, workload):
        specs = [
            EstimateSpec(workload, n_nodes=1),
            EstimateSpec(workload, n_nodes=2),
            EstimateSpec(workload, n_nodes=1),
        ]
        SweepExecutor(workers=1).run(specs)
        SweepExecutor(workers=1).run(specs[:1])
        stats = sweep_stats()
        assert stats.grids == 2
        assert stats.specs_submitted == 4
        assert stats.specs_executed == 3
        assert stats.specs_deduped == 1
        assert stats.dedupe_ratio == pytest.approx(0.25)

    def test_dedupe_ratio_zero_when_idle(self):
        assert sweep_stats().dedupe_ratio == 0.0

    def test_summary_line(self, workload):
        SweepExecutor(workers=1).run([EstimateSpec(workload, n_nodes=1)] * 2)
        line = sweep_stats().summary_line()
        assert "2 specs over 1 grids" in line
        assert "1 executed" in line
        assert "1 deduped" in line


class TestObservabilityIntegration:
    @pytest.fixture(autouse=True)
    def obs_off_afterwards(self):
        obs.disable()
        yield
        obs.disable()

    def test_pooled_execution_merges_worker_obs(self, workload):
        """With tracing on, worker captures merge back: every per-spec
        span and histogram observation survives pool execution."""
        obs.enable(trace=True, metrics=True)
        specs = [EstimateSpec(workload, n_nodes=n) for n in (1, 2, 4, 8)]
        results = SweepExecutor(workers=4).run(specs)
        assert len(results) == 4
        names = [e.name for e in obs.tracer().events]
        assert names.count("sweep.spec") == 4
        assert "sweep.map" in names
        histogram = obs.metrics().get("repro_sweep_spec_seconds")
        assert histogram.count == 4
        # The merged spans kept their worker process ids.
        span_pids = {e.pid for e in obs.tracer().events if e.name == "sweep.spec"}
        assert os.getpid() not in span_pids

    def test_sweep_counters_recorded(self, workload):
        obs.enable(metrics=True)
        SweepExecutor(workers=1).run([EstimateSpec(workload, n_nodes=1)] * 3)
        registry = obs.metrics()
        assert registry.get("repro_sweep_specs_submitted_total").total() == 3
        assert registry.get("repro_sweep_specs_executed_total").total() == 1
        assert registry.get("repro_sweep_specs_deduped_total").total() == 2
        assert registry.get("repro_sweep_workers").value() == 1
