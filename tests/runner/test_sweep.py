"""Unit tests for the sweep executor and run specs."""

import concurrent.futures

import numpy as np
import pytest

from repro import obs
from repro.experiments.common import run_cache
from repro.runner.sweep import (
    EstimateSpec,
    RunSpec,
    SweepExecutor,
    available_cpus,
    reset_sweep_stats,
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
        executor = SweepExecutor()
        results = executor.run(specs)
        assert executor.last_executed == 2
        assert results[0].runtime_s == results[2].runtime_s
        assert results[1].runtime_s == results[3].runtime_s

    def test_unfingerprintable_specs_fall_back_to_positional(self):
        executor = SweepExecutor()
        # object() cannot be fingerprinted -> positional keys, no dedupe.
        results = executor.map(lambda s: type(s).__name__, ["aa", object(), "aa"])
        assert results == ["str", "object", "str"]
        assert executor.last_executed == 3

    def test_grid_runs_in_process_whatever_the_worker_setting(
        self, workload, monkeypatch
    ):
        """No pool starts, so every result lands in this process's run
        cache and a second pass over the grid is all hits."""

        def no_pool(*args, **kwargs):
            raise RuntimeError("a sweep started a process pool")

        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        specs = [
            RunSpec(workload, n_nodes=1, gpu_cap_w=cap, seed=5)
            for cap in (None, 300.0, 200.0, 100.0)
        ]
        run_cache().clear()
        assert len(SweepExecutor().run(specs)) == len(specs)
        before = run_cache().stats()
        SweepExecutor().run(specs)
        after = run_cache().stats()
        assert after.hits - before.hits == len(specs)
        assert after.misses == before.misses

    def test_env_worker_override_is_respected(self, workload, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
        specs = [EstimateSpec(workload, n_nodes=n) for n in (1, 2, 4, 8)]
        executor = SweepExecutor()
        results = executor.run(specs)
        assert len(results) == 4
        assert executor.last_executed == 4

    def test_map_applies_module_level_function(self, workload):
        specs = [EstimateSpec(workload, n_nodes=n) for n in (1, 2)]
        runtimes = SweepExecutor().map(
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
        SweepExecutor().run(specs)
        SweepExecutor().run(specs[:1])
        stats = sweep_stats()
        assert stats.grids == 2
        assert stats.specs_submitted == 4
        assert stats.specs_executed == 3
        assert stats.specs_deduped == 1
        assert stats.dedupe_ratio == pytest.approx(0.25)

    def test_dedupe_ratio_zero_when_idle(self):
        assert sweep_stats().dedupe_ratio == 0.0

    def test_summary_line(self, workload):
        SweepExecutor().run([EstimateSpec(workload, n_nodes=1)] * 2)
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

    def test_sweep_counters_recorded(self, workload):
        obs.enable(metrics=True)
        SweepExecutor().run([EstimateSpec(workload, n_nodes=1)] * 3)
        registry = obs.metrics()
        assert registry.get("repro_sweep_specs_submitted_total").total() == 3
        assert registry.get("repro_sweep_specs_executed_total").total() == 1
        assert registry.get("repro_sweep_specs_deduped_total").total() == 2
