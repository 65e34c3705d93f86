"""Unit tests for the run estimator and the power-aware scheduler."""

import pytest

from repro.capping.policy import CapPolicy
from repro.capping.scheduler import (
    Job,
    PowerAwareScheduler,
    SchedulerConfig,
    estimate_run,
)
from repro.vasp.benchmarks import benchmark


@pytest.fixture(scope="module")
def pdo2():
    return benchmark("PdO2").build()


@pytest.fixture(scope="module")
def hse():
    return benchmark("Si256_hse").build()


class TestEstimateRun:
    def test_deterministic(self, pdo2):
        a = estimate_run(pdo2, 1)
        b = estimate_run(pdo2, 1)
        assert a == b

    def test_cap_never_speeds_up(self, hse):
        base = estimate_run(hse, 1, 400.0)
        for cap in (300.0, 200.0, 100.0):
            capped = estimate_run(hse, 1, cap)
            assert capped.runtime_s >= base.runtime_s - 1e-9
            assert capped.mean_node_power_w <= base.mean_node_power_w + 1e-9

    def test_more_nodes_shorter(self, pdo2):
        assert estimate_run(pdo2, 4).runtime_s < estimate_run(pdo2, 1).runtime_s

    def test_peak_at_least_mean(self, hse):
        est = estimate_run(hse, 1)
        assert est.peak_node_power_w >= est.mean_node_power_w

    def test_validation(self, pdo2):
        with pytest.raises(ValueError):
            estimate_run(pdo2, 0)


class TestSchedulerBasics:
    def make_jobs(self, pdo2, n=4):
        return [Job(job_id=f"j{i}", workload=pdo2, n_nodes=1) for i in range(n)]

    def test_all_jobs_complete(self, pdo2):
        config = SchedulerConfig(n_nodes=4, power_budget_w=4 * 2000.0)
        result = PowerAwareScheduler(config).schedule(self.make_jobs(pdo2))
        assert len(result.records) == 4
        assert result.makespan_s > 0

    def test_budget_respected(self, pdo2):
        config = SchedulerConfig(n_nodes=4, power_budget_w=4 * 900.0)
        result = PowerAwareScheduler(config).schedule(self.make_jobs(pdo2, 6))
        assert result.budget_respected
        assert result.peak_power_w <= config.power_budget_w + 1e-6

    def test_tight_budget_serializes(self, pdo2):
        loose = SchedulerConfig(n_nodes=4, power_budget_w=4 * 2000.0)
        tight = SchedulerConfig(n_nodes=4, power_budget_w=2600.0)
        jobs = self.make_jobs(pdo2, 4)
        fast = PowerAwareScheduler(loose).schedule(list(jobs))
        slow = PowerAwareScheduler(tight).schedule(list(jobs))
        assert slow.makespan_s > fast.makespan_s

    def test_submit_times_respected(self, pdo2):
        config = SchedulerConfig(n_nodes=4, power_budget_w=4 * 2000.0)
        jobs = [
            Job(job_id="early", workload=pdo2, n_nodes=1, submit_s=0.0),
            Job(job_id="late", workload=pdo2, n_nodes=1, submit_s=500.0),
        ]
        result = PowerAwareScheduler(config).schedule(jobs)
        late = next(r for r in result.records if r.job_id == "late")
        assert late.start_s >= 500.0

    def test_oversized_job_rejected(self, pdo2):
        config = SchedulerConfig(n_nodes=2, power_budget_w=1e6)
        with pytest.raises(ValueError, match="pool has"):
            PowerAwareScheduler(config).schedule(
                [Job(job_id="big", workload=pdo2, n_nodes=4)]
            )

    def test_job_over_the_whole_budget_rejected(self, pdo2):
        """An idle pool that still cannot fit a job is refused at once,
        not waited on."""
        config = SchedulerConfig(n_nodes=2, power_budget_w=1.0)
        with pytest.raises(ValueError, match="cannot start within the 1 W budget"):
            PowerAwareScheduler(config).schedule(
                [Job(job_id="hot", workload=pdo2, n_nodes=1)]
            )

    def test_policy_caps_recorded(self, hse):
        config = SchedulerConfig(
            n_nodes=4, power_budget_w=1e6, policy=CapPolicy.half_tdp()
        )
        result = PowerAwareScheduler(config).schedule(
            [Job(job_id="h", workload=hse, n_nodes=1)]
        )
        assert result.records[0].cap_w == 200.0

    def test_capped_jobs_draw_less(self, hse):
        def run_with(policy):
            config = SchedulerConfig(n_nodes=4, power_budget_w=1e6, policy=policy)
            return PowerAwareScheduler(config).schedule(
                [Job(job_id="h", workload=hse, n_nodes=4)]
            )

        capped = run_with(CapPolicy.half_tdp())
        uncapped = run_with(CapPolicy.uncapped())
        assert capped.records[0].mean_node_power_w < uncapped.records[0].mean_node_power_w
        # and the capping cost stays modest even for the hottest workload
        # (the paper reports ~9 % at its optimal node count).
        assert capped.records[0].runtime_s < uncapped.records[0].runtime_s * 1.18


class TestHelpers:
    def test_half_tdp(self):
        assert set(CapPolicy.half_tdp().caps_w.values()) == {200.0}

    def test_job_validation(self, pdo2):
        with pytest.raises(ValueError):
            Job(job_id="x", workload=pdo2, n_nodes=0)
        with pytest.raises(ValueError):
            Job(job_id="x", workload=pdo2, n_nodes=1, submit_s=-1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(n_nodes=0, power_budget_w=100.0)
        with pytest.raises(ValueError):
            SchedulerConfig(n_nodes=1, power_budget_w=0.0)
