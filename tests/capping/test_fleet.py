"""Tests for the fleet simulation and system-power study."""

import pytest

from repro.capping.fleet import (
    DEFAULT_MIX,
    FleetRun,
    compare_fleet_policies,
    job_stream,
    simulate_fleet,
    simulate_fleet_traced,
)
from repro.capping.scheduler import Job
from repro.experiments import system_power
from repro.hardware.platform import get_platform, platform_ids
from repro.runner.engine import EngineConfig
from repro.vasp.benchmarks import benchmark


class TestJobStream:
    def test_deterministic_per_seed(self):
        a = job_stream(n_jobs=10, seed=5)
        b = job_stream(n_jobs=10, seed=5)
        assert [(j.job_id, j.n_nodes, j.submit_s) for j in a] == [
            (j.job_id, j.n_nodes, j.submit_s) for j in b
        ]

    def test_arrivals_monotone(self):
        jobs = job_stream(n_jobs=20, seed=1)
        submits = [j.submit_s for j in jobs]
        assert submits == sorted(submits)
        assert submits[0] == 0.0

    def test_node_counts_within_healthy_range(self):
        from repro.vasp.benchmarks import BENCHMARKS

        for job in job_stream(n_jobs=30, seed=2):
            name = job.job_id.split("@")[0]
            assert job.n_nodes <= BENCHMARKS[name].optimal_nodes

    def test_mix_respected(self):
        jobs = job_stream(n_jobs=200, seed=3)
        names = {j.job_id.split("@")[0] for j in jobs}
        # With 200 draws every mix entry should appear.
        assert names == set(DEFAULT_MIX)

    def test_validation(self):
        with pytest.raises(ValueError):
            job_stream(n_jobs=0)
        with pytest.raises(ValueError):
            job_stream(mean_interarrival_s=0.0)
        with pytest.raises(ValueError):
            job_stream(mix={"NotABenchmark": 1.0})
        with pytest.raises(ValueError):
            job_stream(mix={"PdO2": 0.0})

    def test_mix_weight_normalization_invariance(self):
        """Scaling every weight by the same factor changes nothing."""
        a = job_stream(n_jobs=30, seed=4, mix={"PdO2": 2.0, "PdO4": 2.0})
        b = job_stream(n_jobs=30, seed=4, mix={"PdO2": 0.5, "PdO4": 0.5})
        assert [(j.job_id, j.n_nodes, j.submit_s) for j in a] == [
            (j.job_id, j.n_nodes, j.submit_s) for j in b
        ]

    def test_zero_weight_entries_never_drawn(self):
        jobs = job_stream(
            n_jobs=100, seed=5, mix={"PdO2": 1.0, "Si256_hse": 0.0}
        )
        names = {j.job_id.split("@")[0] for j in jobs}
        assert names == {"PdO2"}

    def test_single_benchmark_mix(self):
        jobs = job_stream(n_jobs=10, seed=6, mix={"CuC_vdw": 3.0})
        assert all(j.job_id.startswith("CuC_vdw@") for j in jobs)
        assert len(jobs) == 10


class TestFleetSimulation:
    @pytest.fixture(scope="class")
    def reports(self):
        return compare_fleet_policies(n_jobs=16, n_nodes=16, seed=3)

    def test_all_jobs_complete_under_both(self, reports):
        capped, uncapped = reports
        assert capped.jobs_completed == uncapped.jobs_completed == 16

    def test_capping_reduces_peak_and_variability(self, reports):
        """The system-level payoff of application capping."""
        capped, uncapped = reports
        assert capped.peak_power_w < uncapped.peak_power_w
        assert capped.power_std_w < uncapped.power_std_w
        assert capped.coefficient_of_variation < uncapped.coefficient_of_variation

    def test_makespan_penalty_small_when_unconstrained(self, reports):
        capped, uncapped = reports
        assert capped.makespan_s < uncapped.makespan_s * 1.10

    def test_simulate_fleet_report_fields(self):
        jobs = job_stream(n_jobs=4, seed=9)
        report = simulate_fleet(FleetRun(jobs, "uncapped", n_nodes=8))
        assert report.policy_name == "uncapped"
        assert report.mean_power_w > 0
        assert report.peak_power_w >= report.mean_power_w


class TestFleetRun:
    @pytest.fixture(scope="class")
    def jobs(self):
        return job_stream(n_jobs=2, seed=9)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("jobs", (), "one or more Job records"),
            ("jobs", ("PdO2",), "one or more Job records"),
            ("policy", "half", "unknown fleet policy"),
            ("n_nodes", 0, "n_nodes"),
            ("platforms", (), "platform"),
            ("platforms", ("a100-40g", "bogus"), "unknown platform 'bogus'"),
            ("power_budget_w", 0.0, "power_budget_w"),
            ("bin_s", 0.0, "bin_s"),
            ("engine_config", 0.1, "engine_config"),
            ("seed", 1.5, "seed"),
        ],
    )
    def test_rejects_a_bad_field(self, jobs, field, value, match):
        with pytest.raises(ValueError, match=match):
            FleetRun(**{"jobs": jobs, field: value})

    def test_sequences_become_tuples(self, jobs):
        run = FleetRun(list(jobs), platforms=["h100-sxm"])
        assert run.jobs == tuple(jobs)
        assert run.platforms == ("h100-sxm",)

    @pytest.mark.parametrize("platform", platform_ids())
    def test_default_budget_is_the_pools_node_tdp(self, platform):
        """The summed pool specs equal n x node TDP bit for bit."""
        jobs = [Job("PdO2@0", benchmark("PdO2").build(), 1)]
        tdp_w = get_platform(platform).node.tdp_w
        for n_nodes in (4, 7, 1200):
            run = FleetRun(jobs, n_nodes=n_nodes, platforms=(platform,))
            assert simulate_fleet(run).schedule.budget_w == n_nodes * tdp_w


class TestTracedFleet:
    #: Coarse 1 s rendering keeps the traced runs fast in CI.
    ENGINE = EngineConfig(base_interval_s=1.0)

    @pytest.fixture(scope="class")
    def jobs(self):
        return job_stream(n_jobs=5, seed=7)

    def test_capping_reduces_peak_and_variability(self, jobs):
        kwargs = dict(n_nodes=8, engine_config=self.ENGINE, seed=7)
        capped = simulate_fleet_traced(FleetRun(jobs, "capped", **kwargs))
        uncapped = simulate_fleet_traced(FleetRun(jobs, "uncapped", **kwargs))
        assert capped.peak_power_w < uncapped.peak_power_w
        assert capped.power_std_w < uncapped.power_std_w

    def test_report_accounting(self, jobs):
        report = simulate_fleet_traced(
            FleetRun(jobs, "uncapped", n_nodes=8, engine_config=self.ENGINE, seed=7)
        )
        assert report.jobs_completed == len(jobs)
        assert report.samples_streamed > 0
        assert report.chunks_streamed > 0
        assert report.bytes_streamed > 0
        assert report.system.energy_j > 0
        assert report.makespan_s > 0
        assert report.node_power_peak_w >= report.node_power_mean_w

    def test_deterministic_per_seed(self, jobs):
        kwargs = dict(n_nodes=8, engine_config=self.ENGINE)
        a = simulate_fleet_traced(FleetRun(jobs, "uncapped", seed=7, **kwargs))
        b = simulate_fleet_traced(FleetRun(jobs, "uncapped", seed=7, **kwargs))
        assert a.system == b.system
        c = simulate_fleet_traced(FleetRun(jobs, "uncapped", seed=8, **kwargs))
        assert c.system != a.system


class TestSystemPowerExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return system_power.run(n_jobs=16, seed=3)

    def test_reductions_positive(self, result):
        assert result.peak_reduction() > 0.10
        assert result.variability_reduction() > 0.10

    def test_makespan_penalty_bounded(self, result):
        assert result.makespan_penalty() < 0.10

    def test_render(self, result):
        text = system_power.render(result)
        assert "system power peak" in text
