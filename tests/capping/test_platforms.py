"""Cross-platform behaviour of the capping stack.

Covers cache isolation between platforms, policy validation against the
selected spec, and fleet simulation on non-default and mixed node pools.
"""

import pytest

from repro.capping.fleet import (
    FleetRun,
    job_stream,
    simulate_fleet,
    simulate_fleet_traced,
)
from repro.capping.policy import CapPolicy, WorkloadClass
from repro.capping.scheduler import (
    cached_estimate_run,
    estimate_run,
)
from repro.hardware.platform import get_platform
from repro.monitor.collector import FleetMonitor
from repro.runner.engine import EngineConfig
from repro.vasp.benchmarks import benchmark

#: Coarse rendering keeps the traced fleet runs fast in CI.
ENGINE = EngineConfig(base_interval_s=1.0)


@pytest.fixture(scope="module")
def pdo2():
    return benchmark("PdO2").build()


class TestEstimatorIsolation:
    def test_platforms_produce_different_estimates(self, pdo2):
        a100 = estimate_run(pdo2, 2, cap_w=250.0, platform="a100-40g")
        h100 = estimate_run(pdo2, 2, cap_w=250.0, platform="h100-sxm")
        assert a100.mean_node_power_w != h100.mean_node_power_w

    def test_cache_never_crosses_platforms(self, pdo2):
        """Same (workload, nodes, cap) on two platforms: no false hit."""
        a100 = cached_estimate_run(pdo2, 2, 250.0, platform="a100-40g")
        h100 = cached_estimate_run(pdo2, 2, 250.0, platform="h100-sxm")
        assert a100 != h100
        # Repeat lookups stay consistent with the first resolution.
        assert cached_estimate_run(pdo2, 2, 250.0, platform="h100-sxm") == h100
        assert cached_estimate_run(pdo2, 2, 250.0, platform="a100-40g") == a100

    def test_default_platform_is_a100(self, pdo2):
        assert estimate_run(pdo2, 1) == estimate_run(pdo2, 1, platform="a100-40g")

    def test_half_tdp_scales_with_platform(self):
        for platform, cap_w in ((None, 200.0), ("h100-sxm", 350.0), ("v100-sxm2", 150.0)):
            assert set(CapPolicy.half_tdp(platform).caps_w.values()) == {cap_w}


class TestPolicyPlatform:
    def test_half_tdp_policy_uses_platform_tdp(self):
        policy = CapPolicy.half_tdp("h100-sxm")
        assert set(policy.caps_w.values()) == {350.0}

    def test_cap_outside_platform_range_rejected(self):
        with pytest.raises(ValueError) as err:
            CapPolicy(
                caps_w={cls: 150.0 for cls in WorkloadClass}, platform="h100-sxm"
            )
        message = str(err.value)
        assert "NVIDIA H100-SXM5-80GB" in message
        assert "[200, 700]" in message

    def test_a100_cap_valid_on_a100_only(self):
        caps = {cls: 150.0 for cls in WorkloadClass}
        policy = CapPolicy(caps_w=caps)  # fine on the default a100-40g
        assert policy.caps_w[WorkloadClass.BASIC_DFT] == 150.0

    def test_disabled_policy_returns_platform_tdp(self, pdo2):
        policy = CapPolicy(enabled=False, platform="h100-sxm")
        assert policy.cap_for(pdo2) == 700.0


class TestFleetPlatforms:
    @pytest.fixture(scope="class")
    def jobs(self):
        return job_stream(n_jobs=4, seed=7)

    def test_fleet_runs_on_h100(self, jobs):
        report = simulate_fleet(
            FleetRun(jobs, "capped", n_nodes=8, platforms=("h100-sxm",))
        )
        assert report.jobs_completed == len(jobs)

    def test_traced_fleet_completes_on_h100(self, jobs):
        monitor = FleetMonitor("h100-sxm")
        report = simulate_fleet_traced(
            FleetRun(
                jobs,
                "capped",
                n_nodes=8,
                platforms=("h100-sxm",),
                engine_config=ENGINE,
                seed=7,
            ),
            monitor=monitor,
        )
        assert report.jobs_completed == len(jobs)
        assert report.peak_power_w > 0

    def test_platform_changes_fleet_power(self, jobs):
        kwargs = dict(n_nodes=8, engine_config=ENGINE, seed=7)
        a100 = simulate_fleet_traced(FleetRun(jobs, "uncapped", **kwargs))
        h100 = simulate_fleet_traced(
            FleetRun(jobs, "uncapped", platforms=("h100-sxm",), **kwargs)
        )
        assert a100.system != h100.system

    def test_mixed_pool_clamps_caps_per_node(self, jobs):
        """An A100/H100 pool completes under a 200 W A100 policy: the cap
        is clamped into each node's own range before being applied."""
        monitor = FleetMonitor()
        report = simulate_fleet_traced(
            FleetRun(
                jobs,
                "capped",  # 200 W on the first (A100) entry — the H100 floor
                n_nodes=8,
                platforms=("a100-40g", "h100-sxm"),
                engine_config=ENGINE,
                seed=7,
            ),
            monitor=monitor,
        )
        assert report.jobs_completed == len(jobs)
        # The monitor judged each node against its own platform band, so
        # a healthy mixed pool raises no idle outliers.
        assert not [s for s in monitor.signals if s.kind == "idle_outlier"]

    def test_mixed_pool_budget_sums_both_specs(self, jobs):
        h100_tdp = get_platform("h100-sxm").node.tdp_w
        a100_tdp = get_platform("a100-40g").node.tdp_w
        report = simulate_fleet_traced(
            FleetRun(
                jobs,
                "uncapped",
                n_nodes=4,
                platforms=("a100-40g", "h100-sxm"),
                engine_config=ENGINE,
                seed=7,
            )
        )
        assert report.schedule.budget_w == 2 * a100_tdp + 2 * h100_tdp
