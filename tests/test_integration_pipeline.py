"""End-to-end integration tests across subsystem boundaries.

Each test exercises a realistic multi-module path a user would take:
workload -> cap policy -> engine -> telemetry -> analysis, asserting
cross-module consistency rather than any single module's behaviour.
"""

import numpy as np
import pytest

from repro.analysis.modes import high_power_mode_w
from repro.analysis.stats import summarize
from repro.capping.policy import CapPolicy
from repro.experiments.common import make_nodes
from repro.runner.engine import PowerEngine
from repro.telemetry.sampler import LdmsSampler, SamplerConfig
from repro.vasp.benchmarks import benchmark
from repro.vasp.parallel import ParallelConfig


class TestPolicyToAnalysisPipeline:
    """The full user path: policy-capped run in, power statistics out."""

    def test_policy_cap_to_high_power_mode(self):
        workload = benchmark("PdO2").build()
        nodes = make_nodes(1)
        # The scheduler-side policy decides the cap from the workload.
        cap = CapPolicy.half_tdp().cap_for(workload)

        engine = PowerEngine(nodes)
        result = engine.run(workload.phases(ParallelConfig(1)), seed=11, cap_w=cap)
        assert result.gpu_power_cap_w == cap

        # Telemetry -> analysis, as NERSC's LDMS stack feeds it.
        series = LdmsSampler(SamplerConfig(seed=2)).sample(result.traces[0])
        hpm = high_power_mode_w(series.values)
        # Capped PdO2 stays under (4 x cap + host power) comfortably.
        assert hpm < 4 * cap + 400
        assert hpm > 500


class TestCapConsistencyAcrossPaths:
    """The engine pipeline and the analytic estimator must agree."""

    @pytest.mark.parametrize("cap", [300.0, 200.0])
    def test_slowdown_agreement(self, cap):
        from repro.capping.scheduler import estimate_run

        workload = benchmark("Si128_acfdtr").build()
        est_base = estimate_run(workload, 1, 400.0).runtime_s
        est_capped = estimate_run(workload, 1, cap).runtime_s

        nodes = make_nodes(1)
        engine = PowerEngine(nodes)
        phases = workload.phases(ParallelConfig(1))
        base = engine.run(phases, seed=5).runtime_s
        capped = engine.run(phases, seed=5, cap_w=cap).runtime_s

        assert capped / base == pytest.approx(est_capped / est_base, rel=0.02)


class TestMultiNodeConsistency:
    def test_nodes_share_schedule_but_not_power(self):
        """All nodes see identical phase timing (synchronized ranks) but
        slightly different power (manufacturing variation)."""
        workload = benchmark("PdO2").build()
        nodes = make_nodes(2)
        result = PowerEngine(nodes).run(
            workload.phases(ParallelConfig(2)), seed=3
        )
        t0, t1 = result.traces
        np.testing.assert_array_equal(t0.times, t1.times)
        assert abs(t0.node_power.mean() - t1.node_power.mean()) > 1.0
        assert abs(t0.node_power.mean() - t1.node_power.mean()) < 120.0

    def test_telemetry_summary_stable_across_sampler_seeds(self):
        """The high power mode survives telemetry drop randomness."""
        workload = benchmark("PdO4").build()
        result = PowerEngine(make_nodes(1)).run(
            workload.phases(ParallelConfig(1)), seed=4
        )
        modes = []
        for sampler_seed in (1, 2, 3):
            series = LdmsSampler(SamplerConfig(seed=sampler_seed)).sample(
                result.traces[0]
            )
            modes.append(high_power_mode_w(series.values))
        assert max(modes) - min(modes) < 0.04 * max(modes)


class TestArchiveRoundTripPipeline:
    def test_archive_reproduces_statistics(self, tmp_path):
        """Statistics re-derived from archived CSV match the live run."""
        from repro.io import load_trace_csv, save_trace_csv

        workload = benchmark("PdO2").build()
        result = PowerEngine(make_nodes(1)).run(
            workload.phases(ParallelConfig(1)), seed=6
        )
        live = summarize(result.traces[0].node_power)
        path = save_trace_csv(result.traces[0], tmp_path / "trace.csv")
        archived = summarize(load_trace_csv(path).node_power)
        assert archived.high_power_mode_w == pytest.approx(
            live.high_power_mode_w, abs=1.0
        )
        assert archived.max_w == pytest.approx(live.max_w, abs=0.01)
