"""Tests for the report renderer and the shared experiment plumbing."""

import numpy as np
import pytest

from repro.experiments.common import MeasuredRun, make_nodes, run_cache, run_workload
from repro.experiments.report import format_table, sparkline
from repro.hardware.gpu import PowerLimitError
from repro.vasp.benchmarks import benchmark


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(
            headers=["Name", "Watts"],
            rows=[["a", 1200.5], ["bb", 75.25]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "Name" in lines[1] and "Watts" in lines[1]
        assert "-+-" in lines[2]
        # Numbers right-aligned, text left-aligned.
        assert lines[3].startswith("a ")
        assert lines[3].rstrip().endswith("1,200")

    def test_number_formatting(self):
        text = format_table(["x"], [[0.123456], [12.3456], [12345.6], [True], [None]])
        assert "0.123" in text
        assert "12.3" in text
        assert "12,346" in text
        assert "yes" in text

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            format_table([], [])
        with pytest.raises(ValueError, match="row 0"):
            format_table(["a", "b"], [["only one"]])


class TestSparkline:
    def test_length_capped(self):
        line = sparkline(np.linspace(0, 1, 500), width=40)
        assert len(line) <= 40

    def test_monotone_ramp(self):
        line = sparkline([0.0, 0.5, 1.0], width=10)
        assert line[0] == " "
        assert line[-1] == "@"

    def test_constant_series(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(set(line)) == 1

    def test_empty(self):
        assert sparkline([]) == ""


class TestRunWorkloadPlumbing:
    def test_telemetry_interval(self):
        measured = run_workload(benchmark("PdO2").build(), n_nodes=1, seed=1)
        telem = measured.telemetry[0]
        assert telem.sample_interval_s == pytest.approx(2.0, rel=0.01)

    def test_cap_applied_and_reset_semantics(self):
        """A capped run leaves nothing behind: the next uncapped run is at the TDP."""
        workload = benchmark("PdO2").build()
        capped = run_workload(workload, n_nodes=1, gpu_cap_w=100.0)
        uncapped = run_workload(workload, n_nodes=1)
        assert capped.result.gpu_power_cap_w == 100.0
        assert uncapped.result.gpu_power_cap_w == 400.0
        assert capped.runtime_s > uncapped.runtime_s
        assert capped.gpu_summary().max_w < uncapped.gpu_summary().max_w

    @pytest.mark.parametrize("cache", ["1", "0"])
    @pytest.mark.parametrize("cap_w", [99.0, 401.0])
    def test_out_of_range_cap_raises(self, monkeypatch, cache, cap_w):
        monkeypatch.setenv("REPRO_CACHE", cache)
        run_cache().clear()
        with pytest.raises(PowerLimitError, match=r"\[100, 400\] W"):
            run_workload(benchmark("PdO2").build(), gpu_cap_w=cap_w)
        assert len(run_cache()) == 0

    def test_measured_run_accessors(self):
        measured: MeasuredRun = run_workload(benchmark("PdO2").build(), seed=1)
        assert measured.runtime_s > 0
        assert measured.energy_mj() > 0
        summary = measured.node_summary()
        assert summary.min_w < summary.high_power_mode_w <= summary.max_w
        gpu = measured.gpu_summary(gpu_index=2)
        assert gpu.max_w < 450.0

    def test_make_nodes_validation(self):
        with pytest.raises(ValueError):
            make_nodes(0)


class TestPlatformCacheIsolation:
    """run_workload keys its cache on the platform (satellite of the
    platform-registry refactor): identical arguments on two platforms
    must never collide."""

    @pytest.fixture(scope="class")
    def coarse(self):
        from repro.runner.engine import EngineConfig

        return EngineConfig(base_interval_s=1.0)

    def test_platforms_do_not_share_entries(self, coarse):
        wl = benchmark("PdO2").build()
        a100 = run_workload(wl, seed=11, engine_config=coarse)
        h100 = run_workload(wl, seed=11, engine_config=coarse, platform="h100-sxm")
        assert a100.result.total_energy_j() != h100.result.total_energy_j()
        # A repeat lookup returns the matching platform's run, not the
        # other platform's cached result.
        again = run_workload(wl, seed=11, engine_config=coarse, platform="h100-sxm")
        assert again.result.total_energy_j() == h100.result.total_energy_j()

    def test_explicit_default_platform_is_same_entry(self, coarse):
        wl = benchmark("PdO2").build()
        implicit = run_workload(wl, seed=11, engine_config=coarse)
        explicit = run_workload(wl, seed=11, engine_config=coarse, platform="a100-40g")
        assert implicit.result.total_energy_j() == explicit.result.total_energy_j()

    def test_platform_nodes_flow_through_run(self, coarse, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        wl = benchmark("PdO2").build()
        measured = run_workload(wl, seed=11, engine_config=coarse, platform="v100-sxm2")
        # V100 nodes peak far below an A100 node's ~2.3 kW ceiling.
        assert measured.node_summary().mean_w < 1700.0
