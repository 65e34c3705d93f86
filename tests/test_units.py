"""Unit tests for repro.units: the hardware constants."""

import pytest

from repro.units import (
    A100_40GB,
    CPU_MILAN,
    DDR4_256GB,
    PERLMUTTER_GPU_NODE,
    PERLMUTTER_SYSTEM_TDP_W,
    SLINGSHOT_NIC,
)


class TestPaperConstants:
    """Values quoted in Section II-A of the paper."""

    def test_a100_tdp_is_400w(self):
        assert A100_40GB.tdp_w == 400.0

    def test_a100_cap_range(self):
        assert (A100_40GB.cap_min_w, A100_40GB.cap_max_w) == (100.0, 400.0)

    def test_a100_memory(self):
        assert A100_40GB.hbm_gib == 40.0

    def test_cpu_tdp_is_280w(self):
        assert CPU_MILAN.tdp_w == 280.0

    def test_node_tdp_is_2350w(self):
        assert PERLMUTTER_GPU_NODE.tdp_w == 2350.0

    def test_node_has_four_gpus(self):
        assert PERLMUTTER_GPU_NODE.gpus_per_node == 4

    def test_node_idle_window(self):
        assert PERLMUTTER_GPU_NODE.idle_min_w == 410.0
        assert PERLMUTTER_GPU_NODE.idle_max_w == 510.0

    def test_system_tdp(self):
        assert PERLMUTTER_SYSTEM_TDP_W == pytest.approx(6.9e6)

    def test_component_budget_matches_node_tdp(self):
        """CPU (280) + 4 GPUs (1600) + peripherals (470) = 2350 W."""
        gpus = PERLMUTTER_GPU_NODE.gpus_per_node * A100_40GB.tdp_w
        peripherals = PERLMUTTER_GPU_NODE.tdp_w - CPU_MILAN.tdp_w - gpus
        assert peripherals == pytest.approx(470.0)

    def test_envelope_orderings(self):
        assert A100_40GB.idle_w < A100_40GB.static_w < A100_40GB.tdp_w
        assert CPU_MILAN.idle_w < CPU_MILAN.tdp_w
        assert DDR4_256GB.idle_w < DDR4_256GB.max_w
        assert SLINGSHOT_NIC.idle_w < SLINGSHOT_NIC.max_w

    def test_nominal_idle_node_inside_observed_window(self):
        """4 GPU idle + CPU idle + DDR idle + 4 NIC idle + baseboard sits
        inside the 410-510 W band the paper reports."""
        idle = (
            4 * A100_40GB.idle_w
            + CPU_MILAN.idle_w
            + DDR4_256GB.idle_w
            + 4 * SLINGSHOT_NIC.idle_w
            + PERLMUTTER_GPU_NODE.baseboard_w
        )
        assert PERLMUTTER_GPU_NODE.idle_min_w <= idle <= PERLMUTTER_GPU_NODE.idle_max_w
