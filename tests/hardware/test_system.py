"""Unit tests for the system-level node pool and streaming aggregation."""

import numpy as np
import pytest

from repro.hardware.system import (
    AllocationError,
    PerlmutterSystem,
    RunningMoments,
    SystemPowerAccumulator,
)


@pytest.fixture
def system() -> PerlmutterSystem:
    return PerlmutterSystem(n_nodes=8)


class TestAllocation:
    def test_allocate_release_roundtrip(self, system):
        names = system.allocate_names("job1", 3)
        assert len(names) == 3
        with pytest.raises(AllocationError):
            system.allocate_names("rest", 6)
        system.release("job1")
        assert system.allocate_names("rest", 8) == sorted(system.nodes)

    def test_allocation_is_deterministic(self, system):
        assert system.allocate_names("job1", 2) == ["nid001000", "nid001001"]

    def test_double_allocation_rejected(self, system):
        system.allocate_names("job1", 1)
        with pytest.raises(AllocationError):
            system.allocate_names("job1", 1)

    def test_overcommit_rejected(self, system):
        with pytest.raises(AllocationError):
            system.allocate_names("big", 9)

    def test_release_unknown_job(self, system):
        with pytest.raises(AllocationError):
            system.release("ghost")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_allocations_match_sorted_free_oracle(self, seed):
        """A seeded allocate/release trace hands out ``sorted(free)[:n]``
        at every allocation."""
        rng = np.random.default_rng(seed)
        system = PerlmutterSystem(n_nodes=40)
        free = set(system.nodes)
        held: dict[str, list[str]] = {}
        for step in range(400):
            if held and (not free or rng.random() < 0.45):
                job = sorted(held)[int(rng.integers(len(held)))]
                system.release(job)
                free.update(held.pop(job))
            else:
                n = int(rng.integers(1, min(len(free), 6) + 1))
                job = f"job{step}"
                names = system.allocate_names(job, n)
                assert names == sorted(free)[:n]
                free.difference_update(names)
                held[job] = names

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            PerlmutterSystem(n_nodes=0)


class TestRunningMoments:
    def test_matches_numpy_single_batch(self):
        rng = np.random.default_rng(0)
        values = rng.normal(1000.0, 50.0, size=500)
        m = RunningMoments()
        m.update(values)
        assert m.count == 500
        assert m.mean == pytest.approx(float(values.mean()))
        assert m.variance == pytest.approx(float(values.var()))
        assert m.std == pytest.approx(float(values.std()))
        assert m.peak == pytest.approx(float(values.max()))
        assert m.minimum == pytest.approx(float(values.min()))
        assert m.total == pytest.approx(float(values.sum()))

    def test_chunked_updates_match_whole(self):
        """Chan's batch merge over arbitrary splits agrees with numpy."""
        rng = np.random.default_rng(1)
        values = rng.normal(500.0, 30.0, size=1000)
        m = RunningMoments()
        for chunk in np.array_split(values, [3, 50, 51, 700]):
            m.update(chunk)
        assert m.count == 1000
        assert m.mean == pytest.approx(float(values.mean()), rel=1e-12)
        assert m.variance == pytest.approx(float(values.var()), rel=1e-9)

    def test_empty_moments(self):
        m = RunningMoments()
        assert m.count == 0
        assert m.variance == 0.0
        assert m.peak == 0.0
        m.update(np.empty(0))
        assert m.count == 0


class TestSystemPowerAccumulator:
    def test_matches_dense_computation(self):
        """Streaming bins agree with a direct dense system-power series."""
        n_nodes, bin_s, idle_w = 4, 1.0, 460.0
        dt = 0.1
        acc = SystemPowerAccumulator(n_nodes=n_nodes, bin_s=bin_s, idle_node_w=idle_w)
        # One job: 10 s of 1000 W on 2 nodes, starting at t=0 on the grid.
        n = int(10.0 / dt)
        times = (np.arange(n) + 0.5) * dt
        powers = np.full(n, 1000.0)
        for node in range(2):
            acc.add_samples(0.0, times, powers, dt)
        acc.add_busy_interval(0.0, 10.0, 2)
        stats = acc.finalize()
        # Dense reference: every 1 s bin holds 2 kW of job power plus
        # 2 idle nodes.
        expected_bin = 2 * 1000.0 + 2 * idle_w
        assert stats.mean_power_w == pytest.approx(expected_bin)
        assert stats.peak_power_w == pytest.approx(expected_bin)
        assert stats.power_std_w == pytest.approx(0.0, abs=1e-6)
        assert stats.n_bins == 10
        assert stats.energy_j == pytest.approx(
            2 * 1000.0 * 10.0 + 2 * idle_w * 10.0
        )

    def test_offset_job_lands_in_later_bins(self):
        acc = SystemPowerAccumulator(n_nodes=1, bin_s=1.0, idle_node_w=0.0)
        times = np.array([0.05, 0.15])
        acc.add_samples(5.0, times, np.array([100.0, 100.0]), 0.1)
        acc.add_busy_interval(5.0, 5.2, 1)
        stats = acc.finalize()
        assert stats.n_bins == 6
        assert stats.peak_power_w == pytest.approx(100.0 * 2 * 0.1 / 1.0)
        assert stats.horizon_s == pytest.approx(5.2)

    def test_fractional_busy_interval(self):
        """Partial bin occupancy draws proportional idle power."""
        acc = SystemPowerAccumulator(n_nodes=1, bin_s=1.0, idle_node_w=100.0)
        acc.add_busy_interval(0.0, 0.5, 1)
        stats = acc.finalize()
        # Node busy half the bin: half a node-second of the bin is idle.
        assert stats.mean_power_w == pytest.approx(50.0)

    def test_bins_grow_on_demand(self):
        acc = SystemPowerAccumulator(n_nodes=1, bin_s=1.0)
        before = acc.resident_bytes
        acc.add_samples(5000.0, np.array([0.5]), np.array([10.0]), 1.0)
        assert acc.resident_bytes > before
        assert acc.samples_added == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemPowerAccumulator(n_nodes=0)
        with pytest.raises(ValueError):
            SystemPowerAccumulator(n_nodes=1, bin_s=0.0)
