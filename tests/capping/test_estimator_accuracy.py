"""The analytic estimator against the engine it shortcuts.

``estimate_run`` answers the CLI's and the scheduler's "runtime and
energy at this cap" questions without rendering a trace.  This is the
evidence that it may: over every registry workload reference, its first
two healthy widths and three caps on the default a100-40g, its runtime
equals the engine's exactly and its per-node energy stays within a
stated bound of an uncached ``run_workload``.

Measured maxima (147 points, 42 of them Table I benchmarks): per-node
energy error 0.171 overall (``multiphysics``, 1 node, 400 W) and 0.068
on Table I (``Si128_acfdtr``, 1 node, 100 W).  The bounds leave about
17 % headroom over each.
"""

import pytest

from repro.capping.scheduler import estimate_run
from repro.experiments.common import run_workload
from repro.vasp.benchmarks import benchmark_names
from repro.workloads import resolve_widths, resolve_workload, workload_refs

#: Caps of the grid, W (floor, half TDP and TDP of the a100-40g).
GRID_CAPS_W = (100.0, 250.0, 400.0)
#: Per-node energy error bound over the whole grid (measured max 0.171).
ENERGY_BOUND = 0.20
#: Per-node energy error bound on the Table I benchmarks (measured max 0.068).
TABLE1_ENERGY_BOUND = 0.08


@pytest.fixture(scope="module")
def grid():
    """(ref, nodes, cap, estimate, uncached engine run) for every point."""
    points = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE", "0")
        for ref in workload_refs():
            workload = resolve_workload(ref)
            for n_nodes in resolve_widths(ref)[:2]:
                for cap_w in GRID_CAPS_W:
                    estimate = estimate_run(workload, n_nodes, cap_w)
                    measured = run_workload(workload, n_nodes=n_nodes, gpu_cap_w=cap_w)
                    points.append((ref, n_nodes, cap_w, estimate, measured))
    return points


def energy_error(estimate, measured, n_nodes: int) -> float:
    exact_j = measured.result.total_energy_j() / n_nodes
    return abs(estimate.energy_per_node_j - exact_j) / exact_j


def test_grid_covers_every_reference(grid):
    assert len(grid) == 147
    assert {ref for ref, *_ in grid} == set(workload_refs())


def test_runtime_is_exact(grid):
    misses = [
        (ref, n_nodes, cap_w, estimate.runtime_s, measured.runtime_s)
        for ref, n_nodes, cap_w, estimate, measured in grid
        if estimate.runtime_s != measured.runtime_s
    ]
    assert misses == []


def test_energy_per_node_within_bound(grid):
    worst = max(
        (energy_error(estimate, measured, n_nodes), ref, n_nodes, cap_w)
        for ref, n_nodes, cap_w, estimate, measured in grid
    )
    assert worst[0] <= ENERGY_BOUND, worst


def test_table1_energy_per_node_within_bound(grid):
    table1 = set(benchmark_names())
    errors = [
        (energy_error(estimate, measured, n_nodes), ref, n_nodes, cap_w)
        for ref, n_nodes, cap_w, estimate, measured in grid
        if ref in table1
    ]
    assert {ref for _, ref, *_ in errors} == table1
    worst = max(errors)
    assert worst[0] <= TABLE1_ENERGY_BOUND, worst
