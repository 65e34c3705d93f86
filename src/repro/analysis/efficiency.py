"""Scaling metrics: speedup, parallel efficiency, energy-to-solution.

The paper defines parallel efficiency as ``S / N`` with speedup
``S = T(1) / T(N)`` (its footnote 2) and recommends 70 %+ for optimal
resource use; energy-to-solution is reported in megajoules (Figs 7, 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units.constants import J_PER_MJ


def speedup(t_reference_s: float, t_parallel_s: float) -> float:
    """Speedup over the reference (usually single-node) runtime."""
    if t_reference_s <= 0 or t_parallel_s <= 0:
        raise ValueError("runtimes must be positive")
    return t_reference_s / t_parallel_s


def parallel_efficiency(
    t_reference_s: float, t_parallel_s: float, n_nodes: int, reference_nodes: int = 1
) -> float:
    """Parallel efficiency S/N, normalized to the reference node count."""
    if n_nodes < 1 or reference_nodes < 1:
        raise ValueError("node counts must be >= 1")
    scale = n_nodes / reference_nodes
    return speedup(t_reference_s, t_parallel_s) / scale


def energy_to_solution_mj(total_energy_j: float) -> float:
    """Energy-to-solution in megajoules (the paper's unit)."""
    if total_energy_j < 0:
        raise ValueError(f"energy must be non-negative, got {total_energy_j}")
    return total_energy_j / J_PER_MJ


@dataclass(frozen=True)
class ScalingPoint:
    """One node count in a strong-scaling sweep."""

    n_nodes: int
    runtime_s: float
    speedup: float
    parallel_efficiency: float
    energy_mj: float | None = None


def scaling_table(
    node_counts: list[int],
    runtimes_s: list[float],
    energies_j: list[float] | None = None,
) -> list[ScalingPoint]:
    """Build a strong-scaling table from matched sweeps.

    The first entry is the reference (its efficiency is 1 by definition
    when it is the smallest node count).
    """
    if len(node_counts) != len(runtimes_s):
        raise ValueError("node_counts and runtimes_s must have equal length")
    if not node_counts:
        raise ValueError("empty scaling sweep")
    if energies_j is not None and len(energies_j) != len(node_counts):
        raise ValueError("energies_j length mismatch")
    ref_nodes, ref_time = node_counts[0], runtimes_s[0]
    points = []
    for i, (n, t) in enumerate(zip(node_counts, runtimes_s)):
        points.append(
            ScalingPoint(
                n_nodes=n,
                runtime_s=t,
                speedup=speedup(ref_time, t),
                parallel_efficiency=parallel_efficiency(ref_time, t, n, ref_nodes),
                energy_mj=(
                    energy_to_solution_mj(energies_j[i]) if energies_j is not None else None
                ),
            )
        )
    return points
