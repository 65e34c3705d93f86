"""Per-row scalar resolves against the per-phase loops they replaced.

The admission estimator, the MILC cap slowdown and the DVFS study
resolve each distinct phase-table row once (``GpuModel.resolve_rows``)
and accumulate phase by phase.  Each oracle
below is the per-phase loop the code ran before — one
``GpuModel.resolve_phase`` per phase — and the results must be equal
with ``==``, field by field, not close: estimates set schedule times,
so a one-ulp change would move every fleet digest.
"""

import math

import numpy as np
import pytest

from repro.apps.milc import milc_benchmark, milc_cap_slowdown
from repro.capping.dvfsctl import (
    CLOCK_LADDER,
    run_with_capping,
    run_with_static_dvfs,
)
from repro.capping.scheduler import RunEstimate, estimate_run
from repro.hardware.gpu import GpuModel, PowerLimitError
from repro.hardware.platform import get_platform, platform_ids
from repro.hardware.variability import ManufacturingVariation
from repro.perfmodel.dvfs import capped_phase_slowdown, sustained_power_w
from repro.perfmodel.power import demand_power_w, duty_cycle_power_w
from repro.runner.cache import cached_phases
from repro.vasp.benchmarks import benchmark
from repro.workloads import resolve_widths, resolve_workload, workload_refs

CAPS = [None] + [float(cap) for cap in range(100, 401, 50)]


def estimate_run_per_phase(workload, n_nodes, cap_w=None, platform=None):
    """The estimator as one scalar resolve per phase."""
    node_spec = get_platform(platform).node
    gpu = GpuModel(
        serial="NOMINAL", spec=node_spec.gpu, variation=ManufacturingVariation.nominal()
    )
    phases = cached_phases(workload, n_nodes)
    total_time = 0.0
    total_energy = 0.0
    peak = 0.0
    gpus_per_node = node_spec.gpus_per_node
    for phase in phases:
        profile = phase.gpu_profile
        if profile.duty_cycle <= 0.0:
            gpu_w = gpu.idle_power_w
            duration = phase.duration_s
        else:
            demand = demand_power_w(profile, gpu.envelope)
            sample = gpu.resolve_phase(demand, profile.compute_fraction, cap_w)
            gpu_w = duty_cycle_power_w(
                sample.power_w, profile.duty_cycle, gpu.idle_power_w
            )
            duration = phase.duration_s * (
                profile.duty_cycle * sample.slowdown + (1.0 - profile.duty_cycle)
            )
        node_w = gpus_per_node * gpu_w + node_spec.host_power_w
        total_time += duration
        total_energy += duration * node_w
        peak = max(peak, node_w)
    mean_power = total_energy / total_time if total_time > 0 else node_spec.idle_node_w
    return RunEstimate(
        runtime_s=total_time, mean_node_power_w=mean_power, peak_node_power_w=peak
    )


def milc_cap_slowdown_per_phase(workload, cap_w, n_nodes=1):
    """The MILC cap slowdown as one scalar resolve per phase."""
    gpu = GpuModel(serial="MILC", variation=ManufacturingVariation.nominal())
    base = 0.0
    capped = 0.0
    for phase in cached_phases(workload, n_nodes):
        profile = phase.gpu_profile
        base += phase.duration_s
        if profile.duty_cycle <= 0:
            capped += phase.duration_s
            continue
        demand = demand_power_w(profile, gpu.envelope)
        sample = gpu.resolve_phase(demand, profile.compute_fraction, cap_w)
        capped += phase.duration_s * (
            profile.duty_cycle * sample.slowdown + (1.0 - profile.duty_cycle)
        )
    return capped / base if base > 0 else math.nan


def control_outcome_per_phase(
    workload, target_w, n_nodes=1, platform=None, provision_for=None
):
    """The DVFS study phase by phase: capping (``provision_for=None``)
    with one scalar resolve per phase, or static DVFS provisioned for
    the ``"worst"`` or ``"mean"`` demand.  Returns ``(runtime, mean
    power, peak power, tracking error)``."""
    gpu = GpuModel(
        serial="CTL",
        spec=get_platform(platform).gpu,
        variation=ManufacturingVariation.nominal(),
    )
    phases = cached_phases(workload, n_nodes)
    static = gpu.envelope.static_w
    clock = None
    if provision_for is not None:
        active = [p for p in phases if p.gpu_profile.duty_cycle > 0]
        demands = [demand_power_w(p.gpu_profile, gpu.envelope) for p in active]
        if provision_for == "worst":
            reference = max(demands)
        else:
            weights = [p.duration_s * p.gpu_profile.duty_cycle for p in active]
            reference = float(np.average(demands, weights=weights))
        clock = gpu.spec.min_clock_fraction
        for step in CLOCK_LADDER:
            if sustained_power_w(reference, step, static) <= target_w:
                clock = step
                break
    total_time = total_energy = peak = sq_err = err_time = 0.0
    for phase in phases:
        profile = phase.gpu_profile
        duty = profile.duty_cycle
        demand = demand_power_w(profile, gpu.envelope) if duty > 0 else 0.0
        if duty <= 0.0:
            active_power = gpu.envelope.idle_w
            slowdown = 1.0
        elif clock is None:
            sample = gpu.resolve_phase(demand, profile.compute_fraction, target_w)
            active_power = sample.power_w
            slowdown = duty * sample.slowdown + (1.0 - duty)
        else:
            active_power = float(sustained_power_w(demand, clock, static))
            slowdown = float(
                capped_phase_slowdown(clock, profile.compute_fraction, duty)
            )
        wall = phase.duration_s * slowdown
        avg = duty_cycle_power_w(active_power, duty, gpu.envelope.idle_w)
        total_time += wall
        total_energy += wall * avg
        if duty > 0:
            peak = max(peak, active_power)
            if demand > target_w:
                sq_err += wall * (active_power - target_w) ** 2
                err_time += wall
    return (
        total_time,
        total_energy / total_time if total_time > 0 else 0.0,
        peak,
        float(np.sqrt(sq_err / err_time)) if err_time > 0 else 0.0,
    )


def in_range(cap_w, platform):
    if cap_w is None:
        return True
    gpu = get_platform(platform).gpu
    return gpu.cap_min_w <= cap_w <= gpu.cap_max_w


@pytest.mark.parametrize("ref", workload_refs())
def test_estimate_equals_per_phase_loop(ref):
    """Every registry workload x default widths x caps x platforms."""
    workload = resolve_workload(ref)
    compared = 0
    for n_nodes in resolve_widths(ref):
        for platform in platform_ids():
            for cap_w in CAPS:
                if not in_range(cap_w, platform):
                    with pytest.raises(PowerLimitError):
                        estimate_run(workload, n_nodes, cap_w, platform)
                    continue
                got = estimate_run(workload, n_nodes, cap_w, platform)
                want = estimate_run_per_phase(workload, n_nodes, cap_w, platform)
                assert got.runtime_s == want.runtime_s
                assert got.mean_node_power_w == want.mean_node_power_w
                assert got.peak_node_power_w == want.peak_node_power_w
                compared += 1
    assert compared > 0


@pytest.mark.parametrize("size", ["small", "medium", "large"])
def test_milc_cap_slowdown_equals_per_phase_loop(size):
    workload = milc_benchmark(size)
    for cap_w in CAPS[1:]:
        for n_nodes in (1, 2):
            assert milc_cap_slowdown(workload, cap_w, n_nodes) == (
                milc_cap_slowdown_per_phase(workload, cap_w, n_nodes)
            )
    for cap_w in (99.0, 401.0):
        with pytest.raises(PowerLimitError):
            milc_cap_slowdown(workload, cap_w)


@pytest.mark.parametrize("name", ["Si256_hse", "Si128_acfdtr", "GaAsBi-64", "PdO2"])
@pytest.mark.parametrize("provision_for", [None, "worst", "mean"])
def test_control_study_equals_per_phase_loop(name, provision_for):
    workload = benchmark(name).build()
    for platform in ("a100-40g", "h100-sxm"):
        for target_w in CAPS[1:]:
            if not in_range(target_w, platform):
                if provision_for is None:
                    with pytest.raises(PowerLimitError):
                        run_with_capping(workload, target_w, 1, platform)
                continue
            if provision_for is None:
                outcome = run_with_capping(workload, target_w, 1, platform)
            else:
                outcome = run_with_static_dvfs(
                    workload, target_w, 1, provision_for, platform
                )
            assert (
                outcome.runtime_s,
                outcome.mean_power_w,
                outcome.peak_power_w,
                outcome.tracking_error_w,
            ) == control_outcome_per_phase(
                workload, target_w, 1, platform, provision_for
            )
