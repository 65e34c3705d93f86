"""Feature extraction for power prediction.

Features use only scheduler-visible information: INCAR tags, structure
size, k-mesh and the requested node count — the paper's point is that the
batch system can classify jobs "without costly computation".  The feature
set encodes the power drivers Section IV identifies: plane waves
(occupancy), bands per GPU (duty), method class (kernel mix) and
concurrency.

The surrogate extension (:func:`surrogate_feature_vector`) appends the
two dimensions the base vector is blind to: the applied GPU power cap
and the hardware platform's spec envelope — so one model can regress
across (workload, node count, cap, platform) grid points instead of
memorizing a single machine at its TDP.

Method-class features (``is_hse``/``is_rpa``) are derived from INCAR
tags, never from the workload *name*; accuracy claims about them must
come from a held-out workload × cap split
(:func:`repro.prediction.evaluate.evaluate_surrogate`), not from
training points.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hardware.platform import Platform, get_platform
from repro.runner.cache import cached_phases
from repro.vasp.methods import Functional
from repro.vasp.parallel import layout_for
from repro.vasp.workload import VaspWorkload

#: Names of the feature-vector entries, in order.
FEATURE_NAMES: tuple[str, ...] = (
    "bias",
    "log_nplwv",
    "log_bands_per_rank",
    "log_electrons",
    "is_hse",
    "is_rpa",
    "kpoint_churn",
    "log_nodes",
)

#: Names of the surrogate feature-vector entries: the base workload
#: features plus the cap and platform-spec terms, in order.
SURROGATE_FEATURE_NAMES: tuple[str, ...] = FEATURE_NAMES + (
    "log_nelm",
    "log_kpoints",
    "cap_fraction",
    "cap_depth",
    "cap_depth_sq",
    "cap_depth_hse",
    "log_gpu_tdp",
    "log_hbm_bw",
    "log_fp64_tflops",
    "host_fraction",
)


def _phase_statistics(workload, n_nodes: int) -> dict[str, float]:
    """Duration-weighted utilization statistics of a phase schedule.

    The generic analogue of reading the INCAR: any zoo workload exposes
    ``phases(parallel)``, and the schedule alone (no engine run) carries
    the power drivers — how busy the GPU is, how compute- vs
    bandwidth-bound the kernel time is, and how much wall time exists.
    """
    phases = cached_phases(workload, n_nodes)
    total = sum(p.duration_s for p in phases)
    busy = sum(p.duration_s * p.gpu_profile.duty_cycle for p in phases)
    weight = busy if busy > 0 else 1.0
    compute = (
        sum(
            p.duration_s * p.gpu_profile.duty_cycle * p.gpu_profile.compute_utilization
            for p in phases
        )
        / weight
    )
    memory = (
        sum(
            p.duration_s * p.gpu_profile.duty_cycle * p.gpu_profile.memory_utilization
            for p in phases
        )
        / weight
    )
    compute_fraction = (
        sum(
            p.duration_s * p.gpu_profile.duty_cycle * p.gpu_profile.compute_fraction
            for p in phases
        )
        / weight
    )
    return {
        "total_s": total,
        "busy_s": busy,
        "n_phases": float(len(phases)),
        "duty": busy / total if total > 0 else 0.0,
        "compute": compute,
        "memory": memory,
        "compute_fraction": compute_fraction,
    }


def _generic_feature_vector(workload, n_nodes: int) -> np.ndarray:
    """Phase-schedule features for non-VASP zoo workloads.

    Fills the same eight slots as the VASP vector with the closest
    schedule-derived analogue (work volume -> wall/busy time, method
    one-hots -> achieved utilizations, k-point churn -> duty cycle); the
    two-stage surrogate clusters profiles before regressing, so VASP and
    zoo points land in different ridge heads and the per-slot semantics
    never mix inside one linear model.
    """
    stats = _phase_statistics(workload, n_nodes)
    return np.array(
        [
            1.0,
            math.log10(max(stats["total_s"], 1.0)),
            math.log10(max(stats["busy_s"], 1.0)),
            math.log10(max(stats["n_phases"], 1.0)),
            stats["compute"],
            stats["memory"],
            stats["duty"],
            math.log2(n_nodes),
        ]
    )


def feature_vector(workload, n_nodes: int) -> np.ndarray:
    """Scheduler-visible features for one (workload, node count) pair.

    VASP workloads use the paper's INCAR-derived vector below,
    byte-for-byte as before; any other registered workload model gets
    the schedule-derived :func:`_generic_feature_vector` of the same
    dimensionality.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if not isinstance(workload, VaspWorkload):
        return _generic_feature_vector(workload, n_nodes)
    parallel = layout_for(workload, n_nodes)
    functional = workload.incar.functional
    bands_per_rank = parallel.bands_per_rank(workload.nbands)
    k_per_group = workload.kpoints.kpoints_per_group(workload.incar.kpar)
    # The basic-DFT family (LDA/GGA/vdW) is the reference class; vdW adds
    # only a minor correction (Section IV-D treats it like DFT), so it
    # shares the class rather than burning a one-hot that only a held-out
    # workload split (evaluate_surrogate) can honestly score.
    return np.array(
        [
            1.0,
            math.log10(workload.nplwv),
            math.log10(max(bands_per_rank, 1)),
            math.log10(max(workload.nelect, 1.0)),
            1.0 if functional is Functional.HSE else 0.0,
            1.0 if functional is Functional.ACFDT_RPA else 0.0,
            # Bounded duty-churn transform of the sequential k-point count.
            1.0 / (1.0 + 0.05 * (k_per_group - 1)),
            math.log2(n_nodes),
        ]
    )


def surrogate_feature_vector(
    workload,
    n_nodes: int,
    cap_w: float | None = None,
    platform: "str | Platform | None" = None,
) -> np.ndarray:
    """Features for one (workload, node count, cap, platform) grid point.

    Extends :func:`feature_vector` with what the base vector cannot see:

    * ``log_nelm``/``log_kpoints`` — the work-volume terms (SCF step
      budget, irreducible k-points) that drive *runtime*, which the
      power-only base vector never needed;
    * ``cap_fraction`` — applied cap over the GPU TDP (1.0 uncapped);
    * ``cap_depth`` — how far into the platform's cap range the limit
      sits (0 uncapped/at ``cap_max``, 1 at the floor) — the regulation
      and DVFS-slowdown regimes are functions of depth, not watts;
    * ``cap_depth_sq``/``cap_depth_hse`` — curvature and method
      interaction on the cap axis: capped power is pinned at
      ``min(demand, cap)``, a hinge a purely linear cap term cannot
      bend around, and the hinge point sits deeper for the
      power-hungry higher-order methods;
    * platform spec terms (log GPU TDP, log HBM bandwidth, log FP64
      ceiling, host power over node TDP) so one model spans platforms.

    ``cap_w`` is validated against the platform's cap range the same way
    the hardware layer validates ``set_power_limit``.
    """
    spec = get_platform(platform).node
    gpu = spec.gpu
    if cap_w is None:
        cap = gpu.tdp_w
    else:
        if not (gpu.cap_min_w <= cap_w <= gpu.cap_max_w):
            raise ValueError(
                f"cap {cap_w:.0f} W outside {gpu.name} range "
                f"[{gpu.cap_min_w:.0f}, {gpu.cap_max_w:.0f}] W"
            )
        cap = cap_w
    depth = (gpu.cap_max_w - cap) / (gpu.cap_max_w - gpu.cap_min_w)
    base = feature_vector(workload, n_nodes)
    if isinstance(workload, VaspWorkload):
        volume_terms = [
            math.log10(max(workload.incar.nelm, 1)),
            math.log10(max(workload.kpoints.irreducible, 1)),
        ]
        is_hse = base[FEATURE_NAMES.index("is_hse")]
        is_rpa = base[FEATURE_NAMES.index("is_rpa")]
        cap_sensitivity = max(is_hse, is_rpa)
    else:
        # Generic zoo tail: work volume from the schedule, and the
        # cap-depth interaction keyed on how compute-bound (hence
        # clock-sensitive) the kernel time is instead of the method.
        stats = _phase_statistics(workload, n_nodes)
        volume_terms = [
            math.log10(max(stats["n_phases"], 1.0)),
            math.log10(max(stats["total_s"], 1.0)),
        ]
        cap_sensitivity = stats["compute_fraction"]
    return np.concatenate(
        [
            base,
            volume_terms,
            [
                cap / gpu.tdp_w,
                depth,
                depth * depth,
                depth * cap_sensitivity,
                math.log10(gpu.tdp_w),
                math.log10(gpu.hbm_bw_gbs),
                math.log10(gpu.peak_fp64_tflops),
                spec.host_power_w / spec.tdp_w,
            ],
        ]
    )
