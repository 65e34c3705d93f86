"""Hardware platform registry: device identity as data, not code.

Every number the power pipeline needs about a GPU or its host node —
cap range, DVFS clock floor, controller margin, idle band, manufacturing
spread, roofline ceilings — lives in a frozen :class:`GpuSpec` /
:class:`NodeSpec` pair, grouped into a named :class:`Platform` and looked
up through a registry.  The default platform, ``a100-40g``, reproduces
the paper's Perlmutter A100 nodes bit-for-bit (its spec values are the
same floats the code previously hard-wired); the other entries are
seeded from public spec sheets so the same experiments, sweeps, monitors
and benches run unmodified on other hardware, including mixed pools.

Registering a custom platform::

    from repro.hardware.platform import (
        GpuSpec, NodeSpec, Platform, get_platform, register_platform,
    )

    base = get_platform("a100-40g")
    my_gpu = GpuSpec.from_envelope(base.gpu, name="Lab A100", cap_min_w=150.0)
    register_platform(Platform(
        id="lab-a100",
        description="A100 with a raised 150 W cap floor",
        node=NodeSpec.from_spec(base.node, gpu=my_gpu),
    ))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.units.constants import (
    A100_40GB,
    CPU_MILAN,
    DDR4_256GB,
    PERLMUTTER_GPU_NODE,
    SLINGSHOT_NIC,
    CPUEnvelope,
    GPUEnvelope,
    MemoryEnvelope,
    NICEnvelope,
    NodeEnvelope,
)

#: Platform id resolved when callers pass ``platform=None``.
DEFAULT_PLATFORM_ID = "a100-40g"

#: The trace schema carries four GPU columns (``gpu0``..``gpu3``), so
#: every registered node spec must expose exactly this many GPUs.
GPUS_PER_NODE = 4


@dataclass(frozen=True)
class GpuSpec(GPUEnvelope):
    """A :class:`GPUEnvelope` plus the behavioural model parameters.

    The envelope describes *how much* power the board can draw; the spec
    adds *how the board behaves*: the DVFS clock floor, the power
    controller's regulation characteristics, and the manufacturing
    spread.  Defaults are the calibrated A100 values, so coercing a bare
    envelope yields the historical behaviour unless overridden.

    Attributes
    ----------
    min_clock_fraction:
        Lowest clock fraction the board throttles to (A100: ~210 MHz of
        1410 MHz boost = 0.15).  Below this a cap cannot be honoured.
    control_margin:
        The controller regulates this relative margin *below* the limit
        so sustained power stays inside it (Fig 10).
    regulation_error_max / regulation_error_exponent:
        Relative overshoot of the controller at the cap floor and the
        steepness of its ramp: the error is
        ``max * depth**exponent`` for cap depth ``(cap_max - cap) /
        (cap_max - cap_min)`` — ~8 % at the A100's 100 W floor,
        negligible at 200 W and above.
    power_rel_sigma / idle_sigma_w:
        Manufacturing-variation distribution: relative sigma of the
        dynamic-power factor and absolute sigma of the idle offset
        (Section III-B spread).
    """

    min_clock_fraction: float = 0.15
    control_margin: float = 0.03
    regulation_error_max: float = 0.08
    regulation_error_exponent: float = 6.0
    power_rel_sigma: float = 0.02
    idle_sigma_w: float = 6.0

    @classmethod
    def from_envelope(cls, envelope: GPUEnvelope, **overrides: object) -> "GpuSpec":
        """Promote a bare envelope to a spec (behaviour fields default).

        This is the escape hatch that fixes the old behaviour where a
        custom :class:`GPUEnvelope` was silently throttled with the
        A100's clock floor and control margin: the behavioural knobs are
        now explicit spec fields, overridable per device.
        """
        if isinstance(envelope, cls) and not overrides:
            return envelope
        fields = {
            f.name: getattr(envelope, f.name)
            for f in dataclasses.fields(GPUEnvelope)
        }
        if isinstance(envelope, cls):
            fields.update(
                {
                    f.name: getattr(envelope, f.name)
                    for f in dataclasses.fields(cls)
                    if f.name not in fields
                }
            )
        fields.update(overrides)
        return cls(**fields)  # type: ignore[arg-type]


@dataclass(frozen=True)
class NodeSpec(NodeEnvelope):
    """A :class:`NodeEnvelope` plus the components a node composes.

    ``GpuNode`` builds itself from this spec: which GPU model (and how
    many, from the inherited ``gpus_per_node``), which CPU, memory and
    NIC envelopes, and the node-level calibration constants the analytic
    scheduler shares with the trace-streaming fleet simulation.
    """

    gpu: GpuSpec = None  # type: ignore[assignment]
    cpu: CPUEnvelope = None  # type: ignore[assignment]
    memory: MemoryEnvelope = None  # type: ignore[assignment]
    nic: NICEnvelope = None  # type: ignore[assignment]
    #: NICs per node (Perlmutter: four Slingshot Cassini).
    n_nics: int = 4
    #: Non-GPU node power while a job runs (analytic estimator).
    host_power_w: float = 265.0
    #: Idle power of an unallocated node (mid-range of the idle band).
    idle_node_w: float = 460.0
    #: Sigma of the baseboard's additive idle offset.
    board_idle_sigma_w: float = 10.0

    def __post_init__(self) -> None:
        for name in ("gpu", "cpu", "memory", "nic"):
            if getattr(self, name) is None:
                raise ValueError(f"NodeSpec requires a {name} envelope")

    @classmethod
    def from_spec(cls, spec: "NodeSpec", **overrides: object) -> "NodeSpec":
        """A copy of ``spec`` with selected fields replaced."""
        return dataclasses.replace(spec, **overrides)


@dataclass(frozen=True)
class Platform:
    """A named, registrable hardware platform (one node flavour)."""

    id: str
    description: str
    node: NodeSpec

    @property
    def gpu(self) -> GpuSpec:
        """The platform's GPU spec (shorthand for ``node.gpu``)."""
        return self.node.gpu


_REGISTRY: dict[str, Platform] = {}


class PowerLimitError(ValueError):
    """Raised when a requested power limit is outside the supported range."""


def applied_cap_w(spec: GpuSpec, cap_w: float | None) -> float:
    """The cap a GPU of ``spec`` runs at: its TDP when ``cap_w`` is None,
    else ``cap_w`` as a float, checked like ``nvidia-smi -pl`` checks it.

    Raises
    ------
    PowerLimitError
        If ``cap_w`` is outside the board's supported cap range.
    """
    if cap_w is None:
        return spec.tdp_w
    if not (spec.cap_min_w <= cap_w <= spec.cap_max_w):
        raise PowerLimitError(
            f"{spec.name}: power limit {cap_w:.0f} W outside supported "
            f"range [{spec.cap_min_w:.0f}, {spec.cap_max_w:.0f}] W"
        )
    return float(cap_w)


def register_platform(platform: Platform, replace: bool = False) -> Platform:
    """Validate and add a platform to the registry.

    Raises ``ValueError`` on an inconsistent spec or (unless
    ``replace=True``) a duplicate id.
    """
    if not platform.id:
        raise ValueError("platform id must be non-empty")
    if platform.id in _REGISTRY and not replace:
        raise ValueError(f"platform {platform.id!r} is already registered")
    gpu = platform.gpu
    node = platform.node
    if not (gpu.cap_min_w < gpu.cap_max_w):
        raise ValueError(
            f"{platform.id}: cap range [{gpu.cap_min_w}, {gpu.cap_max_w}] W is empty"
        )
    applied_cap_w(gpu, gpu.tdp_w)  # an uncapped run applies the TDP
    if not (0.0 < gpu.min_clock_fraction <= 1.0):
        raise ValueError(
            f"{platform.id}: min_clock_fraction must be in (0, 1], "
            f"got {gpu.min_clock_fraction}"
        )
    if node.idle_max_w <= node.idle_min_w:
        raise ValueError(
            f"{platform.id}: idle band [{node.idle_min_w}, {node.idle_max_w}] W is empty"
        )
    if node.gpus_per_node != GPUS_PER_NODE:
        raise ValueError(
            f"{platform.id}: trace schema is fixed at {GPUS_PER_NODE} GPUs "
            f"per node, got {node.gpus_per_node}"
        )
    _REGISTRY[platform.id] = platform
    return platform


def get_platform(platform: "str | Platform | None" = None) -> Platform:
    """Resolve a platform argument: id, instance, or None (the default)."""
    if platform is None:
        platform = DEFAULT_PLATFORM_ID
    if isinstance(platform, Platform):
        return platform
    try:
        return _REGISTRY[platform]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown platform {platform!r}; registered: {known}"
        ) from None


def platform_ids() -> list[str]:
    """Registered platform ids, default first, then alphabetical."""
    rest = sorted(pid for pid in _REGISTRY if pid != DEFAULT_PLATFORM_ID)
    head = [DEFAULT_PLATFORM_ID] if DEFAULT_PLATFORM_ID in _REGISTRY else []
    return head + rest


def default_gpu_spec() -> GpuSpec:
    """The default platform's GPU spec (the paper's A100 40 GB)."""
    return get_platform().gpu


def default_node_spec() -> NodeSpec:
    """The default platform's node spec (a Perlmutter GPU node)."""
    return get_platform().node


# ----------------------------------------------------------------------
# Built-in platforms
# ----------------------------------------------------------------------
# The default platform reuses the exact envelope instances from
# repro.units.constants, so every derived float is bit-identical to the
# pre-registry code path (EXPERIMENTS.md regenerates byte-identical).
A100_40G = register_platform(
    Platform(
        id="a100-40g",
        description="Perlmutter GPU node: 4x A100-SXM4-40GB + EPYC Milan (paper default)",
        node=NodeSpec(
            name=PERLMUTTER_GPU_NODE.name,
            tdp_w=PERLMUTTER_GPU_NODE.tdp_w,
            gpus_per_node=PERLMUTTER_GPU_NODE.gpus_per_node,
            idle_min_w=PERLMUTTER_GPU_NODE.idle_min_w,
            idle_max_w=PERLMUTTER_GPU_NODE.idle_max_w,
            baseboard_w=PERLMUTTER_GPU_NODE.baseboard_w,
            gpu=GpuSpec.from_envelope(A100_40GB),
            cpu=CPU_MILAN,
            memory=DDR4_256GB,
            nic=SLINGSHOT_NIC,
        ),
    )
)

#: A100 80 GB: same GPC silicon and 400 W envelope, HBM2e doubles
#: capacity and raises bandwidth to 2,039 GB/s (and idle by a few watts).
A100_80G = register_platform(
    Platform(
        id="a100-80g",
        description="4x A100-SXM4-80GB node (HBM2e: 2,039 GB/s, higher idle)",
        node=NodeSpec(
            name="A100-80GB GPU node",
            tdp_w=2350.0,
            gpus_per_node=4,
            idle_min_w=420.0,
            idle_max_w=530.0,
            baseboard_w=50.0,
            gpu=GpuSpec.from_envelope(
                A100_40GB,
                name="NVIDIA A100-SXM4-80GB",
                idle_w=60.0,
                hbm_gib=80.0,
                hbm_bw_gbs=2039.0,
            ),
            cpu=CPU_MILAN,
            memory=DDR4_256GB,
            nic=SLINGSHOT_NIC,
            idle_node_w=475.0,
        ),
    )
)

#: AMD EPYC 9454 "Genoa" — the host CPU in typical H100 SXM nodes.
CPU_GENOA = CPUEnvelope(
    name="AMD EPYC 9454",
    tdp_w=290.0,
    idle_w=100.0,
    cores=48,
    peak_fp64_gflops_per_core=44.0,
)

#: 512 GB DDR5 host memory.
DDR5_512GB = MemoryEnvelope(
    name="DDR5-4800 512GB",
    capacity_gib=512.0,
    idle_w=35.0,
    max_w=110.0,
)

#: H100 SXM5: 700 W envelope with a 200 W cap floor, HBM3 at 3,350 GB/s,
#: FP64 34 TFLOPS (67 via tensor cores).  Boost 1,980 MHz with a ~210 MHz
#: floor gives a lower relative clock floor than the A100.
H100_SXM = register_platform(
    Platform(
        id="h100-sxm",
        description="4x H100-SXM5-80GB node + EPYC Genoa (700 W, 200-700 W caps)",
        node=NodeSpec(
            name="H100 SXM GPU node",
            tdp_w=3600.0,
            gpus_per_node=4,
            idle_min_w=460.0,
            idle_max_w=620.0,
            baseboard_w=60.0,
            gpu=GpuSpec.from_envelope(
                GPUEnvelope(
                    name="NVIDIA H100-SXM5-80GB",
                    tdp_w=700.0,
                    cap_min_w=200.0,
                    cap_max_w=700.0,
                    idle_w=70.0,
                    static_w=130.0,
                    hbm_gib=80.0,
                    peak_fp64_tflops=34.0,
                    peak_fp64_tc_tflops=67.0,
                    hbm_bw_gbs=3350.0,
                ),
                min_clock_fraction=0.11,
                idle_sigma_w=8.0,
            ),
            cpu=CPU_GENOA,
            memory=DDR5_512GB,
            nic=SLINGSHOT_NIC,
            host_power_w=300.0,
            idle_node_w=540.0,
        ),
    )
)

#: Intel Xeon Gold 6148 "Skylake" — host CPU of V100-era nodes.
CPU_SKYLAKE = CPUEnvelope(
    name="Intel Xeon Gold 6148",
    tdp_w=150.0,
    idle_w=60.0,
    cores=20,
    peak_fp64_gflops_per_core=38.4,
)

#: Mellanox EDR InfiniBand NIC.
EDR_NIC = NICEnvelope(
    name="Mellanox ConnectX-5 EDR",
    idle_w=10.0,
    max_w=20.0,
)

#: V100 SXM2 16 GB: 300 W envelope, 150-300 W caps, no FP64 tensor cores
#: (the tensor-core ceiling equals the FP64 ceiling), HBM2 at 900 GB/s.
V100_SXM2 = register_platform(
    Platform(
        id="v100-sxm2",
        description="4x V100-SXM2-16GB node + Xeon Skylake (300 W, 150-300 W caps)",
        node=NodeSpec(
            name="V100 SXM2 GPU node",
            tdp_w=1600.0,
            gpus_per_node=4,
            idle_min_w=250.0,
            idle_max_w=360.0,
            baseboard_w=40.0,
            gpu=GpuSpec.from_envelope(
                GPUEnvelope(
                    name="NVIDIA V100-SXM2-16GB",
                    tdp_w=300.0,
                    cap_min_w=150.0,
                    cap_max_w=300.0,
                    idle_w=40.0,
                    static_w=70.0,
                    hbm_gib=16.0,
                    peak_fp64_tflops=7.8,
                    peak_fp64_tc_tflops=7.8,
                    hbm_bw_gbs=900.0,
                ),
                min_clock_fraction=0.10,
                idle_sigma_w=5.0,
            ),
            cpu=CPU_SKYLAKE,
            memory=DDR4_256GB,
            nic=EDR_NIC,
            n_nics=1,
            host_power_w=170.0,
            idle_node_w=300.0,
        ),
    )
)
