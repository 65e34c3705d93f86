"""Hardware power envelopes for Perlmutter's GPU partition.

Values follow Section II-A of the paper:

* a 40 GB GPU node has a TDP of 2,350 W: 280 W CPU, 4 x 400 W GPUs and
  470 W of peripherals (dominated by DDR memory and NICs);
* the A100 40 GB power-cap range spans 100 W to 400 W (Section V-A);
* node idle power was observed between 410 W and 510 W (Section III-B);
* the whole system (including CPU-only nodes, service nodes, routers and
  cooling) has a TDP of 6.9 MW.

Component-level splits that the paper does not spell out (GPU idle power,
DDR vs NIC share of the 470 W peripheral budget, static vs dynamic GPU
power) are calibrated so that node-level aggregates land inside the
published ranges; they are documented field by field below.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUEnvelope:
    """Static power envelope of a GPU model.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"NVIDIA A100-SXM4-40GB"``.
    tdp_w:
        Thermal design power; also the default power limit.
    cap_min_w / cap_max_w:
        The range accepted by the power-limit interface
        (``nvidia-smi -pl``); 100-400 W on the A100 40 GB.
    idle_w:
        Power drawn with no kernels resident.  ~55 W is typical for
        A100-SXM4 boards at idle with persistence mode on.
    static_w:
        The non-clock-scalable part of active power (leakage, HBM refresh,
        fixed-function units).  Used by the DVFS model: sustained power is
        ``static_w + dynamic * f**3`` for clock fraction ``f``.
    hbm_gib:
        High-bandwidth-memory capacity in GiB.
    peak_fp64_tflops / peak_fp64_tc_tflops:
        Peak FP64 throughput without / with tensor cores (9.7 / 19.5 for
        the A100), used by the roofline time model.
    hbm_bw_gbs:
        Peak HBM bandwidth (1,555 GB/s on the 40 GB part).
    """

    name: str
    tdp_w: float
    cap_min_w: float
    cap_max_w: float
    idle_w: float
    static_w: float
    hbm_gib: float
    peak_fp64_tflops: float
    peak_fp64_tc_tflops: float
    hbm_bw_gbs: float


@dataclass(frozen=True)
class CPUEnvelope:
    """Static power envelope of a host CPU."""

    name: str
    tdp_w: float
    idle_w: float
    cores: int
    peak_fp64_gflops_per_core: float


@dataclass(frozen=True)
class MemoryEnvelope:
    """Static power envelope of host DRAM."""

    name: str
    capacity_gib: float
    idle_w: float
    max_w: float


@dataclass(frozen=True)
class NICEnvelope:
    """Static power envelope of one network interface card."""

    name: str
    idle_w: float
    max_w: float


@dataclass(frozen=True)
class NodeEnvelope:
    """Aggregate envelope of a Perlmutter GPU node."""

    name: str
    tdp_w: float
    gpus_per_node: int
    idle_min_w: float
    idle_max_w: float
    # Fixed "everything else" draw not covered by CPU/GPU/DDR/NIC sensors
    # (fans, VRM losses, BMC).  Chosen so idle node totals land in the
    # observed 410-510 W window.
    baseboard_w: float


#: NVIDIA A100-SXM4-40GB as deployed in Perlmutter GPU nodes.
A100_40GB = GPUEnvelope(
    name="NVIDIA A100-SXM4-40GB",
    tdp_w=400.0,
    cap_min_w=100.0,
    cap_max_w=400.0,
    idle_w=55.0,
    static_w=90.0,
    hbm_gib=40.0,
    peak_fp64_tflops=9.7,
    peak_fp64_tc_tflops=19.5,
    hbm_bw_gbs=1555.0,
)

#: AMD EPYC 7763 "Milan" (one socket per GPU node).
CPU_MILAN = CPUEnvelope(
    name="AMD EPYC 7763",
    tdp_w=280.0,
    idle_w=95.0,
    cores=64,
    peak_fp64_gflops_per_core=39.2,
)

#: 256 GB DDR4 on the GPU nodes.
DDR4_256GB = MemoryEnvelope(
    name="DDR4-3200 256GB",
    capacity_gib=256.0,
    idle_w=25.0,
    max_w=90.0,
)

#: HPE Slingshot "Cassini" NIC (four per GPU node).
SLINGSHOT_NIC = NICEnvelope(
    name="HPE Slingshot Cassini",
    idle_w=15.0,
    max_w=25.0,
)

#: Perlmutter 40 GB GPU node (one Milan + four A100 + four NICs).
PERLMUTTER_GPU_NODE = NodeEnvelope(
    name="Perlmutter GPU node (40GB)",
    tdp_w=2350.0,
    gpus_per_node=4,
    idle_min_w=410.0,
    idle_max_w=510.0,
    baseboard_w=50.0,
)

#: Full-system TDP including CPU partition, service nodes, network and CDUs.
PERLMUTTER_SYSTEM_TDP_W: float = 6.9e6

#: Joules per megajoule: the paper reports energy-to-solution in MJ
#: (Figs 7 and 8).
J_PER_MJ: float = 1.0e6
