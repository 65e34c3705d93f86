"""Perlmutter/A100 calibration constants.

Everything power-related in the library is expressed in SI base-ish units:
watts (W), joules (J), seconds (s).  Energy-to-solution is reported in
megajoules, the paper's unit (:data:`J_PER_MJ`).
"""

from repro.units.constants import (
    A100_40GB,
    CPU_MILAN,
    DDR4_256GB,
    J_PER_MJ,
    GPUEnvelope,
    CPUEnvelope,
    MemoryEnvelope,
    NodeEnvelope,
    PERLMUTTER_GPU_NODE,
    PERLMUTTER_SYSTEM_TDP_W,
    SLINGSHOT_NIC,
    NICEnvelope,
)

__all__ = [
    "A100_40GB",
    "CPU_MILAN",
    "CPUEnvelope",
    "DDR4_256GB",
    "GPUEnvelope",
    "J_PER_MJ",
    "MemoryEnvelope",
    "NICEnvelope",
    "NodeEnvelope",
    "PERLMUTTER_GPU_NODE",
    "PERLMUTTER_SYSTEM_TDP_W",
    "SLINGSHOT_NIC",
]
