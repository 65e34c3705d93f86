"""Simulated GPU-node hardware substrate, composed from platform specs.

This package models the power-relevant behaviour of a GPU node: GPUs with
a DVFS-based power/performance model and a power-limit (capping)
interface, a host CPU, DRAM, NICs, and node/system aggregation with
per-unit manufacturing variability.  Which hardware a node contains is
data, not code: every node is built from a
:class:`~repro.hardware.platform.NodeSpec` resolved through the platform
registry (:mod:`repro.hardware.platform`).  The default platform,
``a100-40g``, is the paper's Perlmutter GPU node — one AMD Milan CPU,
four NVIDIA A100s, DDR4 and Slingshot NICs.

The models are *behavioural*: they do not execute CUDA, they answer the two
questions the paper's measurements depend on — "how much power does this
component draw while running a given kernel mix?" and "how much slower does
that kernel mix run under a power cap?".
"""

from repro.hardware.variability import ManufacturingVariation, unit_rng
from repro.hardware.platform import (
    DEFAULT_PLATFORM_ID,
    GpuSpec,
    NodeSpec,
    Platform,
    get_platform,
    platform_ids,
    register_platform,
)
from repro.hardware.gpu import GpuModel, GpuPowerSample
from repro.hardware.cpu import MilanCpu
from repro.hardware.memory import DdrMemory
from repro.hardware.nic import SlingshotNic
from repro.hardware.node import GpuNode, NodePowerSample
from repro.hardware.system import PerlmutterSystem

__all__ = [
    "DEFAULT_PLATFORM_ID",
    "DdrMemory",
    "GpuModel",
    "GpuNode",
    "GpuPowerSample",
    "GpuSpec",
    "ManufacturingVariation",
    "MilanCpu",
    "NodePowerSample",
    "NodeSpec",
    "PerlmutterSystem",
    "Platform",
    "SlingshotNic",
    "get_platform",
    "platform_ids",
    "register_platform",
    "unit_rng",
]
