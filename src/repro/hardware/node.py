"""A GPU-accelerated node composed from a platform's :class:`NodeSpec`.

The default spec is a Perlmutter GPU node (one Milan CPU, four A100s,
DDR4, four NICs); other platforms swap in their own component envelopes.
The node exposes the same component breakdown as the Cray Power Monitoring
interface: CPU power, per-GPU power, memory power, and total node power
(which additionally includes NICs and the baseboard — the "gap" between the
black node line and the component sum in Fig 3).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.units.constants import NodeEnvelope
from repro.hardware.cpu import MilanCpu
from repro.hardware.gpu import GpuModel
from repro.hardware.memory import DdrMemory
from repro.hardware.nic import SlingshotNic
from repro.hardware.platform import NodeSpec, default_node_spec
from repro.hardware.variability import ManufacturingVariation

#: The per-GPU state fields of :attr:`GpuNode.gpu_static_state`, in row
#: order: everything the batched GPU resolve reads besides the cap.
GPU_STATIC_FIELDS: tuple[str, ...] = (
    "static_w",
    "idle_env_w",
    "cap_min_w",
    "cap_max_w",
    "tdp_w",
    "idle_w",
    "power_factor",
    "idle_offset_w",
    "min_clock_fraction",
    "control_margin",
    "regulation_error_max",
    "regulation_error_exponent",
)

#: The per-unit host state fields of :attr:`GpuNode.host_static_state`,
#: in row order: a unit's envelope (idle and full-load power) and its
#: manufacturing variation.
HOST_STATIC_FIELDS: tuple[str, ...] = ("idle_w", "max_w", "idle_offset_w", "power_factor")


@dataclass(frozen=True)
class NodePowerSample:
    """Instantaneous component-resolved power of one node, in watts."""

    cpu_w: float
    gpu_w: tuple[float, float, float, float]
    memory_w: float
    nic_w: float
    baseboard_w: float

    @property
    def gpu_total_w(self) -> float:
        """Sum over the four GPUs."""
        return float(sum(self.gpu_w))

    @property
    def node_w(self) -> float:
        """Total node power: the quantity the node-level sensor reports."""
        return self.cpu_w + self.gpu_total_w + self.memory_w + self.nic_w + self.baseboard_w

    @property
    def component_sum_w(self) -> float:
        """Sum of the *sensed* components (CPU + GPUs + memory).

        The difference ``node_w - component_sum_w`` is the peripheral gap
        the paper attributes to NICs and other un-sensed parts.
        """
        return self.cpu_w + self.gpu_total_w + self.memory_w


@dataclass
class GpuNode:
    """One GPU-accelerated node with deterministic per-node variability.

    Components (CPU model, GPU specs, memory, NIC count) are composed
    from ``spec``; the default is the registry's default platform (a
    Perlmutter A100 node).  Mixed-platform pools are just lists of nodes
    built from different specs.
    """

    name: str = "nid001000"
    spec: NodeSpec = field(default_factory=default_node_spec)
    cpu: MilanCpu = field(init=False)
    gpus: list[GpuModel] = field(init=False)
    memory: DdrMemory = field(init=False)
    nics: list[SlingshotNic] = field(init=False)
    baseboard_variation: ManufacturingVariation = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.spec, NodeSpec):
            raise TypeError(
                f"spec must be a NodeSpec (see repro.hardware.platform), "
                f"got {type(self.spec).__name__}"
            )
        spec = self.spec
        self.cpu = MilanCpu(serial=f"{self.name}-cpu0", envelope=spec.cpu)
        self.gpus = [
            GpuModel(serial=f"{self.name}-gpu{i}", spec=spec.gpu)
            for i in range(spec.gpus_per_node)
        ]
        self.memory = DdrMemory(serial=f"{self.name}-mem0", envelope=spec.memory)
        self.nics = [
            SlingshotNic(serial=f"{self.name}-nic{i}", envelope=spec.nic)
            for i in range(spec.n_nics)
        ]
        self.baseboard_variation = ManufacturingVariation.sample(
            f"{self.name}-board", idle_sigma_w=spec.board_idle_sigma_w
        )

    @property
    def envelope(self) -> NodeEnvelope:
        """The node spec (a :class:`NodeEnvelope` subtype); legacy name."""
        return self.spec

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    @functools.cached_property
    def baseboard_power_w(self) -> float:
        """Baseboard (fans, VRM, BMC) power with per-node offset (static)."""
        return self.spec.baseboard_w + self.baseboard_variation.idle_offset_w

    def idle_sample(self) -> NodePowerSample:
        """Component power of the node at idle."""
        return NodePowerSample(
            cpu_w=self.cpu.idle_power_w,
            gpu_w=tuple(g.idle_power_w for g in self.gpus),  # type: ignore[arg-type]
            memory_w=self.memory.idle_power_w,
            nic_w=sum(n.idle_power_w for n in self.nics),
            baseboard_w=self.baseboard_power_w,
        )

    def sample(
        self,
        gpu_power_w: tuple[float, float, float, float] | list[float],
        cpu_utilization: float = 0.05,
        memory_bandwidth_utilization: float = 0.05,
        nic_utilization: float = 0.0,
    ) -> NodePowerSample:
        """Assemble a node sample from already-resolved GPU powers.

        GPU power is resolved by :meth:`GpuModel.resolve_phase` (it depends
        on caps and the DVFS state), so the node takes it as input; the
        other components are resolved from utilization here.
        """
        if len(gpu_power_w) != len(self.gpus):
            raise ValueError(f"expected {len(self.gpus)} GPU powers, got {len(gpu_power_w)}")
        return NodePowerSample(
            cpu_w=self.cpu.power_at_utilization(cpu_utilization),
            gpu_w=tuple(float(p) for p in gpu_power_w),  # type: ignore[arg-type]
            memory_w=self.memory.power_at_bandwidth(memory_bandwidth_utilization),
            nic_w=sum(n.power_at_traffic(nic_utilization) for n in self.nics),
            baseboard_w=self.baseboard_power_w,
        )

    @functools.cached_property
    def host_static_state(self) -> np.ndarray:
        """Per-unit host model state that never changes (vectorized engine input).

        ``[len(HOST_STATIC_FIELDS), 2 + len(self.nics)]``, rows in
        :data:`HOST_STATIC_FIELDS` order, one column per host unit: the
        CPU (full load is its TDP), the memory, then the NICs in unit
        order.  Built once per node, like :attr:`gpu_static_state`.
        Read-only.
        """
        cpu, memory = self.cpu, self.memory
        units = [(cpu, cpu.envelope.tdp_w), (memory, memory.envelope.max_w)]
        units += [(nic, nic.envelope.max_w) for nic in self.nics]
        rows = [
            [u.envelope.idle_w, full_w, u.variation.idle_offset_w, u.variation.power_factor]
            for u, full_w in units
        ]
        state = np.array(rows, dtype=float).T.copy()
        state.setflags(write=False)
        return state

    @functools.cached_property
    def gpu_static_state(self) -> np.ndarray:
        """Per-GPU model state that never changes (vectorized engine input).

        ``[len(GPU_STATIC_FIELDS), len(self.gpus)]``, rows in
        :data:`GPU_STATIC_FIELDS` order: specs, biased idle power and
        manufacturing variation.  Carrying the spec per GPU is what lets
        the engine resolve mixed-platform pools in one pass.  The GPUs'
        specs and variations are fixed at construction, so this is built
        once per node; the caps are a resolve input.  Read-only.
        """
        gpus = self.gpus
        assert all(g.variation is not None for g in gpus)
        state = np.array(
            [
                [
                    g.spec.static_w,
                    g.spec.idle_w,
                    g.spec.cap_min_w,
                    g.spec.cap_max_w,
                    g.spec.tdp_w,
                    g.idle_power_w,
                    g.variation.power_factor,  # type: ignore[union-attr]
                    g.variation.idle_offset_w,  # type: ignore[union-attr]
                    g.spec.min_clock_fraction,
                    g.spec.control_margin,
                    g.spec.regulation_error_max,
                    g.spec.regulation_error_exponent,
                ]
                for g in gpus
            ],
            dtype=float,
        ).reshape(len(gpus), len(GPU_STATIC_FIELDS))
        state = np.ascontiguousarray(state.T)
        state.setflags(write=False)
        return state
