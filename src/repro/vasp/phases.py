"""The macro-phase: the unit of execution the power engine consumes.

A VASP run is modelled as a flat sequence of :class:`MacroPhase` objects —
segments of seconds-scale duration during which the node's power profile
is statistically stationary (one phase of one SCF iteration, a host-side
section, a collective...).  Telemetry at 2-second granularity cannot
resolve individual kernels, so the macro-phase is exactly the resolution
the paper's analysis sees.

Every SCF iteration repeats the same few kernel mixes, so a run's
hundreds of phases hold only a handful of distinct *resolve rows* — the
inputs power and slowdown depend on.  :class:`PhaseTable` lists them
once, with the row each phase maps to and the phase durations.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.perfmodel.kernels import GpuKernelProfile


@dataclass(frozen=True)
class MacroPhase:
    """One stationary segment of a run.

    Attributes
    ----------
    name:
        Phase label, e.g. ``"exact_exchange"`` or ``"scf_comm"``.
    duration_s:
        Wall time at full (uncapped) clocks.
    gpu_profile:
        Kernel profile running on *each* GPU of the job (the paper's
        benchmarks are load-balanced by construction; see Section III-A).
        Utilizations must already include occupancy scaling.
    cpu_utilization / mem_bw_utilization / nic_utilization:
        Host-side activity during the phase.
    """

    name: str
    duration_s: float
    gpu_profile: GpuKernelProfile
    cpu_utilization: float = 0.06
    mem_bw_utilization: float = 0.06
    nic_utilization: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ValueError(f"duration_s must be non-negative, got {self.duration_s}")
        for field_name in ("cpu_utilization", "mem_bw_utilization", "nic_utilization"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")

    def stretched(self, factor: float) -> "MacroPhase":
        """The same phase with its duration multiplied by ``factor``."""
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return replace(self, duration_s=self.duration_s * factor)


def total_duration_s(phases: list[MacroPhase]) -> float:
    """Sum of phase durations (uncapped runtime)."""
    return sum(p.duration_s for p in phases)


#: The resolve inputs of a phase, in :attr:`PhaseTable.inputs` order:
#: everything its power and slowdown depend on (duration is not one).
RESOLVE_INPUTS: tuple[str, ...] = (
    "duty_cycle",
    "compute_utilization",
    "memory_utilization",
    "compute_fraction",
    "cpu_utilization",
    "mem_bw_utilization",
    "nic_utilization",
)


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """A phase list's distinct resolve rows and the row of each phase.

    ``inputs`` is ``[len(RESOLVE_INPUTS), R]``: one contiguous column per
    resolve input, one entry per distinct row, rows in order of first
    appearance.  Phase ``p`` resolves as row ``row_of_phase[p]``, so a
    per-row result gathered with ``row_of_phase`` is exactly the
    per-phase one.  Rows are distinct by bit pattern, never by tolerance.
    The arrays are read-only: store-held tables are shared.
    """

    inputs: np.ndarray
    row_of_phase: np.ndarray
    #: Nominal (uncapped) phase durations, ``[P]``.
    durations: np.ndarray

    @classmethod
    def build(cls, phases: Sequence[MacroPhase]) -> "PhaseTable":
        """The table of a phase list."""
        values = np.array(
            [
                (
                    p.gpu_profile.duty_cycle,
                    p.gpu_profile.compute_utilization,
                    p.gpu_profile.memory_utilization,
                    p.gpu_profile.compute_fraction,
                    p.cpu_utilization,
                    p.mem_bw_utilization,
                    p.nic_utilization,
                )
                for p in phases
            ],
            dtype=float,
        ).reshape(len(phases), len(RESOLVE_INPUTS))
        index: dict[bytes, int] = {}
        row_of_phase = np.array(
            [index.setdefault(row.tobytes(), len(index)) for row in values],
            dtype=np.intp,
        )
        _, first = np.unique(row_of_phase, return_index=True)
        arrays = (
            np.ascontiguousarray(values[first].T),
            row_of_phase,
            np.array([p.duration_s for p in phases], dtype=float),
        )
        for array in arrays:
            array.setflags(write=False)
        return cls(*arrays)

    @property
    def n_rows(self) -> int:
        """Distinct resolve rows, R."""
        return self.inputs.shape[1]

    def column(self, name: str) -> np.ndarray:
        """One resolve input over the distinct rows, ``[R]``."""
        return self.inputs[RESOLVE_INPUTS.index(name)]

    def per_phase(self) -> Iterator[tuple[int, float]]:
        """``(row, nominal duration)`` of every phase, in phase order, as
        Python scalars: what scalar accumulations iterate."""
        return zip(self.row_of_phase.tolist(), self.durations.tolist())


class PhaseList(list):
    """A phase list that carries its :class:`PhaseTable`.

    What the phase store hands out: the table is built once, with the
    list, and shared by every engine run and estimate of the list.  The
    list must not be mutated (a slice or copy is a plain ``list``).
    """

    def __init__(self, phases: Sequence[MacroPhase] = ()) -> None:
        super().__init__(phases)
        self.table = PhaseTable.build(self)


def phase_table(phases: Sequence[MacroPhase]) -> PhaseTable:
    """The table of a phase list: the one a :class:`PhaseList` carries,
    or one built now for any other sequence."""
    if isinstance(phases, PhaseList):
        return phases.table
    return PhaseTable.build(phases)
