"""Trace records produced by the execution engine.

Storage is columnar: a :class:`TraceBlock` holds one node's component
power timeline as a single ``(n_components, n_samples)`` matrix
(structure-of-arrays), so windowing, component access and aggregation
are views and strided reductions instead of per-key dict copies.
:class:`PowerTrace` is kept as a thin compatible view over a block —
existing callers keep the ``.times`` / ``.components[...]`` API —
and :class:`RunResult` bundles the traces of all nodes in a job with
the resolved phase schedule.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.config import read

#: Component keys in a node trace, matching the Cray PM counters.
GPU_KEYS = ("gpu0", "gpu1", "gpu2", "gpu3")
COMPONENT_KEYS = ("cpu",) + GPU_KEYS + ("memory", "node")


def trace_dtype() -> np.dtype:
    """Storage dtype for engine-rendered trace blocks.

    ``float32`` halves resident trace memory at fleet scale;
    ``REPRO_TRACE_DTYPE=float64`` restores full-width storage.  Any
    other value raises a ``ValueError`` naming the variable.
    """
    return np.dtype(read("REPRO_TRACE_DTYPE"))


@dataclass(frozen=True)
class PhaseRecord:
    """One resolved phase: schedule plus the slowdown the cap imposed."""

    name: str
    start_s: float
    end_s: float
    nominal_duration_s: float
    slowdown: float

    @property
    def duration_s(self) -> float:
        """Actual wall time of the phase."""
        return self.end_s - self.start_s


class TraceBlock:
    """Columnar storage of one node's component power timeline.

    ``data`` is a ``(n_components, n_samples)`` matrix whose rows follow
    ``components`` (the component index); ``times`` are float64 sample
    midpoints shared by every row.  Windowing and component access return
    views into the same buffer — a block never copies on read.
    """

    __slots__ = ("node_name", "times", "data", "components", "_rows", "base_interval_s")

    def __init__(
        self,
        node_name: str,
        times: np.ndarray,
        data: np.ndarray,
        components: tuple[str, ...] = COMPONENT_KEYS,
        base_interval_s: float | None = None,
    ) -> None:
        data = np.asarray(data)
        times = np.asarray(times, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-D, got shape {data.shape}")
        if data.shape[0] != len(components):
            raise ValueError(
                f"data has {data.shape[0]} rows for {len(components)} components"
            )
        if data.shape[1] != len(times):
            raise ValueError(
                f"data has {data.shape[1]} samples, times has {len(times)}"
            )
        if base_interval_s is not None and base_interval_s <= 0:
            raise ValueError(f"base_interval_s must be positive, got {base_interval_s}")
        self.node_name = node_name
        self.times = times
        self.data = data
        self.components = tuple(components)
        self._rows = {key: row for row, key in enumerate(self.components)}
        self.base_interval_s = base_interval_s

    # ------------------------------------------------------------------
    @classmethod
    def from_components(
        cls,
        node_name: str,
        times: np.ndarray,
        components: Mapping[str, np.ndarray],
        base_interval_s: float | None = None,
        dtype: np.dtype | None = None,
    ) -> "TraceBlock":
        """Stack a component dict into one columnar matrix.

        ``dtype=None`` keeps the common dtype of the inputs, so callers
        that build float64 dicts round-trip bit-identically.
        """
        keys = tuple(components)
        n = len(np.asarray(times))
        for key in keys:
            if len(components[key]) != n:
                raise ValueError(
                    f"component {key!r} has {len(components[key])} samples, "
                    f"expected {n}"
                )
        if keys:
            common = np.result_type(*(np.asarray(components[k]) for k in keys))
        else:
            common = np.dtype(float)
        data = np.empty((len(keys), n), dtype=dtype if dtype is not None else common)
        for row, key in enumerate(keys):
            data[row] = components[key]
        return cls(
            node_name=node_name,
            times=times,
            data=data,
            components=keys,
            base_interval_s=base_interval_s,
        )

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Samples per component row."""
        return self.data.shape[1]

    @property
    def nbytes(self) -> int:
        """Resident bytes of the sample storage (data + time axis)."""
        return int(self.data.nbytes + self.times.nbytes)

    def component(self, key: str) -> np.ndarray:
        """One component's power series — a row view, never a copy."""
        try:
            return self.data[self._rows[key]]
        except KeyError:
            raise KeyError(f"unknown component {key!r}") from None

    @property
    def sample_interval_s(self) -> float:
        """Spacing between samples (assumes a regular grid).

        Carried from the renderer when known, so single-sample (and
        empty-window) blocks still report the true grid spacing instead
        of a silent 0.0.
        """
        if self.base_interval_s is not None:
            return self.base_interval_s
        if len(self.times) < 2:
            raise ValueError(
                f"trace for {self.node_name} has {len(self.times)} sample(s) and "
                "no declared base interval; the sample spacing is indeterminate"
            )
        return float(self.times[1] - self.times[0])

    @property
    def gpu_total(self) -> np.ndarray:
        """Summed power of the four GPUs (row-sequential reduction)."""
        rows = [self._rows[k] for k in GPU_KEYS]
        lo, hi = min(rows), max(rows) + 1
        if rows == list(range(lo, hi)):
            return np.add.reduce(self.data[lo:hi], axis=0)
        total = self.component(GPU_KEYS[0]).copy()
        for key in GPU_KEYS[1:]:
            total += self.component(key)
        return total

    def energy_j(self) -> float:
        """Node energy over the block (trapezoid-free: regular sampling)."""
        if self.n_samples == 0:
            return 0.0
        return float(
            np.sum(self.component("node"), dtype=np.float64) * self.sample_interval_s
        )

    def window(self, start_s: float, end_s: float) -> "TraceBlock":
        """Sub-block restricted to ``[start_s, end_s)`` — zero-copy views."""
        if end_s < start_s:
            raise ValueError(f"end {end_s} before start {start_s}")
        lo, hi = np.searchsorted(self.times, (start_s, end_s), side="left")
        # Carry the grid spacing (declared or inferable here) so narrow
        # windows — even single-sample ones — keep a determinate interval.
        carried = self.base_interval_s
        if carried is None and len(self.times) >= 2:
            carried = float(self.times[1] - self.times[0])
        return TraceBlock(
            node_name=self.node_name,
            times=self.times[lo:hi],
            data=self.data[:, lo:hi],
            components=self.components,
            base_interval_s=carried,
        )


class _ComponentsView(Mapping):
    """Read-only dict-compatible view over a block's component rows."""

    __slots__ = ("_block",)

    def __init__(self, block: TraceBlock) -> None:
        self._block = block

    def __getitem__(self, key: str) -> np.ndarray:
        return self._block.component(key)

    def __iter__(self) -> Iterator[str]:
        return iter(self._block.components)

    def __len__(self) -> int:
        return len(self._block.components)

    def __contains__(self, key: object) -> bool:
        return key in self._block._rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_ComponentsView({self._block.components})"


class PowerTrace:
    """Component power timeline of one node — a thin view over a block.

    The constructor keeps the historical dict-of-arrays signature
    (``times`` are sample midpoints; ``components`` maps each key in
    :data:`COMPONENT_KEYS` to a same-length power array in watts; ``node``
    is the total-node sensor).  Storage is the columnar
    :class:`TraceBlock`; ``.components`` is a zero-copy mapping view.
    """

    __slots__ = ("block",)

    def __init__(
        self,
        node_name: str | None = None,
        times: np.ndarray | None = None,
        components: Mapping[str, np.ndarray] | None = None,
        base_interval_s: float | None = None,
        block: TraceBlock | None = None,
    ) -> None:
        if block is None:
            if node_name is None or times is None or components is None:
                raise TypeError(
                    "PowerTrace needs node_name, times and components (or block=)"
                )
            missing = [key for key in COMPONENT_KEYS if key not in components]
            if missing:
                raise ValueError(
                    f"trace for {node_name} missing component {missing[0]!r}"
                )
            block = TraceBlock.from_components(
                node_name, times, components, base_interval_s=base_interval_s
            )
        else:
            for key in COMPONENT_KEYS:
                if key not in block._rows:
                    raise ValueError(
                        f"trace for {block.node_name} missing component {key!r}"
                    )
        self.block = block

    @classmethod
    def from_block(cls, block: TraceBlock) -> "PowerTrace":
        """Wrap an existing block without copying."""
        return cls(block=block)

    # ------------------------------------------------------------------
    @property
    def node_name(self) -> str:
        """Name of the node this trace belongs to."""
        return self.block.node_name

    @property
    def times(self) -> np.ndarray:
        """Sample midpoints at the base resolution."""
        return self.block.times

    @property
    def components(self) -> Mapping[str, np.ndarray]:
        """Component key -> power series (zero-copy row views)."""
        return _ComponentsView(self.block)

    @property
    def base_interval_s(self) -> float | None:
        """Declared grid spacing, when the renderer carried it."""
        return self.block.base_interval_s

    @property
    def sample_interval_s(self) -> float:
        """Spacing between samples (assumes a regular grid).

        Raises
        ------
        ValueError
            For sub-two-sample traces with no declared base interval —
            previously this silently returned 0.0, making ``energy_j``
            report 0 J for single-sample traces.
        """
        return self.block.sample_interval_s

    @property
    def node_power(self) -> np.ndarray:
        """Total node power series."""
        return self.block.component("node")

    def gpu_power(self, index: int) -> np.ndarray:
        """Power series of one GPU (0-3)."""
        return self.block.component(f"gpu{index}")

    @property
    def gpu_total(self) -> np.ndarray:
        """Summed power of the four GPUs."""
        return self.block.gpu_total

    def energy_j(self) -> float:
        """Node energy over the trace (trapezoid-free: regular sampling)."""
        return self.block.energy_j()

    def window(self, start_s: float, end_s: float) -> "PowerTrace":
        """Sub-trace restricted to a time window (zero-copy views)."""
        return PowerTrace.from_block(self.block.window(start_s, end_s))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PowerTrace({self.node_name!r}, {self.block.n_samples} samples, "
            f"{len(self.block.components)} components)"
        )


@dataclass
class RunResult:
    """Outcome of one run: traces per node plus the resolved schedule."""

    label: str
    traces: list[PowerTrace]
    phases: list[PhaseRecord]
    runtime_s: float
    gpu_power_cap_w: float
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the job."""
        return len(self.traces)

    def total_energy_j(self) -> float:
        """Energy-to-solution summed over all nodes (Figs 7, 8)."""
        return sum(trace.energy_j() for trace in self.traces)

    def phase_windows(self, name: str) -> list[tuple[float, float]]:
        """Start/end times of every phase with a given name."""
        return [(p.start_s, p.end_s) for p in self.phases if p.name == name]

    def phase_time_s(self, name: str) -> float:
        """Total wall time spent in phases with a given name."""
        return sum(p.duration_s for p in self.phases if p.name == name)

    def resident_bytes(self) -> int:
        """Total trace bytes resident across nodes."""
        return sum(t.block.nbytes for t in self.traces)
