"""Trace records produced by the execution engine.

A :class:`PowerTrace` holds one node's component power timeline as a
single ``(n_components, n_samples)`` matrix (structure-of-arrays), so
windowing, component access and aggregation are views and strided
reductions instead of per-key dict copies.  :class:`RunResult` bundles
the traces of all nodes in a job with the resolved phase schedule.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.config import read

#: Component keys in a node trace, matching the Cray PM counters.
GPU_KEYS = ("gpu0", "gpu1", "gpu2", "gpu3")
COMPONENT_KEYS = ("cpu",) + GPU_KEYS + ("memory", "node")


def trace_dtype() -> np.dtype:
    """Storage dtype for engine-rendered traces.

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


class PowerTrace:
    """Component power timeline of one node, stored column-wise.

    ``data`` is a ``(n_components, n_samples)`` matrix whose rows follow
    ``components`` (every key in :data:`COMPONENT_KEYS` must be present;
    ``node`` is the total-node sensor, all in watts); ``times`` are
    float64 sample midpoints shared by every row.  Windowing and
    component access return views into the same buffer — a trace never
    copies on read.
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
        missing = [key for key in COMPONENT_KEYS if key not in components]
        if missing:
            raise ValueError(f"trace for {node_name} missing component {missing[0]!r}")
        self.node_name = node_name
        self.times = times
        self.data = data
        self.components = tuple(components)
        self._rows = {key: row for row, key in enumerate(self.components)}
        self.base_interval_s = base_interval_s

    @classmethod
    def from_components(
        cls,
        node_name: str,
        times: np.ndarray,
        mapping: Mapping[str, np.ndarray],
        base_interval_s: float | None = None,
        dtype: np.dtype | None = None,
    ) -> "PowerTrace":
        """Stack a component-key -> series dict into one columnar matrix.

        ``dtype=None`` keeps the common dtype of the inputs, so callers
        that build float64 dicts round-trip bit-identically.
        """
        keys = tuple(mapping)
        n = len(np.asarray(times))
        for key in keys:
            if len(mapping[key]) != n:
                raise ValueError(
                    f"component {key!r} has {len(mapping[key])} samples, expected {n}"
                )
        if keys:
            common = np.result_type(*(np.asarray(mapping[k]) for k in keys))
        else:
            common = np.dtype(float)
        data = np.empty((len(keys), n), dtype=dtype if dtype is not None else common)
        for row, key in enumerate(keys):
            data[row] = mapping[key]
        return cls(node_name, times, data, keys, base_interval_s)

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
    def node_power(self) -> np.ndarray:
        """Total node power series."""
        return self.component("node")

    def gpu_power(self, index: int) -> np.ndarray:
        """Power series of one GPU (0-3)."""
        return self.component(f"gpu{index}")

    @property
    def sample_interval_s(self) -> float:
        """Spacing between samples (assumes a regular grid).

        Carried from the renderer when known, so single-sample (and
        empty-window) traces still report the true grid spacing.

        Raises
        ------
        ValueError
            For sub-two-sample traces with no declared base interval,
            where the spacing (and so ``energy_j``) is indeterminate.
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
        """Node energy over the trace (trapezoid-free: regular sampling)."""
        if self.n_samples == 0:
            return 0.0
        return float(np.sum(self.node_power, dtype=np.float64) * self.sample_interval_s)

    def window(self, start_s: float, end_s: float) -> "PowerTrace":
        """Sub-trace restricted to ``[start_s, end_s)`` — zero-copy views."""
        if end_s < start_s:
            raise ValueError(f"end {end_s} before start {start_s}")
        lo, hi = np.searchsorted(self.times, (start_s, end_s), side="left")
        # Carry the grid spacing (declared or inferable here) so narrow
        # windows — even single-sample ones — keep a determinate interval.
        carried = self.base_interval_s
        if carried is None and len(self.times) >= 2:
            carried = float(self.times[1] - self.times[0])
        return PowerTrace(
            self.node_name,
            self.times[lo:hi],
            self.data[:, lo:hi],
            self.components,
            carried,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PowerTrace({self.node_name!r}, {self.n_samples} samples, "
            f"{len(self.components)} components)"
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
        return sum(t.nbytes for t in self.traces)
