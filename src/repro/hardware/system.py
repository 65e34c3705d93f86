"""System-level view: a pool of GPU nodes with allocation bookkeeping.

``PerlmutterSystem`` stands in for the machine as the batch system sees it:
a set of named nodes, each built from its platform's spec, and the
allocate/release replay the traced fleet simulation
(``repro.capping.fleet``) binds scheduled jobs to node names with.
:class:`RunningMoments` and :class:`SystemPowerAccumulator` are the
incremental aggregation primitives the fleet simulation streams node
traces through — system power statistics in bounded memory, without
retaining any job's full trace.
"""

from __future__ import annotations

import heapq
import math

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.hardware.node import GpuNode
from repro.hardware.platform import NodeSpec, Platform, get_platform


class RunningMoments:
    """Streaming count/mean/variance (Welford) plus sum, min, max.

    Batches merge via the Chan et al. parallel update, so arbitrarily
    large sample streams reduce to O(1) state.  Population variance, to
    match ``np.var`` over the concatenated stream.
    """

    __slots__ = ("count", "mean", "_m2", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def update(self, values: np.ndarray) -> None:
        """Fold a batch of samples into the moments."""
        values = np.asarray(values, dtype=float).ravel()
        n = values.size
        if n == 0:
            return
        batch_mean = float(values.mean())
        batch_m2 = float(np.sum((values - batch_mean) ** 2))
        delta = batch_mean - self.mean
        merged = self.count + n
        self.mean += delta * n / merged
        self._m2 += batch_m2 + delta * delta * self.count * n / merged
        self.count = merged
        self.total += float(values.sum())
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))

    def merge(self, other: "RunningMoments") -> None:
        """Fold another moment set into this one (Chan et al. merge).

        The fleet monitor maintains per-node moments and derives the
        fleet-wide distribution by merging them — merging then reading is
        equivalent to having streamed every sample through one instance.
        """
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.total = other.total
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        delta = other.mean - self.mean
        merged = self.count + other.count
        self.mean += delta * other.count / merged
        self._m2 += other._m2 + delta * delta * self.count * other.count / merged
        self.count = merged
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @classmethod
    def from_batch(cls, values: np.ndarray) -> "RunningMoments":
        """Moments of a single batch of samples.

        ``acc.merge(RunningMoments.from_batch(values))`` performs the
        same float operations as ``acc.update(values)`` — the Chan merge
        against a one-batch moment set reduces to the batched Welford
        update.  Shard workers rely on this to ship one compact moment
        row per chunk instead of the samples themselves.
        """
        moments = cls()
        moments.update(values)
        return moments

    @staticmethod
    def block_states(
        block: np.ndarray,
    ) -> "list[tuple[int, float, float, float, float, float]]":
        """The :meth:`state` of :meth:`from_batch` of each row of a ``[rows, m]`` block.

        Each row is reduced along the block's last axis, the float
        operations its own 1-D batch performs (pairwise sums over a
        contiguous row), and the one-batch Welford update is applied
        elementwise, so every row equals its ``from_batch`` bit for bit.
        """
        values = np.asarray(block, dtype=float)
        n = values.shape[1]
        # np.mean is the same add.reduce, then a division by n.
        total = np.add.reduce(values, axis=1)
        batch_mean = total / n
        batch_m2 = np.add.reduce((values - batch_mean[:, None]) ** 2, axis=1)
        # update() on empty moments: mean = 0 + delta*n/n, m2 = 0 + m2.
        mean = 0.0 + batch_mean * n / n
        return [
            (n, *row)
            for row in zip(
                mean.tolist(),
                (0.0 + batch_m2).tolist(),
                (0.0 + total).tolist(),
                np.minimum.reduce(values, axis=1).tolist(),
                np.maximum.reduce(values, axis=1).tolist(),
            )
        ]

    def state(self) -> tuple[int, float, float, float, float, float]:
        """Compact picklable snapshot (count, mean, m2, total, min, max)."""
        return (
            self.count,
            self.mean,
            self._m2,
            self.total,
            self.minimum,
            self.maximum,
        )

    @classmethod
    def from_state(
        cls, state: "tuple[int, float, float, float, float, float]"
    ) -> "RunningMoments":
        """Rebuild a moment set from a :meth:`state` snapshot."""
        moments = cls()
        (
            moments.count,
            moments.mean,
            moments._m2,
            moments.total,
            moments.minimum,
            moments.maximum,
        ) = state
        return moments

    def zscore(self, value: float) -> float:
        """Standard score of ``value`` against these moments.

        Returns 0.0 when the distribution is degenerate (fewer than two
        samples, or zero variance) — a lone node can never drift from a
        fleet of itself.
        """
        if self.count < 2:
            return 0.0
        std = self.std
        if std <= 0.0:
            return 0.0
        return (float(value) - self.mean) / std

    @property
    def variance(self) -> float:
        """Population variance of everything folded in so far."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def peak(self) -> float:
        """Largest sample seen (0.0 when empty)."""
        return self.maximum if self.count else 0.0


@dataclass
class SystemPowerStats:
    """Finalized system-power statistics from an accumulator."""

    mean_power_w: float
    peak_power_w: float
    power_std_w: float
    horizon_s: float
    energy_j: float
    n_bins: int


class JobPowerPartial:
    """One job's energy-bin deposits, offset to the job's first bin.

    Shard workers deposit a job's streamed chunks here using bin math
    identical to :meth:`SystemPowerAccumulator.add_samples`, then ship
    the compact array back to the coordinator, which folds partials in
    chronological job order via
    :meth:`SystemPowerAccumulator.merge_partial`.  The serial fleet path
    performs the *same* partial-then-merge fold, so serial, sharded and
    resumed runs finalize to identical bits.  Memory is
    O(job duration / bin_s), independent of the fleet horizon.
    """

    __slots__ = ("bin_s", "origin_bin", "energy_j", "used_bins", "horizon_s", "samples")

    def __init__(self, start_s: float, bin_s: float) -> None:
        if bin_s <= 0:
            raise ValueError(f"bin_s must be positive, got {bin_s}")
        self.bin_s = bin_s
        self.origin_bin = max(int(math.floor(start_s / bin_s)), 0)
        self.energy_j = np.zeros(256)
        self.used_bins = 0
        self.horizon_s = 0.0
        self.samples = 0

    def _ensure(self, n: int) -> None:
        if n <= len(self.energy_j):
            return
        size = max(n, 2 * len(self.energy_j))
        self.energy_j = np.concatenate(
            [self.energy_j, np.zeros(size - len(self.energy_j))]
        )

    def add_samples(
        self,
        start_s: float,
        times: np.ndarray,
        powers: np.ndarray,
        interval_s: float,
    ) -> None:
        """Deposit node-power samples at job-relative ``times``.

        ``powers`` is one series' samples or a ``[rows, m]`` block of
        series sharing ``times``.  A block deposits in one ``np.add.at``
        over its rows concatenated, which adds into every bin in the
        same order as one deposit per row.
        """
        powers = np.asarray(powers, dtype=float)
        if len(times) == 0 or powers.size == 0:
            return
        absolute = start_s + np.asarray(times, dtype=float)
        index = np.floor(absolute / self.bin_s).astype(np.intp)
        index = np.maximum(index, 0)
        local = index - self.origin_bin
        # Chunk times are increasing, so the last sample holds the top bin.
        top = int(local[-1]) + 1
        self._ensure(top)
        energy = powers * interval_s
        rows = energy.size // len(times)
        np.add.at(
            self.energy_j, local[None].repeat(rows, axis=0).ravel(), energy.ravel()
        )
        self.used_bins = max(self.used_bins, top)
        self.horizon_s = max(self.horizon_s, float(absolute[-1]) + interval_s / 2.0)
        self.samples += energy.size

    def trim(self) -> "JobPowerPartial":
        """Shrink the bin array to its used extent (before crossing IPC)."""
        if len(self.energy_j) > self.used_bins:
            self.energy_j = self.energy_j[: self.used_bins].copy()
        return self


class SystemPowerAccumulator:
    """Incremental system-power aggregation over streamed trace chunks.

    Jobs overlap in time, so per-sample powers cannot be reduced to
    scalar moments directly; instead each streamed sample deposits its
    energy into a fixed-width time bin (columnar, grown geometrically),
    and busy-node intervals deposit node-seconds the same way.  Memory is
    O(makespan / bin_s) + O(chunk) — independent of how many node traces
    stream through.  ``finalize`` converts bins to a system power series
    (job power + idle power of unoccupied nodes) and reduces it through
    :class:`RunningMoments`.
    """

    def __init__(
        self, n_nodes: int, bin_s: float = 1.0, idle_node_w: float | None = None
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if bin_s <= 0:
            raise ValueError(f"bin_s must be positive, got {bin_s}")
        if idle_node_w is None:
            idle_node_w = get_platform().node.idle_node_w
        self.n_nodes = n_nodes
        self.bin_s = bin_s
        self.idle_node_w = idle_node_w
        self._energy_j = np.zeros(1024)
        self._busy_node_s = np.zeros(1024)
        self._horizon_s = 0.0
        self.samples_added = 0

    @property
    def resident_bytes(self) -> int:
        """Bytes held by the bin arrays — the accumulator's whole footprint."""
        return int(self._energy_j.nbytes + self._busy_node_s.nbytes)

    def _ensure_bins(self, n: int) -> None:
        if n <= len(self._energy_j):
            return
        size = max(n, 2 * len(self._energy_j))
        self._energy_j = np.concatenate(
            [self._energy_j, np.zeros(size - len(self._energy_j))]
        )
        self._busy_node_s = np.concatenate(
            [self._busy_node_s, np.zeros(size - len(self._busy_node_s))]
        )

    def add_samples(
        self,
        start_s: float,
        times: np.ndarray,
        powers: np.ndarray,
        interval_s: float,
    ) -> None:
        """Deposit one chunk of node-power samples.

        ``times`` are sample midpoints relative to the job, offset by
        ``start_s`` on the system clock; each sample's energy
        (``power * interval_s``) lands in the bin holding its midpoint.
        """
        if len(times) == 0:
            return
        absolute = start_s + np.asarray(times, dtype=float)
        index = np.floor(absolute / self.bin_s).astype(np.intp)
        index = np.maximum(index, 0)
        self._ensure_bins(int(index[-1]) + 1 if index.size else 0)
        energy = np.asarray(powers, dtype=float) * interval_s
        np.add.at(self._energy_j, index, energy)
        self._horizon_s = max(
            self._horizon_s, float(absolute[-1]) + interval_s / 2.0
        )
        self.samples_added += len(times)

    def merge_partial(self, partial: JobPowerPartial) -> None:
        """Fold one job's :class:`JobPowerPartial` into the global bins.

        Merging partials in chronological job order is the canonical
        fold: because the global bins start at zero and every partial
        already holds its job's full within-job sums, the result matches
        the serial partial-then-merge path bit for bit regardless of
        which process rendered the job.
        """
        if partial.bin_s != self.bin_s:
            raise ValueError(
                f"bin width mismatch: accumulator {self.bin_s} s, "
                f"partial {partial.bin_s} s"
            )
        used = partial.used_bins
        if used:
            top = partial.origin_bin + used
            self._ensure_bins(top)
            self._energy_j[partial.origin_bin : top] += partial.energy_j[:used]
        self._horizon_s = max(self._horizon_s, partial.horizon_s)
        self.samples_added += partial.samples

    def state(self) -> dict:
        """Checkpointable snapshot of the bin state (see :meth:`restore`)."""
        return {
            "n_nodes": self.n_nodes,
            "bin_s": self.bin_s,
            "idle_node_w": self.idle_node_w,
            "energy_j": self._energy_j.copy(),
            "busy_node_s": self._busy_node_s.copy(),
            "horizon_s": self._horizon_s,
            "samples_added": self.samples_added,
        }

    def restore(self, state: dict) -> None:
        """Adopt a snapshot taken by :meth:`state` (checkpoint resume)."""
        for name in ("n_nodes", "bin_s", "idle_node_w"):
            if state[name] != getattr(self, name):
                raise ValueError(
                    f"checkpoint mismatch: {name} was {state[name]!r}, "
                    f"accumulator has {getattr(self, name)!r}"
                )
        self._energy_j = np.array(state["energy_j"], dtype=float)
        self._busy_node_s = np.array(state["busy_node_s"], dtype=float)
        self._horizon_s = float(state["horizon_s"])
        self.samples_added = int(state["samples_added"])

    def add_busy_interval(self, start_s: float, end_s: float, n_nodes: int) -> None:
        """Mark nodes busy over a wall-clock interval (for idle power)."""
        if end_s <= start_s or n_nodes <= 0:
            return
        first = int(start_s / self.bin_s)
        last = int(np.ceil(end_s / self.bin_s))
        self._ensure_bins(last)
        edges = np.arange(first, last + 1) * self.bin_s
        overlap = np.minimum(edges[1:], end_s) - np.maximum(edges[:-1], start_s)
        self._busy_node_s[first:last] += n_nodes * np.maximum(overlap, 0.0)
        self._horizon_s = max(self._horizon_s, end_s)

    def finalize(self) -> SystemPowerStats:
        """Reduce the bins to system power statistics.

        System power per bin = deposited job power + idle power of the
        nodes not busy in that bin (fractional occupancy honoured).
        """
        # Epsilon guards against float slivers (e.g. a horizon of
        # 10.000000000000002 s) opening a spurious all-idle trailing bin.
        n_bins = max(int(np.ceil(self._horizon_s / self.bin_s - 1e-9)), 1)
        job_power = self._energy_j[:n_bins] / self.bin_s
        busy_nodes = np.clip(
            self._busy_node_s[:n_bins] / self.bin_s, 0.0, self.n_nodes
        )
        system = job_power + (self.n_nodes - busy_nodes) * self.idle_node_w
        moments = RunningMoments()
        moments.update(system)
        return SystemPowerStats(
            mean_power_w=moments.mean,
            peak_power_w=moments.peak,
            power_std_w=moments.std,
            horizon_s=self._horizon_s,
            energy_j=float(self._energy_j[:n_bins].sum())
            + float((self.n_nodes - busy_nodes).sum()) * self.bin_s * self.idle_node_w,
            n_bins=n_bins,
        )


class AllocationError(RuntimeError):
    """Raised when a node allocation request cannot be satisfied."""


class _LazyNodeMap(Mapping):
    """Name → :class:`GpuNode` mapping that builds nodes on first access.

    A 100k-node pool would spend seconds sampling manufacturing
    variability for nodes no job ever touches; node construction is
    deterministic in (name, spec), so building on demand returns the
    same object state as building eagerly.  Iteration order is the
    insertion (name) order of the pool.
    """

    __slots__ = ("_specs_by_name", "_built")

    def __init__(self, names: Sequence[str], specs: "Sequence[NodeSpec]") -> None:
        self._specs_by_name = dict(zip(names, specs))
        self._built: dict[str, GpuNode] = {}

    def __getitem__(self, name: str) -> GpuNode:
        node = self._built.get(name)
        if node is None:
            spec = self._specs_by_name[name]
            node = self._built[name] = GpuNode(name=name, spec=spec)
        return node

    def __iter__(self):
        return iter(self._specs_by_name)

    def __len__(self) -> int:
        return len(self._specs_by_name)

    @property
    def built_count(self) -> int:
        """How many nodes have been materialized so far."""
        return len(self._built)


@dataclass
class PerlmutterSystem:
    """A pool of named GPU nodes.

    Parameters
    ----------
    n_nodes:
        Number of GPU nodes in the pool (the real machine has 1,536
        40 GB nodes; tests use far fewer).
    node_platforms:
        Platform ids / Platforms / :class:`NodeSpec` instances cycled
        over the pool (e.g. ``["a100-40g", "h100-sxm"]`` alternates the
        two); None builds every node from the registry default,
        a100-40g.
    """

    n_nodes: int = 16
    node_platforms: "Sequence[str | Platform | NodeSpec] | None" = None
    nodes: "Mapping[str, GpuNode]" = field(init=False, repr=False, compare=False)
    #: Free node names as a min-heap: the smallest name is ``_free[0]``.
    _free: list[str] = field(init=False, repr=False, compare=False)
    _allocations: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    _specs: "list[NodeSpec]" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.node_platforms is not None and len(self.node_platforms) == 0:
            raise ValueError("node_platforms must be non-empty when given")
        specs = self._node_specs()
        self._specs = specs
        names = [f"nid{1000 + i:06d}" for i in range(self.n_nodes)]
        self.nodes = _LazyNodeMap(names, specs)
        self._free = list(names)
        heapq.heapify(self._free)
        self._allocations = {}

    def _node_specs(self) -> "list[NodeSpec]":
        """The resolved per-node spec list (length ``n_nodes``)."""
        if self.node_platforms is None:
            return [get_platform().node] * self.n_nodes
        resolved = [
            entry if isinstance(entry, NodeSpec) else get_platform(entry).node
            for entry in self.node_platforms
        ]
        return [resolved[i % len(resolved)] for i in range(self.n_nodes)]

    # ------------------------------------------------------------------
    def node_specs(self) -> "list[NodeSpec]":
        """Per-node spec list in pool (name) order, without building nodes."""
        return list(self._specs)

    def node_spec(self, name: str) -> "NodeSpec":
        """The spec one named node is built from (no node construction)."""
        return self.nodes._specs_by_name[name]

    def materialize(self) -> list[GpuNode]:
        """Build (if needed) and return every node, in name order.

        Monitored fleet runs survey the whole pool; everything else
        should prefer the lazy ``nodes`` mapping, which only constructs
        the nodes jobs actually touch.
        """
        return [self.nodes[name] for name in self.nodes]

    def allocate_names(self, job_id: str, n_nodes: int) -> list[str]:
        """Allocate ``n_nodes`` node *names* to a job (no node construction).

        Nodes are handed out in name order for determinism.  The shard
        coordinator plans with names only; workers build the nodes.

        Raises
        ------
        AllocationError
            If the job already holds an allocation or not enough nodes are
            free.
        """
        if job_id in self._allocations:
            raise AllocationError(f"job {job_id!r} already holds an allocation")
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if n_nodes > len(self._free):
            raise AllocationError(
                f"job {job_id!r} wants {n_nodes} nodes, only {len(self._free)} free"
            )
        # n pops of the name heap == sorted(free)[:n], without a scan.
        chosen = [heapq.heappop(self._free) for _ in range(n_nodes)]
        self._allocations[job_id] = chosen
        return chosen

    def release(self, job_id: str) -> None:
        """Release a job's nodes back to the pool."""
        try:
            names = self._allocations.pop(job_id)
        except KeyError:
            raise AllocationError(f"job {job_id!r} holds no allocation") from None
        for name in names:
            heapq.heappush(self._free, name)
