"""The power engine: macro-phases x nodes x caps -> power traces.

For every phase the engine resolves, per GPU:

1. demand power from the phase's kernel profile (occupancy-scaled);
2. the cap response — clock fraction, sustained power, slowdown — via the
   GPU's DVFS model;
3. the duty-cycle average between active and idle power;

then assembles node-level component samples, stretches the phase by the
cap-imposed slowdown, and renders the schedule to a regular 0.1-second
grid with AR(1) measurement/activity noise (what makes the KDE analysis
of Section III meaningful).

The resolve is one pure function, :func:`resolve_table`: a phase
table's distinct rows on every node slot of every job that runs it, at
each job's caps, in one pass.  A fleet batch resolves each of its phase
tables once for all of its jobs that share it
(:func:`repro.capping.shard.render_batch`); a lone :meth:`PowerEngine.run`
or :meth:`PowerEngine.stream` is the one-job case.

Every trace renders through one block renderer, :func:`render_blocks`.
A block holds whole consecutive series in stream order, as many as fit
in :data:`RENDER_CHUNK` samples, and gets one normal draw, one AR(1)
filter call over its read rows and one clip; a longer series renders in
:data:`RENDER_CHUNK`-sample pieces with its filter state carried.
:meth:`PowerEngine.run` writes the blocks into whole traces,
:meth:`PowerEngine.stream` hands them out one series chunk at a time,
and the traced fleet (:func:`repro.capping.shard.render_task_job`)
folds them as they come.
"""

from __future__ import annotations

import functools
import importlib.machinery
import itertools
import importlib.util
import sys
from collections.abc import Callable, Collection, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.hardware.gpu import applied_cap_w, resolve_phase_batch
from repro.hardware.node import GPU_STATIC_FIELDS, HOST_STATIC_FIELDS, GpuNode
from repro.hardware.variability import unit_rng
from repro.perfmodel.power import demand_power_batch
from repro.vasp.phases import MacroPhase, PhaseTable, phase_table
from repro.runner.trace import (
    COMPONENT_KEYS,
    GPU_KEYS,
    PhaseRecord,
    PowerTrace,
    RunResult,
    trace_dtype,
)

#: Samples per render block, for every trace.  A block holds
#: ``max(1, RENDER_CHUNK // n)`` whole series of ``n`` samples; a series
#: longer than this renders in pieces of this many samples, one block
#: each.  Peak render working memory is O(chunk), not O(schedule); a
#: typical fleet job (hundreds to a few thousand samples per series)
#: renders several node series per block.  A stream's chunk is one
#: series' share of one block.
RENDER_CHUNK = 16_384

#: Rows of the components in a resolved ``means[N, K, P]``.
_GPU_ROWS = [COMPONENT_KEYS.index(key) for key in GPU_KEYS]
_CPU_ROW = COMPONENT_KEYS.index("cpu")
_MEMORY_ROW = COMPONENT_KEYS.index("memory")
_NODE_ROW = COMPONENT_KEYS.index("node")
_ALL_ROWS = frozenset(range(len(COMPONENT_KEYS)))

#: scipy's compiled linear filter, the C routine ``scipy.signal.lfilter``
#: calls for any denominator longer than one tap.
_FILTER_MODULE = "scipy.signal._sigtools"


def _load_compiled(name: str) -> ModuleType:
    """The compiled extension module ``name`` of an installed package.

    Found from the package directory, which ``find_spec`` of a top-level
    name gives without importing the package, and loaded under its real
    dotted name: the parent packages' ``__init__`` never runs, and a
    later import of the parent reuses this module.  A module already in
    ``sys.modules`` is returned as is.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    top, _, rest = name.partition(".")
    package = importlib.util.find_spec(top)
    spec = None
    if package is not None and package.submodule_search_locations:
        parent = rest.rpartition(".")[0]
        directory = Path(package.submodule_search_locations[0], *parent.split("."))
        finder = importlib.machinery.FileFinder(
            str(directory),
            (
                importlib.machinery.ExtensionFileLoader,
                importlib.machinery.EXTENSION_SUFFIXES,
            ),
        )
        spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(
            f"compiled module {name} not found in {_describe_package(top)}; "
            f"the engine's AR(1) noise filter needs it",
            name=name,
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def _describe_package(top: str) -> str:
    """``"<top> <version>"``, or a note that ``top`` is not installed."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return f"{top} {version(top)}"
    except PackageNotFoundError:
        return f"{top} (not installed)"


@functools.cache
def _linear_filter() -> Callable:
    """``_linear_filter(b, a, x, axis, zi) -> (y, zf)``, loaded on first use.

    The same kernel ``scipy.signal.lfilter`` reaches for the AR(1)
    filter, without importing ``scipy.signal`` (over a second of
    import, nearly all of it for routines the engine never calls).
    """
    return _load_compiled(_FILTER_MODULE)._linear_filter


@dataclass(frozen=True)
class EngineConfig:
    """Engine tunables.

    ``base_interval_s`` is the ground-truth resolution (the paper measured
    at 0.1 s for the Fig 2 study); ``noise_rel_sigma`` the relative AR(1)
    noise on dynamic power; ``noise_ar_coeff`` its lag-1 correlation.
    """

    base_interval_s: float = 0.1
    noise_rel_sigma: float = 0.03
    noise_ar_coeff: float = 0.85
    noise_floor_w: float = 1.5
    #: Relative per-rank work skew.  The paper's benchmarks were
    #: "meticulously designed to ensure load balancing among MPI tasks"
    #: (Section III-A); setting this above zero models what they avoided:
    #: loaded ranks run longer while the rest idle-wait, stretching the
    #: phase and widening the node-power distribution.
    rank_imbalance: float = 0.0

    def __post_init__(self) -> None:
        if self.base_interval_s <= 0:
            raise ValueError(f"base_interval_s must be positive, got {self.base_interval_s}")
        if not 0.0 <= self.noise_ar_coeff < 1.0:
            raise ValueError(f"noise_ar_coeff must be in [0, 1), got {self.noise_ar_coeff}")
        if self.noise_rel_sigma < 0:
            raise ValueError(f"noise_rel_sigma must be >= 0, got {self.noise_rel_sigma}")
        if not 0.0 <= self.rank_imbalance < 1.0:
            raise ValueError(
                f"rank_imbalance must be in [0, 1), got {self.rank_imbalance}"
            )


@dataclass(frozen=True)
class TraceChunk:
    """One node component's share of a render block: its whole series, or
    one :data:`RENDER_CHUNK`-sample piece of a longer one."""

    node_name: str
    node_index: int
    component: str
    #: Sample offset of this chunk within the schedule's regular grid.
    start_index: int
    times: np.ndarray
    values: np.ndarray

    @property
    def n_samples(self) -> int:
        """Samples in this chunk."""
        return len(self.values)


@dataclass
class StreamedRun:
    """A resolved schedule whose render arrives as a chunk stream.

    ``chunks`` is a single-pass iterator over :class:`TraceChunk` records
    in (node, component, time) order, for the components the stream was
    asked to render.  An unread component only advances the RNG exactly
    as its render would, so every rendered series is bit-identical to
    :meth:`PowerEngine.run`'s whichever components are read.

    ``phases`` is built on first access: fleet consumers read only
    ``runtime_s``, and building hundreds of records per job costs more
    than resolving them.
    """

    label: str
    runtime_s: float
    gpu_power_cap_w: float
    n_nodes: int
    n_samples: int
    base_interval_s: float
    chunks: Iterator[TraceChunk]
    build_phases: Callable[[], list[PhaseRecord]] = field(repr=False)

    @functools.cached_property
    def phases(self) -> list[PhaseRecord]:
        """The laid-out phase schedule."""
        return self.build_phases()


def _phase_records(
    phases: list[MacroPhase],
    slowdown: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> list[PhaseRecord]:
    """The :class:`PhaseRecord` schedule of a laid-out phase list."""
    return [
        PhaseRecord(
            name=phase.name,
            start_s=start,
            end_s=end,
            nominal_duration_s=phase.duration_s,
            slowdown=factor,
        )
        for phase, start, end, factor in zip(
            phases, starts.tolist(), ends.tolist(), slowdown.tolist()
        )
    ]


def rank_skew(gpu_serial: str, rank_imbalance: float) -> float:
    """Deterministic per-rank work skew in [0, rank_imbalance]."""
    if rank_imbalance <= 0.0:
        return 0.0
    return float(unit_rng(gpu_serial, "imbalance").uniform(0.0, rank_imbalance))


@dataclass(frozen=True)
class ResolvedRows:
    """One job's resolved phase table, at row level.

    ``slowdown`` is ``[R]``, ``means`` ``[nodes, components, R]`` with
    components in :data:`COMPONENT_KEYS` order; :meth:`gather` maps them
    to the table's phases (exact).
    """

    slowdown: np.ndarray
    means: np.ndarray

    def gather(self, table: PhaseTable) -> tuple[np.ndarray, np.ndarray]:
        """``(slowdown[P], means[nodes, components, P])`` of the table's phases."""
        rows = table.row_of_phase
        return self.slowdown[rows], np.take(self.means, rows, axis=2)


def resolve_table(
    table: PhaseTable,
    jobs: Sequence[Sequence[GpuNode]],
    cap_w: np.ndarray,
    rank_imbalance: float = 0.0,
) -> list[ResolvedRows]:
    """Cap-resolve one phase table for every job that runs it, in one pass.

    ``jobs`` lists each job's nodes; ``cap_w`` is ``[M, gpus]``, the
    per-GPU caps of all ``M`` node slots in job order (one node may
    serve several jobs at different caps, so caps are an input, not node
    state).  Each distinct row of the table is resolved once for every
    slot, in one batched pass over a ``[rows, M, gpus]`` grid, and the
    host rows of every slot in one pass over an ``[M, units, rows]``
    grid.  A job's slowdown is the exact ``max`` over its own
    ``(nodes, gpus)`` block, with its own largest rank skew.  Every
    element is computed by the same operations whatever the other jobs
    are, so a job resolved in a group equals it resolved alone bit for
    bit; a lone :meth:`PowerEngine.run` or :meth:`PowerEngine.stream`
    is the one-job case.  Returns one :class:`ResolvedRows` per job.
    """
    nodes = [node for job_nodes in jobs for node in job_nodes]
    sizes = [len(job_nodes) for job_nodes in jobs]
    if min(sizes, default=0) < 1 or cap_w.shape[0] != len(nodes):
        raise ValueError(
            f"every job needs nodes and cap_w one row per node slot; got job "
            f"sizes {sizes} and cap_w of shape {cap_w.shape}"
        )
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    obs.inc(
        "repro_engine_resolve_total",
        len(table.row_of_phase) * len(jobs),
        path="vectorized",
    )
    with obs.span(
        "engine.resolve_phases",
        phases=len(table.row_of_phase),
        nodes=len(nodes),
        jobs=len(jobs),
    ):
        # Per-row inputs, shape [R] (broadcast against GPUs as [R, 1, 1]).
        duty = table.column("duty_cycle")
        uc = table.column("compute_utilization")
        um = table.column("memory_utilization")
        cf = table.column("compute_fraction")
        duty_b = duty[:, None, None]

        # Per-GPU model state, shape [M, G]: the static state each node
        # built once.  Rank skews are per GPU; the rank stretch is one
        # plus the job's largest, spread over its slots as [1, M, 1].
        state = dict(
            zip(
                GPU_STATIC_FIELDS,
                np.stack([node.gpu_static_state for node in nodes], axis=1),
            )
        )
        if rank_imbalance > 0.0:
            skews = np.array(
                [[rank_skew(g.serial, rank_imbalance) for g in node.gpus] for node in nodes]
            )
            max_skew = np.maximum.reduceat(skews.max(axis=1), starts)
            stretch = 1.0 + np.repeat(max_skew, sizes)[None, :, None]
        else:
            skews = np.zeros(cap_w.shape)
            stretch = np.ones((1, len(nodes), 1))

        demand = demand_power_batch(
            uc[:, None, None],
            um[:, None, None],
            state["tdp_w"][None],
            state["idle_env_w"][None],
        )
        biased, _frac, slow = resolve_phase_batch(
            demand,
            cf[:, None, None],
            cap_w[None],
            static_w=state["static_w"][None],
            idle_env_w=state["idle_env_w"][None],
            cap_min_w=state["cap_min_w"][None],
            cap_max_w=state["cap_max_w"][None],
            power_factor=state["power_factor"][None],
            idle_offset_w=state["idle_offset_w"][None],
            min_clock_fraction=state["min_clock_fraction"][None],
            control_margin=state["control_margin"][None],
            regulation_error_max=state["regulation_error_max"][None],
            regulation_error_exponent=state["regulation_error_exponent"][None],
        )

        # Load imbalance: rank i holds (1 + skew_i) of the nominal work;
        # the phase runs at the most-loaded rank's pace while the others
        # idle-wait, diluting their duty cycle.
        idle_w = state["idle_w"][None]
        rank_duty = np.minimum(duty_b * (1.0 + skews[None]) / stretch, 1.0)
        gpu_means = rank_duty * biased + (1.0 - rank_duty) * idle_w
        gpu_means = np.where(duty_b <= 0.0, idle_w, gpu_means)

        # Ranks synchronize: each phase runs at its job's slowest GPU's pace.
        slow_terms = (duty_b * slow + (1.0 - duty_b)) * stretch
        row_slowdown = np.maximum.reduceat(slow_terms.max(axis=2), starts, axis=1)
        row_slowdown = np.maximum(row_slowdown, 1.0)
        row_slowdown = np.where(duty[:, None] <= 0.0, 1.0, row_slowdown)

        # Host units (CPU, memory, NICs) in one [M, units, R] pass; nodes
        # with fewer NICs (at least one column) are padded with zero-power
        # ones (x + 0.0 is exact).  The CPU's load u**0.9 is one np.power
        # on the contiguous table column: SIMD and scalar pow can differ.
        host = [node.host_static_state for node in nodes]
        n_units = max(3, *(node_state.shape[1] for node_state in host))
        units = np.zeros((len(HOST_STATIC_FIELDS), len(nodes), n_units))
        for slot, node_state in enumerate(host):
            units[:, slot, : node_state.shape[1]] = node_state
        load = np.empty(units.shape[2:] + (table.n_rows,))
        load[0] = np.power(table.column("cpu_utilization"), 0.9)
        load[1] = table.column("mem_bw_utilization")
        load[2:] = table.column("nic_utilization")
        idle, full, offset, factor = units[..., None]
        nominal = idle + (full - idle) * load
        host_w = (idle + offset) + np.maximum(0.0, nominal - idle) * factor
        nic_w = host_w[:, 2]
        for unit in range(3, host_w.shape[1]):
            nic_w = nic_w + host_w[:, unit]

        # Assemble [M, K, R].  The node total adds GPUs one at a time in
        # index order, the summation order every rendered digest depends on.
        means = np.empty((len(nodes), len(COMPONENT_KEYS), table.n_rows))
        means[:, _GPU_ROWS, :] = gpu_means.transpose(1, 2, 0)
        means[:, _CPU_ROW] = host_w[:, 0]
        means[:, _MEMORY_ROW] = host_w[:, 1]
        gpu_total = means[:, _GPU_ROWS[0]]
        for row in _GPU_ROWS[1:]:
            gpu_total = gpu_total + means[:, row]
        baseboard_w = np.array([node.baseboard_power_w for node in nodes])[:, None]
        means[:, _NODE_ROW] = (
            host_w[:, 0] + gpu_total + host_w[:, 1] + nic_w + baseboard_w
        )
    return [
        ResolvedRows(row_slowdown[:, job], means[start : start + size])
        for job, (start, size) in enumerate(zip(starts, sizes))
    ]


@dataclass(frozen=True)
class Layout:
    """One job's phases on the wall clock and on the regular sample grid.

    ``slowdown``, ``starts``, ``ends`` and ``counts`` are ``[P]``; phase
    ``p`` covers ``counts[p]`` samples, and the counts sum to
    ``n_samples``.
    """

    slowdown: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    n_samples: int
    counts: np.ndarray

    @property
    def runtime_s(self) -> float:
        """Wall-clock end of the last phase."""
        return float(self.ends[-1])


def _phase_sample_counts(
    durations: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per job, (total samples ``[J]``, per-phase sample counts ``[J, P]``).

    ``durations`` are ``[jobs, phases]`` laid-out phase durations
    (``end - start``).  Phase ``i`` ends at sample
    ``rint(sum(durations[:i+1]) / dt)``; the running sum must be
    sequential (``cumsum``, as the wall clock advances), never pairwise.
    ``cumsum`` along a row is sequential, so every row equals its one-job
    layout.
    """
    t_acc = np.cumsum(durations, axis=1)
    n_samples = np.maximum(np.rint(t_acc[:, -1] / dt).astype(np.int64), 1)
    upto = np.minimum(np.rint(t_acc / dt).astype(np.int64), n_samples[:, None])
    counts = np.diff(upto, axis=1, prepend=0)
    # Rounding drift: park the remainder on the final phase so the
    # per-phase counts always sum to n_samples.
    counts[:, -1] += n_samples - upto[:, -1]
    return n_samples, counts


def lay_out(durations: np.ndarray, slowdown: np.ndarray, dt: float) -> list[Layout]:
    """Lay out every job of a resolve group on the wall clock and the grid.

    ``durations`` are the table's nominal ``[P]`` phase durations,
    ``slowdown`` each job's ``[jobs, P]`` phase slowdowns.  Phases run
    back to back: ``cumsum`` along a job's row adds its stretched
    durations in order, exactly as a wall clock advanced phase by phase
    would, so a job laid out in a group equals it laid out alone.
    """
    ends = np.cumsum(durations * slowdown, axis=1)
    starts = np.zeros_like(ends)
    starts[:, 1:] = ends[:, :-1]
    n_samples, counts = _phase_sample_counts(ends - starts, dt)
    return [
        Layout(slowdown[job], starts[job], ends[job], int(n_samples[job]), counts[job])
        for job in range(len(ends))
    ]


class RenderBlock(NamedTuple):
    """Rendered samples ``[start, start + width)`` of some series.

    ``values`` is ``[len(series), width]``, float64; row ``i`` belongs to
    ``series[i]``, a ``(node_index, row)`` pair whose ``row`` indexes
    :data:`COMPONENT_KEYS`.  Whole-series blocks start at 0.
    """

    series: list[tuple[int, int]]
    start: int
    values: np.ndarray


def _series_pieces(
    counts: np.ndarray, n_samples: int
) -> list[tuple[int, int, slice, np.ndarray]]:
    """``(start, stop, phases, phase_counts)`` of each piece of one series.

    One piece covering every phase when the series fits in
    :data:`RENDER_CHUNK`; else :data:`RENDER_CHUNK`-sample pieces, each
    with the phase segments overlapping it.
    """
    chunk = RENDER_CHUNK
    if n_samples <= chunk:
        return [(0, n_samples, slice(None), counts)]
    edges = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
    pieces = []
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
        i0 = int(np.searchsorted(edges, start, side="right")) - 1
        i1 = int(np.searchsorted(edges, stop, side="left"))
        seg_counts = np.minimum(edges[i0 + 1 : i1 + 1], stop) - np.maximum(
            edges[i0:i1], start
        )
        pieces.append((start, stop, slice(i0, i1), seg_counts))
    return pieces


@functools.cache
def _ar_filter(coeff: float) -> tuple[np.ndarray, np.ndarray, np.float64]:
    """AR(1) filter ``(b, a, scale)``: ``y[t] = coeff*y[t-1] + e[t]``,
    then ``y * scale`` has the variance of ``e``.  Read-only: every
    render shares them."""
    b, a = np.ones(1), np.array([1.0, -coeff])
    b.setflags(write=False)
    a.setflags(write=False)
    return b, a, np.sqrt(1.0 - coeff**2)


def render_blocks(
    means: np.ndarray,
    layout: Layout,
    rows: Collection[int],
    seed: int,
    config: EngineConfig,
) -> Iterator[RenderBlock]:
    """Render one job's component series as :class:`RenderBlock` records.

    ``means`` is ``[nodes, components, P]``; the series are its
    ``(node, component)`` pairs in stream order, node-major, and only
    components whose row is in ``rows`` are rendered.  A block holds
    ``max(1, RENDER_CHUNK // n_samples)`` consecutive series and gets one
    ``standard_normal`` call for all of them, read or not, then one AR(1)
    filter call over its read rows (a ``zi`` per row) and one clip.  A
    series longer than :data:`RENDER_CHUNK` is drawn and filtered in
    pieces with its filter state carried, one block per piece.

    The RNG is consumed in stream order, and a draw of ``a + b`` normals
    equals draws of ``a`` then ``b``, so every series is the same sample
    for sample at any chunk size and whichever rows are read.  With
    noise off nothing is drawn.
    """
    rng = np.random.default_rng(seed)
    n_nodes, n_rows = means.shape[:2]
    n_series = n_nodes * n_rows
    levels_of = means.reshape(n_series, -1)
    n_samples = layout.n_samples
    per_block = max(1, RENDER_CHUNK // n_samples)
    pieces = _series_pieces(layout.counts, n_samples)
    noisy = config.noise_rel_sigma != 0.0
    ar_b, ar_a, ar_scale = _ar_filter(config.noise_ar_coeff)
    for first in range(0, n_series, per_block):
        size = min(per_block, n_series - first)
        picked = [s for s in range(first, first + size) if s % n_rows in rows]
        series = [divmod(s, n_rows) for s in picked]
        zi = np.zeros((len(picked), 1))
        for start, stop, phases, phase_counts in pieces:
            width = stop - start
            if noisy:
                normals = rng.standard_normal(size * width).reshape(size, width)
            if not picked:
                continue
            levels = np.repeat(levels_of[picked, phases], phase_counts, axis=1)
            if noisy:
                if len(picked) < size:
                    normals = normals[[s - first for s in picked]]
                sigma = config.noise_rel_sigma * levels + config.noise_floor_w
                # AR(1) filter, then normalize the stationary variance.
                ar, zi = _linear_filter()(ar_b, ar_a, normals * sigma, -1, zi)
                ar *= ar_scale
                values = np.maximum(levels + ar, 0.0)
            else:
                values = levels
            yield RenderBlock(series, start, values)


class PowerEngine:
    """Runs phase sequences on a fixed set of nodes."""

    def __init__(self, nodes: list[GpuNode], config: EngineConfig | None = None) -> None:
        if not nodes:
            raise ValueError("engine needs at least one node")
        gpu_counts = sorted({len(node.gpus) for node in nodes})
        if gpu_counts != [len(GPU_KEYS)]:
            raise ValueError(
                f"every node needs {len(GPU_KEYS)} GPUs (the trace schema), "
                f"got GPU counts {gpu_counts}"
            )
        self.nodes = nodes
        self.config = config if config is not None else EngineConfig()

    # ------------------------------------------------------------------
    def _resolve_phases(
        self, table: PhaseTable, cap_w: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cap-resolve a phase table on this engine's nodes at ``cap_w``.

        The one-job case of :func:`resolve_table`, every GPU at its
        :func:`~repro.hardware.platform.applied_cap_w` (None = its own TDP;
        each GPU checks ``cap_w`` against its own range, so a mixed pool
        rejects a cap any of its platforms cannot apply), gathered to
        phases: ``(slowdown[P], means[nodes, components, P])``.  Its
        scalar per-node / per-GPU specification is the oracle in
        ``tests/runner/test_engine_vectorized.py``.
        """
        nodes = self.nodes
        caps = np.array([[applied_cap_w(g.spec, cap_w) for g in node.gpus] for node in nodes])
        (rows,) = resolve_table(table, [nodes], caps, self.config.rank_imbalance)
        return rows.gather(table)

    def _resolve_and_layout(
        self, phases: list[MacroPhase], cap_w: float | None = None
    ) -> tuple[Layout, np.ndarray]:
        """Cap-resolve phases and lay them out: ``(layout, means[N, K, P])``.

        The phase table comes with a store-held list and is built now for
        any other (see :func:`~repro.vasp.phases.phase_table`).  The
        layout is the one-job case of :func:`lay_out`.
        """
        table = phase_table(phases)
        slowdown, means = self._resolve_phases(table, cap_w)
        (layout,) = lay_out(
            table.durations, slowdown[None], self.config.base_interval_s
        )
        return layout, means

    # ------------------------------------------------------------------
    def run(
        self,
        phases: list[MacroPhase],
        label: str = "run",
        seed: int = 0,
        cap_w: float | None = None,
    ) -> RunResult:
        """Execute a phase sequence and return traces plus the schedule.

        ``cap_w`` is the power limit of every GPU (None = the TDP), as
        the paper applied ``nvidia-smi -pl`` before launching jobs; an
        out-of-range cap raises :class:`~repro.hardware.platform.PowerLimitError`.
        """
        if not phases:
            raise ValueError("cannot run an empty phase list")
        obs.inc("repro_engine_runs_total")
        with obs.span(
            "engine.run", label=label, phases=len(phases), nodes=len(self.nodes)
        ):
            return self._run_instrumented(phases, label, seed, cap_w)

    def _run_instrumented(
        self, phases: list[MacroPhase], label: str, seed: int, cap_w: float | None
    ) -> RunResult:
        layout, means = self._resolve_and_layout(phases, cap_w)
        n_samples = layout.n_samples
        with obs.span(
            "engine.render_traces", phases=len(phases), nodes=len(self.nodes)
        ) as render_span:
            dt = self.config.base_interval_s
            times = (np.arange(n_samples) + 0.5) * dt
            dtype = trace_dtype()
            traces = [
                PowerTrace(
                    node_name=node.name,
                    times=times,
                    data=np.empty((len(COMPONENT_KEYS), n_samples), dtype=dtype),
                    base_interval_s=dt,
                )
                for node in self.nodes
            ]
            for block in render_blocks(means, layout, _ALL_ROWS, seed, self.config):
                stop = block.start + block.values.shape[1]
                for (node_index, row), values in zip(block.series, block.values):
                    traces[node_index].data[row, block.start : stop] = values
            render_span.annotate(samples=n_samples)
        return RunResult(
            label=label,
            traces=traces,
            phases=_phase_records(
                phases, layout.slowdown, layout.starts, layout.ends
            ),
            runtime_s=layout.runtime_s,
            gpu_power_cap_w=applied_cap_w(self.nodes[0].gpus[0].spec, cap_w),
        )

    # ------------------------------------------------------------------
    def stream(
        self,
        phases: list[MacroPhase],
        label: str = "run",
        seed: int = 0,
        components: Sequence[str] = COMPONENT_KEYS,
        cap_w: float | None = None,
    ) -> "StreamedRun":
        """Resolve a schedule and stream its render one series chunk at a time.

        Returns a :class:`StreamedRun` whose ``chunks`` iterator yields
        :class:`TraceChunk` records in (node, component, time) order, one
        per series per :func:`render_blocks` block: a whole series when
        it fits in :data:`RENDER_CHUNK` samples, else one
        :data:`RENDER_CHUNK`-sample piece.  The concatenation of one
        series' chunks is bit-identical to the trace :meth:`run` renders
        for the same seed.  Only the current block is held, which is what
        lets consumers aggregate thousands of node traces in bounded
        memory.

        ``components`` names the rows the consumer reads (default: all
        of :data:`COMPONENT_KEYS`).  Only they are rendered; every other
        row only advances the RNG, which keeps the rendered rows
        bit-identical to a full render.  ``cap_w`` is as in :meth:`run`.
        """
        if not phases:
            raise ValueError("cannot run an empty phase list")
        unknown = sorted(set(components) - set(COMPONENT_KEYS))
        if unknown:
            raise ValueError(
                f"unknown components {unknown}; known: {', '.join(COMPONENT_KEYS)}"
            )
        rows = frozenset(COMPONENT_KEYS.index(key) for key in components)
        obs.inc("repro_engine_streams_total")
        layout, means = self._resolve_and_layout(phases, cap_w)
        blocks = render_blocks(means, layout, rows, seed, self.config)
        dt = self.config.base_interval_s
        dtype = trace_dtype()

        def generate() -> Iterator[TraceChunk]:
            for block in blocks:
                stop = block.start + block.values.shape[1]
                times = (np.arange(block.start, stop) + 0.5) * dt
                for (node_index, row), values in zip(block.series, block.values):
                    obs.inc("repro_engine_chunks_total")
                    yield TraceChunk(
                        node_name=self.nodes[node_index].name,
                        node_index=node_index,
                        component=COMPONENT_KEYS[row],
                        start_index=block.start,
                        times=times,
                        values=values.astype(dtype),
                    )

        return StreamedRun(
            label=label,
            runtime_s=layout.runtime_s,
            gpu_power_cap_w=applied_cap_w(self.nodes[0].gpus[0].spec, cap_w),
            n_nodes=len(self.nodes),
            n_samples=layout.n_samples,
            base_interval_s=dt,
            chunks=generate(),
            build_phases=functools.partial(
                _phase_records, phases, layout.slowdown, layout.starts, layout.ends
            ),
        )
