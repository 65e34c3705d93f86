"""The power engine: macro-phases x nodes x caps -> power traces.

For every phase the engine resolves, per GPU:

1. demand power from the phase's kernel profile (occupancy-scaled);
2. the cap response — clock fraction, sustained power, slowdown — via the
   GPU's DVFS model;
3. the duty-cycle average between active and idle power;

then assembles node-level component samples, stretches the phase by the
cap-imposed slowdown, and renders the schedule to a regular 0.1-second
grid with AR(1) measurement/activity noise (what makes the KDE analysis
of Section III meaningful).  Every trace renders through one chunked
path, :data:`RENDER_CHUNK` samples at a time: :meth:`PowerEngine.run`
writes the chunks into whole-trace blocks, :meth:`PowerEngine.stream`
hands them out one by one.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

import numpy as np

from repro import obs
from repro.hardware.gpu import resolve_phase_batch
from repro.hardware.node import GpuNode
from repro.hardware.variability import unit_rng
from repro.perfmodel.power import demand_power_batch, demand_power_w
from repro.vasp.phases import MacroPhase
from repro.runner.trace import (
    COMPONENT_KEYS,
    GPU_KEYS,
    PhaseRecord,
    PowerTrace,
    RunResult,
    TraceBlock,
    trace_dtype,
)

#: Samples per rendered chunk, for every trace.  Peak render working
#: memory is O(chunk), not O(schedule); a typical fleet job (hundreds to
#: a few thousand samples per series) fits in one chunk.
RENDER_CHUNK = 16_384

#: ``(node_index, row, start, values)`` chunks of rendered component rows.
_Chunks = Iterator[tuple[int, int, int, np.ndarray]]

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
    """One fixed-size slice of one node component's rendered series."""

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
        # AR(1) filter coefficients: y[t] = a*y[t-1] + e[t].
        self._ar_b = np.ones(1)
        self._ar_a = np.array([1.0, -self.config.noise_ar_coeff])

    # ------------------------------------------------------------------
    def _rank_skew(self, gpu_serial: str) -> float:
        """Deterministic per-rank work skew in [0, rank_imbalance]."""
        if self.config.rank_imbalance <= 0.0:
            return 0.0
        return float(
            unit_rng(gpu_serial, "imbalance").uniform(0.0, self.config.rank_imbalance)
        )

    def _gpu_skews(self) -> dict[str, float]:
        """Per-GPU rank skews for every GPU in the pool."""
        return {
            gpu.serial: self._rank_skew(gpu.serial)
            for node in self.nodes
            for gpu in node.gpus
        }

    def _resolve_phases(
        self, phases: list[MacroPhase]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cap-resolve all phases on all nodes x GPUs with array ops.

        Returns ``(slowdown, means)``: the per-phase slowdown ``[P]`` and
        the mean power of every component during every phase,
        ``[nodes, components, phases]`` with components in
        :data:`COMPONENT_KEYS` order.  This is the vectorized equivalent
        of calling :meth:`_resolve_phase_reference` per phase: one batched
        pass over a ``[phases, nodes, gpus]`` grid instead of three nested
        Python loops.
        """
        obs.inc("repro_engine_resolve_total", len(phases), path="vectorized")

        nodes = self.nodes
        n_nodes = len(nodes)

        # Per-phase inputs, shape [P] (broadcast against GPUs as [P, 1, 1]).
        duty = np.array([p.gpu_profile.duty_cycle for p in phases])
        uc = np.array([p.gpu_profile.compute_utilization for p in phases])
        um = np.array([p.gpu_profile.memory_utilization for p in phases])
        cf = np.array([p.gpu_profile.compute_fraction for p in phases])
        duty_b = duty[:, None, None]

        # Per-GPU model state, shape [N, G].
        per_node = [node.gpu_state_arrays() for node in nodes]
        state = {
            key: np.stack([arrays[key] for arrays in per_node])
            for key in per_node[0]
        }
        skews_by_serial = self._gpu_skews()
        skews = np.array(
            [[skews_by_serial[gpu.serial] for gpu in node.gpus] for node in nodes]
        )
        max_skew = float(skews.max()) if skews.size else 0.0

        demand = demand_power_batch(
            uc[:, None, None],
            um[:, None, None],
            state["tdp_w"][None],
            state["idle_env_w"][None],
        )
        biased, _frac, slow = resolve_phase_batch(
            demand,
            cf[:, None, None],
            state["cap_w"][None],
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
        rank_duty = np.minimum(duty_b * (1.0 + skews[None]) / (1.0 + max_skew), 1.0)
        gpu_means = rank_duty * biased + (1.0 - rank_duty) * idle_w
        gpu_means = np.where(duty_b <= 0.0, idle_w, gpu_means)

        # Ranks synchronize: each phase runs at the slowest GPU's pace.
        slow_terms = (duty_b * slow + (1.0 - duty_b)) * (1.0 + max_skew)
        phase_slowdown = np.maximum(slow_terms.max(axis=(1, 2)), 1.0)
        phase_slowdown = np.where(duty <= 0.0, 1.0, phase_slowdown)

        # Assemble [N, K, P]: GPU rows straight from the grid, host-side
        # rows per node.  The node total adds GPUs one at a time in index
        # order, the summation order every rendered digest depends on.
        means = np.empty((n_nodes, len(COMPONENT_KEYS), len(phases)))
        means[:, _GPU_ROWS, :] = gpu_means.transpose(1, 2, 0)
        cpu_u = np.array([p.cpu_utilization for p in phases])
        mem_u = np.array([p.mem_bw_utilization for p in phases])
        nic_u = np.array([p.nic_utilization for p in phases])
        for node_index, node in enumerate(nodes):
            cpu_w, memory_w, nic_w = node.host_power_batch(cpu_u, mem_u, nic_u)
            gpu_total = 0.0
            for row in _GPU_ROWS:
                gpu_total = gpu_total + means[node_index, row]
            rows = means[node_index]
            rows[_CPU_ROW] = cpu_w
            rows[_MEMORY_ROW] = memory_w
            rows[_NODE_ROW] = (
                cpu_w + gpu_total + memory_w + nic_w + node.baseboard_power_w
            )
        return phase_slowdown, means

    def _resolve_phase_reference(self, phase: MacroPhase) -> tuple[float, np.ndarray]:
        """Cap-resolve one phase on every node: ``(slowdown, means[N, K])``.

        Scalar reference implementation: per-node / per-GPU Python loops.
        The production path is :meth:`_resolve_phases`, whose
        ``means[:, :, p]`` this reproduces for phase ``p``; it is kept as
        the readable specification and the oracle the
        vectorized-equivalence tests replay.
        """
        profile = phase.gpu_profile
        duty = profile.duty_cycle
        means = np.empty((len(self.nodes), len(COMPONENT_KEYS)))
        slowdown = 1.0
        skews = {
            gpu.serial: self._rank_skew(gpu.serial)
            for node in self.nodes
            for gpu in node.gpus
        }
        max_skew = max(skews.values()) if skews else 0.0
        for node_index, node in enumerate(self.nodes):
            gpu_means: list[float] = []
            for gpu in node.gpus:
                if duty <= 0.0:
                    gpu_means.append(gpu.idle_power_w)
                    continue
                demand = demand_power_w(profile, gpu.envelope)
                sample = gpu.resolve_phase(demand, profile.compute_fraction)
                # Load imbalance: rank i holds (1 + skew_i) of the nominal
                # work; the phase runs at the most-loaded rank's pace while
                # the others idle-wait, diluting their duty cycle.
                rank_duty = min(
                    duty * (1.0 + skews[gpu.serial]) / (1.0 + max_skew), 1.0
                )
                gpu_means.append(
                    rank_duty * sample.power_w + (1.0 - rank_duty) * gpu.idle_power_w
                )
                # Ranks synchronize: the job runs at the slowest GPU's pace.
                slowdown = max(
                    slowdown,
                    (duty * sample.slowdown + (1.0 - duty)) * (1.0 + max_skew),
                )
            node_sample = node.sample(
                gpu_power_w=gpu_means,
                cpu_utilization=phase.cpu_utilization,
                memory_bandwidth_utilization=phase.mem_bw_utilization,
                nic_utilization=phase.nic_utilization,
            )
            row = means[node_index]
            row[_CPU_ROW] = node_sample.cpu_w
            row[_MEMORY_ROW] = node_sample.memory_w
            row[_NODE_ROW] = node_sample.node_w
            row[_GPU_ROWS] = node_sample.gpu_w
        return slowdown, means

    def _phase_sample_counts(self, durations: np.ndarray) -> tuple[int, np.ndarray]:
        """(total samples, per-phase sample counts) on the regular grid.

        ``durations`` are the laid-out phase durations (``end - start``).
        Phase ``i`` ends at sample ``rint(sum(durations[:i+1]) / dt)``;
        the running sum must be sequential (``cumsum``, as the wall clock
        advances), never pairwise.
        """
        dt = self.config.base_interval_s
        t_acc = np.cumsum(durations)
        n_samples = max(int(np.rint(t_acc[-1] / dt)), 1)
        upto = np.minimum(np.rint(t_acc / dt).astype(np.int64), n_samples)
        counts = np.diff(upto, prepend=0)
        if upto[-1] < n_samples:
            # Rounding drift: park the remainder on the final phase so the
            # per-phase counts always sum to n_samples.
            counts[-1] += n_samples - upto[-1]
        return n_samples, counts

    def _render(
        self, phases: list[MacroPhase], seed: int, rows: frozenset[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, _Chunks]:
        """The one render pipeline behind :meth:`run` and :meth:`stream`.

        Resolves and lays out ``phases`` now and returns ``(slowdown[P],
        starts[P], ends[P], n_samples, chunks)``.  ``chunks`` renders the
        component rows in ``rows`` lazily, as
        :meth:`_iter_component_chunks` yields them.
        """
        rng = np.random.default_rng(seed)
        slowdown, means, starts, ends = self._resolve_and_layout(phases)
        n_samples, counts = self._phase_sample_counts(ends - starts)
        chunks = self._iter_component_chunks(means, rng, n_samples, counts, rows)
        return slowdown, starts, ends, n_samples, chunks

    def _render_traces(self, n_samples: int, chunks: _Chunks) -> list[PowerTrace]:
        """Write a full chunk stream into columnar traces: one
        ``(n_components, n_samples)`` block per node."""
        dt = self.config.base_interval_s
        dtype = trace_dtype()
        times = (np.arange(n_samples) + 0.5) * dt
        blocks = [
            TraceBlock(
                node_name=node.name,
                times=times,
                data=np.empty((len(COMPONENT_KEYS), n_samples), dtype=dtype),
                base_interval_s=dt,
            )
            for node in self.nodes
        ]
        for node_index, row, start, values in chunks:
            blocks[node_index].data[row, start : start + len(values)] = values
        return [PowerTrace.from_block(block) for block in blocks]

    def _iter_component_chunks(
        self,
        means: np.ndarray,
        rng: np.random.Generator,
        n_samples: int,
        counts: np.ndarray,
        rows: frozenset[int],
    ) -> _Chunks:
        """Yield ``(node_index, row, start, values)`` chunks of
        :data:`RENDER_CHUNK` samples (the last of a series may be shorter).

        ``row`` indexes :data:`COMPONENT_KEYS` (and ``means[node_index]``);
        only the rows in ``rows`` are rendered.

        Chunks come in (node, component, time) order, the order the RNG
        stream is consumed in, and the AR(1) filter state is carried
        across chunk boundaries via the filter's ``zi``/``zf``, so a series
        is the same sample for sample at any chunk size.  A row outside
        ``rows`` only advances the RNG by the normals its render would
        draw (none when noise is off) — a series' draws consume the
        stream the same in one piece or many — and gets no filter, clip
        or chunk.
        """
        chunk = RENDER_CHUNK
        edges = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        # Every series splits at the same offsets: per chunk [start, stop),
        # its size and the phase segments overlapping it, found once.
        spans = []
        for start in range(0, n_samples, chunk):
            stop = min(start + chunk, n_samples)
            i0 = int(np.searchsorted(edges, start, side="right")) - 1
            i1 = int(np.searchsorted(edges, stop, side="left"))
            seg_counts = np.minimum(edges[i0 + 1 : i1 + 1], stop) - np.maximum(
                edges[i0:i1], start
            )
            spans.append((start, stop - start, slice(i0, i1), seg_counts))
        noisy = self.config.noise_rel_sigma != 0.0
        for node_index in range(len(self.nodes)):
            for row in range(len(COMPONENT_KEYS)):
                if row not in rows:
                    if noisy:
                        for _, size, _, _ in spans:
                            rng.standard_normal(size)
                    continue
                levels = means[node_index, row]
                zi = np.zeros(1)
                for start, _, segments, seg_counts in spans:
                    values, zi = self._add_noise_chunk(
                        np.repeat(levels[segments], seg_counts), rng, zi
                    )
                    yield node_index, row, start, values

    def _add_noise_chunk(
        self, means: np.ndarray, rng: np.random.Generator, zi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One noise chunk plus the AR(1) filter state to carry forward.

        ``zi`` is the direct-form filter state from the previous chunk of
        the same series (zeros at series start); threading it through
        the filter makes chunked rendering bit-identical to filtering the
        whole series at once.  The noise is proportional to the signal's
        dynamic range.  The filter is scipy's compiled ``lfilter`` kernel
        (see :func:`_linear_filter`).
        """
        cfg = self.config
        if cfg.noise_rel_sigma == 0.0:
            return means.astype(float), zi
        sigma = cfg.noise_rel_sigma * means + cfg.noise_floor_w
        white = rng.standard_normal(len(means)) * sigma
        # AR(1) filter, then normalize the stationary variance.
        ar, zf = _linear_filter()(self._ar_b, self._ar_a, white, -1, zi)
        ar *= np.sqrt(1.0 - cfg.noise_ar_coeff**2)
        return np.maximum(means + ar, 0.0), zf

    # ------------------------------------------------------------------
    def run(
        self,
        phases: list[MacroPhase],
        label: str = "run",
        seed: int = 0,
    ) -> RunResult:
        """Execute a phase sequence and return traces plus the schedule.

        GPU power caps are whatever is currently set on the engine's nodes
        (``GpuNode.set_gpu_power_limit``), mirroring how the paper applied
        ``nvidia-smi -pl`` before launching jobs.
        """
        if not phases:
            raise ValueError("cannot run an empty phase list")
        obs.inc("repro_engine_runs_total")
        with obs.span(
            "engine.run", label=label, phases=len(phases), nodes=len(self.nodes)
        ):
            return self._run_instrumented(phases, label, seed)

    def _resolve_and_layout(
        self, phases: list[MacroPhase]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cap-resolve phases and lay them out on the wall clock.

        Returns ``(slowdown[P], means[N, K, P], starts[P], ends[P])``.
        Phases run back to back: ``cumsum`` adds the stretched durations
        in order, exactly as a wall clock advanced phase by phase would.
        """
        with obs.span(
            "engine.resolve_phases", phases=len(phases), nodes=len(self.nodes)
        ):
            slowdown, means = self._resolve_phases(phases)
        nominal = np.array([p.duration_s for p in phases], dtype=float)
        ends = np.cumsum(nominal * slowdown)
        starts = np.concatenate(([0.0], ends[:-1]))
        return slowdown, means, starts, ends

    def _run_instrumented(
        self, phases: list[MacroPhase], label: str, seed: int
    ) -> RunResult:
        slowdown, starts, ends, n_samples, chunks = self._render(
            phases, seed, _ALL_ROWS
        )
        with obs.span(
            "engine.render_traces", phases=len(phases), nodes=len(self.nodes)
        ) as render_span:
            traces = self._render_traces(n_samples, chunks)
            render_span.annotate(samples=n_samples)
        return RunResult(
            label=label,
            traces=traces,
            phases=_phase_records(phases, slowdown, starts, ends),
            runtime_s=float(ends[-1]),
            gpu_power_cap_w=self.nodes[0].gpu_power_limit_w,
        )

    # ------------------------------------------------------------------
    def stream(
        self,
        phases: list[MacroPhase],
        label: str = "run",
        seed: int = 0,
        on_chunk: (
            "Callable[[TraceChunk], None]"
            " | Sequence[Callable[[TraceChunk], None]] | None"
        ) = None,
        components: Sequence[str] = COMPONENT_KEYS,
    ) -> "StreamedRun":
        """Resolve a schedule and stream its render in :data:`RENDER_CHUNK` chunks.

        Returns a :class:`StreamedRun` whose ``chunks`` iterator yields
        :class:`TraceChunk` records in (node, component, time) order; the
        concatenation of one series' chunks is bit-identical to the trace
        :meth:`run` renders for the same seed.  Nothing is retained
        between chunks, which is what lets fleet-scale consumers
        aggregate thousands of node traces in bounded memory.

        ``components`` names the rows the consumer reads (default: all
        of :data:`COMPONENT_KEYS`).  Only they are rendered; every other
        row only advances the RNG, which keeps the rendered rows
        bit-identical to a full render.

        ``on_chunk`` is an observer tap — one callable or a sequence of
        callables (shard workers stack a monitor probe on top of their
        partial builder): each sees every rendered chunk before the
        consumer does, in the given order.  Taps must not mutate chunk
        arrays — the render is oblivious to them, which is what keeps
        monitored runs bit-identical to unmonitored ones.
        """
        if not phases:
            raise ValueError("cannot run an empty phase list")
        unknown = sorted(set(components) - set(COMPONENT_KEYS))
        if unknown:
            raise ValueError(
                f"unknown components {unknown}; known: {', '.join(COMPONENT_KEYS)}"
            )
        rows = frozenset(COMPONENT_KEYS.index(key) for key in components)
        if on_chunk is None:
            taps: tuple = ()
        elif callable(on_chunk):
            taps = (on_chunk,)
        else:
            taps = tuple(on_chunk)
        obs.inc("repro_engine_streams_total")
        slowdown, starts, ends, n_samples, rendered = self._render(
            phases, seed, rows
        )
        dt = self.config.base_interval_s
        dtype = trace_dtype()

        def generate() -> Iterator[TraceChunk]:
            for node_index, row, start, values in rendered:
                obs.inc("repro_engine_chunks_total")
                stop = start + len(values)
                chunk = TraceChunk(
                    node_name=self.nodes[node_index].name,
                    node_index=node_index,
                    component=COMPONENT_KEYS[row],
                    start_index=start,
                    times=(np.arange(start, stop) + 0.5) * dt,
                    values=values.astype(dtype),
                )
                for tap in taps:
                    tap(chunk)
                yield chunk

        return StreamedRun(
            label=label,
            runtime_s=float(ends[-1]),
            gpu_power_cap_w=self.nodes[0].gpu_power_limit_w,
            n_nodes=len(self.nodes),
            n_samples=n_samples,
            base_interval_s=dt,
            chunks=generate(),
            build_phases=functools.partial(
                _phase_records, phases, slowdown, starts, ends
            ),
        )
