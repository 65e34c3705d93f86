"""The block renderer against the per-series renderer it replaced.

``render_blocks`` renders whole consecutive series a block at a time:
one normal draw for the block, one filter call over its read rows and
one clip.  The oracles below are the code the engine and the fleet ran
before: one series at a time in :data:`RENDER_CHUNK` chunks, one draw,
one filter call and one ``np.repeat`` per chunk, and a fleet fold of
one deposit and one moment row per chunk.  Every comparison is exact
(bytes or ``==``): the render feeds every digest, so a one-ulp change
anywhere is a failure.
"""

import numpy as np
import pytest

from repro.capping import shard
from repro.capping.fleet import FleetRun, job_stream, simulate_fleet_traced
from repro.hardware.node import GpuNode
from repro.hardware.system import JobPowerPartial, RunningMoments
from repro.monitor import FleetMonitor
from repro.perfmodel.kernels import KernelCatalogue
from repro.runner import engine as engine_module
from repro.runner.engine import (
    EngineConfig,
    PowerEngine,
    _linear_filter,
    _phase_sample_counts,
    lay_out,
)
from repro.runner.trace import COMPONENT_KEYS
from repro.vasp.phases import MacroPhase

#: Chunk sizes: series longer than a chunk at 7 and 23, several series
#: per block at 64, and the default.
CHUNKS = [7, 23, 64, None]
DTYPES = ["float32", "float64"]


def hot(duration):
    return MacroPhase(
        name="hot", duration_s=duration, gpu_profile=KernelCatalogue.DGEMM_TEST
    )


def cold(duration):
    return MacroPhase(
        name="cold", duration_s=duration, gpu_profile=KernelCatalogue.HOST_SECTION
    )


#: 67 samples at 0.1 s; the 0.01 s and 0.02 s phases get zero samples.
SCHEDULE = [hot(3.0), cold(0.01), hot(0.02), cold(2.0), hot(1.7)]


def set_chunk(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(engine_module, "RENDER_CHUNK", chunk)


# ----------------------------------------------------------------------
# The oracles: the per-series renderer and the per-chunk fleet fold
# ----------------------------------------------------------------------
def oracle_noise_chunk(config, means, rng, zi):
    """One chunk of one series: draw, filter with ``zi``, clip."""
    if config.noise_rel_sigma == 0.0:
        return means.astype(float), zi
    sigma = config.noise_rel_sigma * means + config.noise_floor_w
    white = rng.standard_normal(len(means)) * sigma
    b, a = np.ones(1), np.array([1.0, -config.noise_ar_coeff])
    ar, zf = _linear_filter()(b, a, white, -1, zi)
    ar *= np.sqrt(1.0 - config.noise_ar_coeff**2)
    return np.maximum(means + ar, 0.0), zf


def oracle_chunks(config, means, seed, n_samples, counts, rows):
    """Yield ``(node_index, row, start, values)`` chunks, one series at a time.

    ``means`` is ``[nodes, components, P]``.  An unread row only draws
    its normals, chunk by chunk.
    """
    rng = np.random.default_rng(seed)
    chunk = engine_module.RENDER_CHUNK
    edges = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
    spans = []
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
        i0 = int(np.searchsorted(edges, start, side="right")) - 1
        i1 = int(np.searchsorted(edges, stop, side="left"))
        seg_counts = np.minimum(edges[i0 + 1 : i1 + 1], stop) - np.maximum(
            edges[i0:i1], start
        )
        spans.append((start, stop - start, slice(i0, i1), seg_counts))
    noisy = config.noise_rel_sigma != 0.0
    for node_index in range(means.shape[0]):
        for row in range(means.shape[1]):
            if row not in rows:
                if noisy:
                    for _, size, _, _ in spans:
                        rng.standard_normal(size)
                continue
            levels = means[node_index, row]
            zi = np.zeros(1)
            for start, _, segments, seg_counts in spans:
                values, zi = oracle_noise_chunk(
                    config, np.repeat(levels[segments], seg_counts), rng, zi
                )
                yield node_index, row, start, values


def engine_chunks(engine, phases, seed, rows=frozenset(range(len(COMPONENT_KEYS)))):
    """The oracle's chunks for an engine run, on the engine's own layout."""
    layout, means = engine._resolve_and_layout(phases)
    return layout, list(
        oracle_chunks(
            engine.config, means, seed, layout.n_samples, layout.counts, rows
        )
    )


def oracle_job_partial(job, task, nodes, phases, resolved, layout, dtype):
    """A fleet job folded chunk by chunk: one deposit, one moment row and
    one probe observation per series chunk."""
    config = task.engine_config or EngineConfig()
    probe = None
    if task.monitor_platform is not None:
        from repro.monitor.collector import JobProbe

        probe = JobProbe(
            task.monitor_platform,
            job_id=job.job_id,
            n_nodes=job.n_nodes,
            cap_w=job.cap_w,
            start_s=job.start_s,
            end_s=job.end_s,
            nominal_runtime_s=job.nominal_runtime_s,
            node_specs={node.name: node.spec for node in nodes},
        )
    components = probe.COMPONENTS if probe is not None else ("node",)
    rows = frozenset(COMPONENT_KEYS.index(key) for key in components)
    _, means = resolved.gather(phases.table)
    dt = config.base_interval_s
    power = JobPowerPartial(start_s=job.start_s, bin_s=task.bin_s)
    moment_rows, chunks, nbytes = [], 0, 0
    for node_index, row, start, values in oracle_chunks(
        config, means, job.seed, layout.n_samples, layout.counts, rows
    ):
        values = values.astype(dtype)
        times = (np.arange(start, start + len(values)) + 0.5) * dt
        state = None
        if COMPONENT_KEYS[row] == "node":
            state = RunningMoments.from_batch(values).state()
            power.add_samples(job.start_s, times, values, dt)
            moment_rows.append(state)
            chunks += 1
            nbytes += int(values.nbytes)
        if probe is not None:
            probe.observe_chunk(
                nodes[node_index].name, COMPONENT_KEYS[row], times, values, dt, state
            )
    power.trim()
    return shard.JobPartial(
        index=job.index,
        job_id=job.job_id,
        start_s=job.start_s,
        n_nodes=job.n_nodes,
        runtime_s=layout.runtime_s,
        power=power,
        moment_rows=moment_rows,
        chunks=chunks,
        nbytes=nbytes,
        monitor=probe.partial if probe is not None else None,
    )


# ----------------------------------------------------------------------
# The RNG property the blocks rest on
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**63 - 1])
@pytest.mark.parametrize(
    "a, b", [(0, 5), (1, 1), (7, 23), (747, 5229), (16383, 1), (16384, 16384)]
)
def test_one_draw_equals_consecutive_draws(seed, a, b):
    """``standard_normal(a + b)`` is ``standard_normal(a)`` then ``(b)``.

    A block draws the normals of all of its series in one call where
    the per-series renderer drew one call per series chunk; every
    rendered digest holds only while this does.
    """
    whole = np.random.default_rng(seed)
    split = np.random.default_rng(seed)
    one = whole.standard_normal(a + b)
    two = np.concatenate([split.standard_normal(a), split.standard_normal(b)])
    assert one.tobytes() == two.tobytes(), (
        f"numpy {np.__version__}: one draw of {a + b} normals differs from "
        f"draws of {a} and {b}; block rendering would change every digest"
    )
    assert whole.bit_generator.state == split.bit_generator.state


# ----------------------------------------------------------------------
# run() and stream() against the per-series renderer
# ----------------------------------------------------------------------
def two_nodes(noise_rel_sigma=0.03, base_interval_s=0.1):
    return PowerEngine(
        [GpuNode("nid007000"), GpuNode("nid007001")],
        EngineConfig(noise_rel_sigma=noise_rel_sigma, base_interval_s=base_interval_s),
    )


def assemble(chunks, n_nodes, n_samples):
    data = np.empty((n_nodes, len(COMPONENT_KEYS), n_samples))
    for node_index, row, start, values in chunks:
        data[node_index, row, start : start + len(values)] = values
    return data


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("noise_rel_sigma", [0.03, 0.0])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_run_equals_per_series_render(chunk, noise_rel_sigma, dtype, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DTYPE", dtype)
    set_chunk(monkeypatch, chunk)
    engine = two_nodes(noise_rel_sigma)
    layout, chunks = engine_chunks(engine, SCHEDULE, seed=3)
    assert 0 in layout.counts.tolist()
    want = assemble(chunks, 2, layout.n_samples).astype(dtype)
    result = engine.run(SCHEDULE, seed=3)
    for node_index, trace in enumerate(result.traces):
        assert trace.data.dtype == np.dtype(dtype)
        assert trace.data.tobytes() == want[node_index].tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("noise_rel_sigma", [0.03, 0.0])
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize(
    "components", [COMPONENT_KEYS, ("node",), ("cpu", "node"), ("gpu3", "memory")]
)
def test_stream_equals_per_series_chunks(
    components, chunk, noise_rel_sigma, dtype, monkeypatch
):
    """The same chunks, in the same order, for any read subset: at
    chunk 64 a block holds two whole series, so unread rows sit at its
    edges and whole blocks go unread."""
    monkeypatch.setenv("REPRO_TRACE_DTYPE", dtype)
    set_chunk(monkeypatch, chunk)
    engine = two_nodes(noise_rel_sigma)
    rows = frozenset(COMPONENT_KEYS.index(key) for key in components)
    layout, chunks = engine_chunks(engine, SCHEDULE, seed=5, rows=rows)
    streamed = engine.stream(SCHEDULE, seed=5, components=components)
    got = list(streamed.chunks)
    assert [(c.node_index, c.component, c.start_index) for c in got] == [
        (node_index, COMPONENT_KEYS[row], start) for node_index, row, start, _ in chunks
    ]
    dt = engine.config.base_interval_s
    for chunk_record, (_, _, start, values) in zip(got, chunks):
        assert chunk_record.values.tobytes() == values.astype(dtype).tobytes()
        stop = start + len(values)
        times = (np.arange(start, stop) + 0.5) * dt
        assert chunk_record.times.tobytes() == times.tobytes()


def test_series_longer_than_the_default_chunk(monkeypatch):
    """A 17,000-sample series renders in two pieces with its filter
    state carried, as the per-series renderer did."""
    monkeypatch.setenv("REPRO_TRACE_DTYPE", "float64")
    engine = PowerEngine([GpuNode("nid007002")])
    phases = [hot(900.0), cold(0.04), hot(800.0)]
    layout, chunks = engine_chunks(engine, phases, seed=9)
    assert layout.n_samples > engine_module.RENDER_CHUNK
    want = assemble(chunks, 1, layout.n_samples)
    result = engine.run(phases, seed=9)
    assert result.traces[0].data.tobytes() == want[0].tobytes()


# ----------------------------------------------------------------------
# The fleet's partials against the per-chunk fold
# ----------------------------------------------------------------------
def captured_batches(monkeypatch, run, monitor=None):
    """The ``(task, node_for)`` batches a traced run renders."""
    batches = []
    real = shard.render_batch

    def render_batch(task, node_for):
        batches.append((task, node_for))
        return real(task, node_for)

    monkeypatch.setattr(shard, "render_batch", render_batch)
    simulate_fleet_traced(run, workers=1, monitor=monitor)
    monkeypatch.setattr(shard, "render_batch", real)
    return batches


def assert_same_partial(got, want):
    assert (got.index, got.job_id, got.start_s, got.n_nodes, got.runtime_s) == (
        want.index,
        want.job_id,
        want.start_s,
        want.n_nodes,
        want.runtime_s,
    )
    for name in ("origin_bin", "used_bins", "horizon_s", "samples", "bin_s"):
        assert getattr(got.power, name) == getattr(want.power, name)
    assert got.power.energy_j.tobytes() == want.power.energy_j.tobytes()
    assert got.moment_rows == want.moment_rows
    assert (got.chunks, got.nbytes) == (want.chunks, want.nbytes)
    assert got.monitor == want.monitor


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("monitored", [False, True])
def test_fleet_partials_equal_per_chunk_fold(monitored, chunk, dtype, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DTYPE", dtype)
    set_chunk(monkeypatch, chunk)
    run = FleetRun(
        job_stream(n_jobs=4, seed=2),
        n_nodes=6,
        bin_s=2.0,
        engine_config=EngineConfig(base_interval_s=1.0),
        seed=2,
    )
    monitor = FleetMonitor() if monitored else None
    for task, node_for in captured_batches(monkeypatch, run, monitor):
        nodes = [
            [
                node_for(name, task.specs[i])
                for name, i in zip(job.node_names, job.spec_indices)
            ]
            for job in task.jobs
        ]
        resolved = shard.resolve_batch(task, nodes)
        got = list(shard.render_batch(task, node_for))
        assert len(got) == len(task.jobs)
        for partial, job, job_nodes, (phases, rows, layout) in zip(
            got, task.jobs, nodes, resolved
        ):
            want = oracle_job_partial(
                job, task, job_nodes, phases, rows, layout, np.dtype(dtype)
            )
            assert_same_partial(partial, want)


# ----------------------------------------------------------------------
# Layout, moments and deposits of a block against their one-row forms
# ----------------------------------------------------------------------
def test_group_layout_equals_each_job_alone():
    rng = np.random.default_rng(4)
    durations = rng.uniform(1e-3, 3.0, 40)
    slowdown = 1.0 + rng.uniform(0.0, 0.4, (5, 40))
    slowdown[3] = 1.0
    group = lay_out(durations, slowdown, 0.1)
    for row, layout in zip(slowdown, group):
        (alone,) = lay_out(durations, row[None], 0.1)
        for name in ("slowdown", "starts", "ends", "counts"):
            assert getattr(layout, name).tobytes() == getattr(alone, name).tobytes()
        assert layout.n_samples == alone.n_samples
        ends = np.cumsum(durations * row)
        n_samples, counts = _phase_sample_counts(
            (ends - np.concatenate(([0.0], ends[:-1])))[None], 0.1
        )
        assert layout.counts.tolist() == counts[0].tolist()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("length", [*range(1, 130), 16_384])
def test_block_states_equal_one_batch_each(length, dtype):
    rng = np.random.default_rng(length)
    block = (200.0 + 150.0 * rng.standard_normal((3, length))).astype(dtype)
    block[1] = 412.5  # a constant row: zero variance
    states = RunningMoments.block_states(block)
    assert states == [RunningMoments.from_batch(row).state() for row in block]


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_block_deposit_equals_row_deposits(rows):
    rng = np.random.default_rng(rows)
    times = (np.arange(333) + 0.5) * 0.7
    block = 300.0 + 40.0 * rng.standard_normal((rows, 333))
    whole = JobPowerPartial(start_s=12.3, bin_s=2.0)
    whole.add_samples(12.3, times, block, 0.7)
    each = JobPowerPartial(start_s=12.3, bin_s=2.0)
    for row in block:
        each.add_samples(12.3, times, row, 0.7)
    assert whole.energy_j.tobytes() == each.energy_j.tobytes()
    for name in ("used_bins", "horizon_s", "samples"):
        assert getattr(whole, name) == getattr(each, name)
