"""Bit-identity of the chunked render at any chunk size.

``run()`` and ``stream()`` share one renderer that works in chunks of
``repro.runner.engine.RENDER_CHUNK`` samples.  It carries the AR(1)
filter state across chunk boundaries and consumes the RNG in (node,
component, time) order, so every chunk size — including chunks that
split a phase mid-stream — must reproduce the exact same samples.  The
tests set the constant to small and odd sizes to cross many chunk
boundaries on short schedules.
"""

import numpy as np
import pytest

from repro.hardware.node import GpuNode
from repro.perfmodel.kernels import KernelCatalogue
from repro.runner import engine as engine_module
from repro.runner.engine import EngineConfig, PowerEngine
from repro.runner.trace import COMPONENT_KEYS
from repro.vasp.phases import MacroPhase


def hot_phase(duration=10.0):
    return MacroPhase(
        name="hot", duration_s=duration, gpu_profile=KernelCatalogue.DGEMM_TEST
    )


def cold_phase(duration=10.0):
    return MacroPhase(
        name="cold", duration_s=duration, gpu_profile=KernelCatalogue.HOST_SECTION
    )


SCHEDULE = [hot_phase(3.0), cold_phase(2.0), hot_phase(1.7)]


@pytest.fixture
def engine():
    return PowerEngine([GpuNode("nid006000"), GpuNode("nid006001")])


def set_chunk(monkeypatch, chunk):
    """Render in chunks of ``chunk`` samples (None keeps the default)."""
    if chunk is not None:
        monkeypatch.setattr(engine_module, "RENDER_CHUNK", chunk)


class TestChunkedRenderBitIdentity:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 10_000_000])
    def test_chunked_equals_whole(self, engine, chunk, monkeypatch):
        """Every chunk size reproduces the one-chunk render exactly."""
        whole = engine.run(SCHEDULE, seed=11)
        set_chunk(monkeypatch, chunk)
        chunked = engine.run(SCHEDULE, seed=11)
        for a, b in zip(whole.traces, chunked.traces):
            np.testing.assert_array_equal(a.block.data, b.block.data)
            np.testing.assert_array_equal(a.times, b.times)

    def test_chunk_boundary_mid_phase(self, engine, monkeypatch):
        """A chunk edge inside a phase must not disturb the noise stream.

        The 3 s phase holds 30 samples at 0.1 s; chunk=13 splits it (and
        the later phases) mid-stream.
        """
        whole = engine.run(SCHEDULE, seed=5)
        set_chunk(monkeypatch, 13)
        chunked = engine.run(SCHEDULE, seed=5)
        np.testing.assert_array_equal(
            whole.traces[0].block.data, chunked.traces[0].block.data
        )


class TestStream:
    def test_stream_reassembles_to_run(self, engine, monkeypatch):
        """Concatenating a stream's chunks reproduces run() exactly."""
        whole = engine.run(SCHEDULE, seed=9)
        set_chunk(monkeypatch, 17)
        streamed = engine.stream(SCHEDULE, seed=9)
        rebuilt = {
            (i, key): np.empty(streamed.n_samples, dtype=whole.traces[0].block.data.dtype)
            for i in range(streamed.n_nodes)
            for key in COMPONENT_KEYS
        }
        for chunk in streamed.chunks:
            rebuilt[(chunk.node_index, chunk.component)][
                chunk.start_index : chunk.start_index + chunk.n_samples
            ] = chunk.values
        for node_index, trace in enumerate(whole.traces):
            for key in COMPONENT_KEYS:
                np.testing.assert_array_equal(
                    trace.components[key], rebuilt[(node_index, key)]
                )

    def test_stream_metadata_matches_run(self, engine):
        whole = engine.run(SCHEDULE, seed=2)
        streamed = engine.stream(SCHEDULE, seed=2)
        assert streamed.runtime_s == whole.runtime_s
        assert streamed.n_samples == len(whole.traces[0].times)
        assert streamed.n_nodes == len(whole.traces)
        assert [p.name for p in streamed.phases] == [p.name for p in whole.phases]

    def test_stream_chunk_times_match_grid(self, engine, monkeypatch):
        set_chunk(monkeypatch, 4)
        streamed = engine.stream([hot_phase(1.0)], seed=0)
        whole_times = (np.arange(streamed.n_samples) + 0.5) * streamed.base_interval_s
        for chunk in streamed.chunks:
            np.testing.assert_allclose(
                chunk.times,
                whole_times[chunk.start_index : chunk.start_index + chunk.n_samples],
            )

    def test_stream_covers_all_components(self, engine):
        streamed = engine.stream([hot_phase(1.0)], seed=0)
        seen = {(c.node_index, c.component) for c in streamed.chunks}
        assert seen == {
            (i, key) for i in range(len(engine.nodes)) for key in COMPONENT_KEYS
        }

    def test_stream_rejects_empty_phases(self, engine):
        with pytest.raises(ValueError):
            engine.stream([])

    def test_noiseless_stream_matches_levels(self, monkeypatch):
        """With noise off, chunk values are exactly the phase means."""
        engine = PowerEngine(
            [GpuNode("nid006002")],
            EngineConfig(noise_rel_sigma=0.0, noise_floor_w=0.0),
        )
        set_chunk(monkeypatch, 5)
        streamed = engine.stream([hot_phase(2.0)], seed=0)
        node_chunks = [c for c in streamed.chunks if c.component == "node"]
        values = np.concatenate([c.values for c in node_chunks])
        assert np.ptp(values) == pytest.approx(0.0)


def series_by_row(chunks):
    """``{(node_index, component): (start_index, values) list}`` of a stream."""
    rows = {}
    for chunk in chunks:
        rows.setdefault((chunk.node_index, chunk.component), []).append(
            (chunk.start_index, chunk.values)
        )
    return rows


def three_node_engine(noise_rel_sigma):
    return PowerEngine(
        [GpuNode("nid006010"), GpuNode("nid006011"), GpuNode("nid006012")],
        EngineConfig(noise_rel_sigma=noise_rel_sigma),
    )


class TestRowSelection:
    """A stream of a component subset renders those rows bit for bit."""

    @pytest.mark.parametrize("noise_rel_sigma", [0.03, 0.0])
    @pytest.mark.parametrize("chunk", [1, 17, None])
    @pytest.mark.parametrize("components", [("node",), ("cpu", "node")])
    def test_subset_matches_full_stream(
        self, chunk, noise_rel_sigma, components, monkeypatch
    ):
        engine = three_node_engine(noise_rel_sigma)
        set_chunk(monkeypatch, chunk)
        full = engine.stream(SCHEDULE, seed=4)
        full_rows = series_by_row(full.chunks)
        subset = engine.stream(SCHEDULE, seed=4, components=components)
        subset_rows = series_by_row(subset.chunks)

        assert set(subset_rows) == {
            (i, key) for i in range(3) for key in components
        }
        for key, pieces in subset_rows.items():
            assert [start for start, _ in pieces] == [
                start for start, _ in full_rows[key]
            ]
            for (_, got), (_, want) in zip(pieces, full_rows[key]):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("noise_rel_sigma", [0.03, 0.0])
    @pytest.mark.parametrize("chunk", [1, 17, None])
    def test_rng_position_after_stream(self, chunk, noise_rel_sigma, monkeypatch):
        """An exhausted subset stream leaves the RNG where a full one does."""
        engine = three_node_engine(noise_rel_sigma)
        set_chunk(monkeypatch, chunk)
        generators = []
        real_default_rng = np.random.default_rng

        def recording_rng(seed):
            rng = real_default_rng(seed)
            generators.append(rng)
            return rng

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        draws = []
        for components in (COMPONENT_KEYS, ("node",), ("cpu", "node")):
            streamed = engine.stream(SCHEDULE, seed=4, components=components)
            for _ in streamed.chunks:
                pass
            draws.append(generators[-1].standard_normal(8))
        for draw in draws[1:]:
            np.testing.assert_array_equal(draw, draws[0])

    def test_unknown_component_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown components"):
            engine.stream(SCHEDULE, components=("node", "gpu9"))
