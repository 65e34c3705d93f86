"""Bit-identity of chunked/streaming rendering vs the whole-schedule path.

The streaming renderer carries the AR(1) filter state across chunk
boundaries and consumes the RNG in the same (node, component, time)
order as the whole-schedule render, so every chunk size — including
chunks that split a phase mid-stream — must reproduce the exact same
samples.  These tests pin that contract down.
"""

import numpy as np
import pytest

from repro.hardware.node import GpuNode
from repro.perfmodel.kernels import KernelCatalogue
from repro.config import read
from repro.runner.engine import DEFAULT_STREAM_CHUNK, EngineConfig, PowerEngine
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


class TestChunkedRenderBitIdentity:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 10_000_000])
    def test_chunked_equals_whole(self, engine, chunk, monkeypatch):
        """Every chunk size reproduces the whole render exactly."""
        whole = engine.run(SCHEDULE, seed=11)
        monkeypatch.setenv("REPRO_RENDER_CHUNK", str(chunk))
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
        monkeypatch.setenv("REPRO_RENDER_CHUNK", "13")
        chunked = engine.run(SCHEDULE, seed=5)
        np.testing.assert_array_equal(
            whole.traces[0].block.data, chunked.traces[0].block.data
        )

    def test_invalid_env_raises(self, engine, monkeypatch):
        for raw in ("not-a-number", "0"):
            monkeypatch.setenv("REPRO_RENDER_CHUNK", raw)
            with pytest.raises(ValueError, match="REPRO_RENDER_CHUNK"):
                engine.run(SCHEDULE, seed=5)
        monkeypatch.setenv("REPRO_RENDER_CHUNK", "")
        assert read("REPRO_RENDER_CHUNK") is None
        monkeypatch.setenv("REPRO_RENDER_CHUNK", "512")
        assert read("REPRO_RENDER_CHUNK") == 512


class TestStream:
    def test_stream_reassembles_to_run(self, engine):
        """Concatenating a stream's chunks reproduces run() exactly."""
        whole = engine.run(SCHEDULE, seed=9)
        streamed = engine.stream(SCHEDULE, seed=9, chunk_samples=17)
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
        assert streamed.chunk_samples == DEFAULT_STREAM_CHUNK
        assert [p.name for p in streamed.phases] == [p.name for p in whole.phases]

    def test_stream_chunk_times_match_grid(self, engine):
        streamed = engine.stream([hot_phase(1.0)], seed=0, chunk_samples=4)
        whole_times = (np.arange(streamed.n_samples) + 0.5) * streamed.base_interval_s
        for chunk in streamed.chunks:
            np.testing.assert_allclose(
                chunk.times,
                whole_times[chunk.start_index : chunk.start_index + chunk.n_samples],
            )

    def test_stream_covers_all_components(self, engine):
        streamed = engine.stream([hot_phase(1.0)], seed=0, chunk_samples=1000)
        seen = {(c.node_index, c.component) for c in streamed.chunks}
        assert seen == {
            (i, key) for i in range(len(engine.nodes)) for key in COMPONENT_KEYS
        }

    def test_stream_rejects_empty_phases(self, engine):
        with pytest.raises(ValueError):
            engine.stream([])

    def test_noiseless_stream_matches_levels(self):
        """With noise off, chunk values are exactly the phase means."""
        engine = PowerEngine(
            [GpuNode("nid006002")],
            EngineConfig(noise_rel_sigma=0.0, noise_floor_w=0.0),
        )
        streamed = engine.stream([hot_phase(2.0)], seed=0, chunk_samples=5)
        node_chunks = [c for c in streamed.chunks if c.component == "node"]
        values = np.concatenate([c.values for c in node_chunks])
        assert np.ptp(values) == pytest.approx(0.0)
