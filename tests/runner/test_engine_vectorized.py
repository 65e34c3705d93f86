"""The vectorized phase resolver against its scalar reference.

``PowerEngine._resolve_phases`` is the production path;
``_resolve_phase_reference`` is the retained scalar specification.  These
tests replay both over a grid of caps, imbalance settings and phase mixes
and require matching results, check the array layout and sample counts
bit for bit against scalar loops, plus regression coverage for the
render's sample-count bookkeeping.
"""

import numpy as np
import pytest

from repro.hardware.node import GpuNode
from repro.perfmodel.kernels import KernelCatalogue
from repro.runner.engine import EngineConfig, PowerEngine, _phase_records
from repro.runner.trace import COMPONENT_KEYS, GPU_KEYS
from repro.vasp.phases import MacroPhase


def phase_mix():
    return [
        MacroPhase(name="xc", duration_s=4.0, gpu_profile=KernelCatalogue.DGEMM_TEST),
        MacroPhase(name="fft", duration_s=2.5, gpu_profile=KernelCatalogue.FFT_BATCHED),
        MacroPhase(
            name="host",
            duration_s=1.0,
            gpu_profile=KernelCatalogue.HOST_SECTION,
            cpu_utilization=0.8,
        ),
        MacroPhase(
            name="comm",
            duration_s=0.7,
            gpu_profile=KernelCatalogue.NCCL_COLLECTIVE,
            nic_utilization=0.5,
        ),
    ]


def resolve_by_reference(engine, phases):
    """``_resolve_phases``' ``(slowdown[P], means[N, K, P])`` from the spec."""
    reference = [engine._resolve_phase_reference(p) for p in phases]
    slowdown = np.array([ref_slowdown for ref_slowdown, _ in reference])
    means = np.stack([ref_means for _, ref_means in reference], axis=-1)
    return slowdown, means


def assert_resolution_matches(engine, phases):
    slowdown, means = engine._resolve_phases(phases)
    ref_slowdown, ref_means = resolve_by_reference(engine, phases)
    assert means.shape == (len(engine.nodes), len(COMPONENT_KEYS), len(phases))
    np.testing.assert_allclose(slowdown, ref_slowdown, rtol=1e-12)
    np.testing.assert_allclose(means, ref_means, rtol=1e-12)


class TestVectorizedAgainstReference:
    @pytest.mark.parametrize("cap_w", [None, 300.0, 200.0, 100.0])
    def test_caps(self, cap_w):
        nodes = [GpuNode("nid005000"), GpuNode("nid005001")]
        for node in nodes:
            if cap_w is not None:
                node.set_gpu_power_limit(cap_w)
        engine = PowerEngine(nodes)
        assert_resolution_matches(engine, phase_mix())

    @pytest.mark.parametrize("imbalance", [0.0, 0.25])
    def test_rank_imbalance(self, imbalance):
        engine = PowerEngine(
            [GpuNode("nid005000")], EngineConfig(rank_imbalance=imbalance)
        )
        assert_resolution_matches(engine, phase_mix())

    def test_idle_only_phase(self):
        engine = PowerEngine([GpuNode("nid005000")])
        idle = [
            MacroPhase(
                name="idle", duration_s=3.0, gpu_profile=KernelCatalogue.HOST_SECTION
            )
        ]
        assert_resolution_matches(engine, idle)

    def test_heterogeneous_pool_rejected(self):
        nodes = [GpuNode("nid005000"), GpuNode("nid005001")]
        nodes[1].gpus = nodes[1].gpus[:2]  # asymmetric pool
        with pytest.raises(ValueError, match=r"GPU counts \[2, 4\]"):
            PowerEngine(nodes)

    def test_end_to_end_traces_identical(self):
        phases = phase_mix()
        nodes_a = [GpuNode("nid005000")]
        nodes_a[0].set_gpu_power_limit(200.0)
        engine = PowerEngine(nodes_a)
        via_vector = engine.run(phases, seed=9)

        # Monkey-style: force the reference resolver through the same run.
        engine_ref = PowerEngine(
            [GpuNode("nid005000")], engine.config
        )
        engine_ref.nodes[0].set_gpu_power_limit(200.0)
        engine_ref._resolve_phases = lambda ps: resolve_by_reference(engine_ref, ps)
        via_reference = engine_ref.run(phases, seed=9)

        for ta, tb in zip(via_vector.traces, via_reference.traces):
            np.testing.assert_allclose(ta.node_power, tb.node_power, rtol=1e-12)
            for key in GPU_KEYS:
                np.testing.assert_allclose(
                    ta.components[key], tb.components[key], rtol=1e-12
                )


class TestRenderTraceCounts:
    """Phase sample counts must always sum to the trace length."""

    @pytest.mark.parametrize(
        "durations",
        [
            (0.05, 0.05, 0.05),  # each phase shorter than the 0.1 s grid
            (0.26, 0.11, 0.03),  # irregular rounding
            (0.1,),  # exactly one sample
            (0.04,),  # rounds to zero samples -> clamped to one
            (3.33, 0.07, 1.99, 0.01),
        ],
    )
    def test_adversarial_durations(self, durations):
        engine = PowerEngine([GpuNode("nid005000")], EngineConfig(noise_rel_sigma=0.0))
        phases = [
            MacroPhase(
                name=f"p{i}", duration_s=d, gpu_profile=KernelCatalogue.DGEMM_TEST
            )
            for i, d in enumerate(durations)
        ]
        result = engine.run(phases, seed=0)
        trace = result.traces[0]
        total = sum(p.duration_s for p in result.phases)
        expected = max(int(round(total / engine.config.base_interval_s)), 1)
        assert len(trace.times) == expected
        # Noise-free rendering is piecewise constant: the number of level
        # changes can never exceed the number of phase boundaries, so no
        # samples were lost or double-assigned.
        levels = np.flatnonzero(np.diff(trace.node_power)).size
        assert levels <= len(phases) - 1


def scalar_layout(phases, slowdown):
    """The wall clock advanced phase by phase: (start, end) per phase."""
    spans = []
    clock = 0.0
    for phase, factor in zip(phases, slowdown):
        duration = phase.duration_s * factor
        spans.append((clock, clock + duration))
        clock += duration
    return spans


def scalar_sample_counts(durations, dt):
    """Per-phase sample counts, one Python ``round`` per phase boundary."""
    n_samples = max(int(round(sum(durations) / dt)), 1)
    counts = []
    acc = 0
    t_acc = 0.0
    for duration in durations:
        t_acc += duration
        upto = min(int(round(t_acc / dt)), n_samples)
        counts.append(max(upto - acc, 0))
        acc = upto
    if acc < n_samples:
        counts[-1] += n_samples - acc
    return n_samples, counts


def tiny_phases(n, seed=0):
    rng = np.random.default_rng(seed)
    kernels = [
        KernelCatalogue.DGEMM_TEST,
        KernelCatalogue.FFT_BATCHED,
        KernelCatalogue.HOST_SECTION,
        KernelCatalogue.NCCL_COLLECTIVE,
    ]
    return [
        MacroPhase(name=f"p{i}", duration_s=float(d), gpu_profile=kernels[i % 4])
        for i, d in enumerate(rng.uniform(1e-4, 1e-2, n))
    ]


class TestArrayLayout:
    """Array layout and sample counts equal the scalar loops exactly."""

    def assert_counts_match(self, engine, durations):
        n_samples, counts = engine._phase_sample_counts(np.asarray(durations))
        expected = scalar_sample_counts(list(durations), engine.config.base_interval_s)
        assert (n_samples, counts.tolist()) == expected
        return counts.tolist()

    @pytest.mark.parametrize("cap_w", [None, 150.0])
    def test_layout_equals_wall_clock_loop(self, cap_w):
        node = GpuNode("nid005000")
        if cap_w is not None:
            node.set_gpu_power_limit(cap_w)
        engine = PowerEngine([node])
        phases = tiny_phases(3000)
        slowdown, _means, starts, ends = engine._resolve_and_layout(phases)
        spans = scalar_layout(phases, slowdown.tolist())
        assert list(zip(starts.tolist(), ends.tolist())) == spans
        records = _phase_records(phases, slowdown, starts, ends)
        assert [(r.start_s, r.end_s) for r in records] == spans
        assert [r.slowdown for r in records] == slowdown.tolist()
        durations = [end - start for start, end in spans]
        assert (ends - starts).tolist() == durations
        self.assert_counts_match(engine, durations)

    def test_thousands_of_tiny_phases_sum_sequentially(self):
        durations = np.random.default_rng(0).uniform(1e-4, 1e-2, 4000)
        sequential = float(np.cumsum(durations)[-1])
        pairwise = float(np.sum(durations))
        assert sequential != pairwise
        # A grid whose half-sample boundary falls between the two sums:
        # the sample total depends on which summation order is used.
        midpoint = (sequential + pairwise) / 2
        dt = midpoint / (int(midpoint / 0.1) + 0.5)
        assert np.rint(sequential / dt) != np.rint(pairwise / dt)
        engine = PowerEngine([GpuNode("nid005000")], EngineConfig(base_interval_s=dt))
        counts = self.assert_counts_match(engine, durations.tolist())
        assert sum(counts) == int(np.rint(sequential / dt))

    def test_half_samples_round_to_even(self):
        engine = PowerEngine([GpuNode("nid005000")], EngineConfig(base_interval_s=1.0))
        # Boundaries at 0.5, 1.5, 2.5, 3.0, 5.5 samples -> 0, 2, 2, 3, 6.
        counts = self.assert_counts_match(engine, [0.5, 1.0, 1.0, 0.5, 2.5])
        assert counts == [0, 2, 0, 1, 3]

    def test_phases_rounding_to_zero_samples(self):
        engine = PowerEngine([GpuNode("nid005000")], EngineConfig(base_interval_s=1.0))
        counts = self.assert_counts_match(engine, [0.2, 0.2, 3.0, 0.1, 0.1, 0.2])
        assert counts == [0, 0, 3, 1, 0, 0]

    @pytest.mark.parametrize("durations", [[0.2, 0.2], [0.25, 0.25], [0.0]])
    def test_remainder_parks_on_last_phase(self, durations):
        engine = PowerEngine([GpuNode("nid005000")], EngineConfig(base_interval_s=1.0))
        counts = self.assert_counts_match(engine, durations)
        assert counts[-1] == 1 and sum(counts) == 1
