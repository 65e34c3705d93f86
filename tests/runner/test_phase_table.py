"""The phase table: distinct resolve rows, and the engine's resolve through it.

``PhaseTable`` lists a phase list's distinct resolve rows once; the
engine resolves each row once and gathers the results to the phases.
:func:`resolve_per_phase` below is the per-phase batched resolve the
engine ran before the table (one grid row per phase), with the host
rows computed node by node and NIC by NIC (:func:`host_power_per_node`);
the table path, which computes all nodes' host rows in one array pass,
must equal it bit for bit, not just within a tolerance.  Jobs sharing a
table resolve in one :func:`resolve_table` pass; each job's rows must
equal that job resolved alone, byte for byte.
"""

import functools
import os
import pickle
import sys

import numpy as np
import pytest

from repro.hardware.gpu import resolve_phase_batch
from repro.hardware.node import GpuNode
from repro.hardware.platform import get_platform
from repro.perfmodel.kernels import KernelCatalogue
from repro.perfmodel.power import demand_power_batch
from repro.capping.shard import clamped_cap_w
from repro.runner.cache import cached_phases
from repro.runner.engine import EngineConfig, PowerEngine, rank_skew, resolve_table
from repro.runner.trace import COMPONENT_KEYS, GPU_KEYS
from repro.vasp.benchmarks import benchmark
from repro.vasp.phases import (
    RESOLVE_INPUTS,
    MacroPhase,
    PhaseList,
    PhaseTable,
    phase_table,
)

GPU_ROWS = [COMPONENT_KEYS.index(key) for key in GPU_KEYS]
CPU_ROW = COMPONENT_KEYS.index("cpu")
MEMORY_ROW = COMPONENT_KEYS.index("memory")
NODE_ROW = COMPONENT_KEYS.index("node")


def state_arrays(node, cap_w=None):
    """A node's per-GPU model state, read off its GPU objects, at ``cap_w``
    (None = each GPU's TDP)."""
    gpus = node.gpus
    return {
        "cap_w": np.array([g.spec.tdp_w if cap_w is None else cap_w for g in gpus]),
        "static_w": np.array([g.spec.static_w for g in gpus]),
        "idle_env_w": np.array([g.spec.idle_w for g in gpus]),
        "cap_min_w": np.array([g.spec.cap_min_w for g in gpus]),
        "cap_max_w": np.array([g.spec.cap_max_w for g in gpus]),
        "tdp_w": np.array([g.spec.tdp_w for g in gpus]),
        "idle_w": np.array([g.idle_power_w for g in gpus]),
        "power_factor": np.array([g.variation.power_factor for g in gpus]),
        "idle_offset_w": np.array([g.variation.idle_offset_w for g in gpus]),
        "min_clock_fraction": np.array([g.spec.min_clock_fraction for g in gpus]),
        "control_margin": np.array([g.spec.control_margin for g in gpus]),
        "regulation_error_max": np.array([g.spec.regulation_error_max for g in gpus]),
        "regulation_error_exponent": np.array(
            [g.spec.regulation_error_exponent for g in gpus]
        ),
    }


def unit_power(idle_w, full_w, variation, load):
    """One host unit's biased power over an array of loads: the nominal
    ``idle + (full - idle) * load``, then the unit's variation."""
    idle = np.asarray(idle_w, dtype=float)
    nominal = idle_w + (full_w - idle_w) * load
    dynamic = np.maximum(0.0, nominal - idle)
    return idle + variation.idle_offset_w + dynamic * variation.power_factor


def host_power_per_node(node, cpu_u, mem_u, nic_u):
    """``(cpu_w, memory_w, nic_w)`` of one node over per-phase arrays,
    unit by unit; NIC power sums the NICs in unit order."""
    cpu, memory = node.cpu, node.memory
    cpu_w = unit_power(
        cpu.envelope.idle_w, cpu.envelope.tdp_w, cpu.variation, np.power(cpu_u, 0.9)
    )
    memory_w = unit_power(
        memory.envelope.idle_w, memory.envelope.max_w, memory.variation, mem_u
    )
    nic_w = sum(
        unit_power(nic.envelope.idle_w, nic.envelope.max_w, nic.variation, nic_u)
        for nic in node.nics
    )
    return cpu_w, memory_w, np.asarray(nic_w, dtype=float)


def resolve_per_phase(engine, phases, cap_w=None):
    """``(slowdown[P], means[N, K, P])`` from one batched grid row per phase."""
    nodes = engine.nodes
    duty = np.array([p.gpu_profile.duty_cycle for p in phases])
    uc = np.array([p.gpu_profile.compute_utilization for p in phases])
    um = np.array([p.gpu_profile.memory_utilization for p in phases])
    cf = np.array([p.gpu_profile.compute_fraction for p in phases])
    duty_b = duty[:, None, None]
    per_node = [state_arrays(node, cap_w) for node in nodes]
    state = {key: np.stack([arrays[key] for arrays in per_node]) for key in per_node[0]}
    imbalance = engine.config.rank_imbalance
    skews = np.array(
        [[rank_skew(gpu.serial, imbalance) for gpu in node.gpus] for node in nodes]
    )
    max_skew = float(skews.max())
    demand = demand_power_batch(
        uc[:, None, None], um[:, None, None], state["tdp_w"][None], state["idle_env_w"][None]
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
    idle_w = state["idle_w"][None]
    rank_duty = np.minimum(duty_b * (1.0 + skews[None]) / (1.0 + max_skew), 1.0)
    gpu_means = rank_duty * biased + (1.0 - rank_duty) * idle_w
    gpu_means = np.where(duty_b <= 0.0, idle_w, gpu_means)
    slow_terms = (duty_b * slow + (1.0 - duty_b)) * (1.0 + max_skew)
    slowdown = np.maximum(slow_terms.max(axis=(1, 2)), 1.0)
    slowdown = np.where(duty <= 0.0, 1.0, slowdown)
    means = np.empty((len(nodes), len(COMPONENT_KEYS), len(phases)))
    means[:, GPU_ROWS, :] = gpu_means.transpose(1, 2, 0)
    cpu_u = np.array([p.cpu_utilization for p in phases])
    mem_u = np.array([p.mem_bw_utilization for p in phases])
    nic_u = np.array([p.nic_utilization for p in phases])
    for node_index, node in enumerate(nodes):
        cpu_w, memory_w, nic_w = host_power_per_node(node, cpu_u, mem_u, nic_u)
        gpu_total = 0.0
        for row in GPU_ROWS:
            gpu_total = gpu_total + means[node_index, row]
        rows = means[node_index]
        rows[CPU_ROW] = cpu_w
        rows[MEMORY_ROW] = memory_w
        baseboard_w = node.spec.baseboard_w + node.baseboard_variation.idle_offset_w
        rows[NODE_ROW] = cpu_w + gpu_total + memory_w + nic_w + baseboard_w
    return slowdown, means


def repeated_rows(n_iterations=40):
    """An SCF-like list: a few kernel mixes repeated, durations all distinct."""
    rng = np.random.default_rng(3)
    mix = [
        (KernelCatalogue.DGEMM_TEST, 0.06, 0.0),
        (KernelCatalogue.FFT_BATCHED, 0.06, 0.0),
        (KernelCatalogue.HOST_SECTION, 0.8, 0.0),
        (KernelCatalogue.NCCL_COLLECTIVE, 0.06, 0.5),
    ]
    return [
        MacroPhase(
            name=f"it{i}-{j}",
            duration_s=float(rng.uniform(0.2, 3.0)),
            gpu_profile=profile,
            cpu_utilization=cpu,
            nic_utilization=nic,
        )
        for i in range(n_iterations)
        for j, (profile, cpu, nic) in enumerate(mix)
    ]


def pool(platforms):
    return [
        GpuNode(f"nid00{7000 + i}", spec=get_platform(platform).node)
        for i, platform in enumerate(platforms)
    ]


def assert_table_path_exact(engine, phases, cap_w=None):
    slowdown, means = engine._resolve_phases(phase_table(phases), cap_w)
    ref_slowdown, ref_means = resolve_per_phase(engine, phases, cap_w)
    assert np.array_equal(slowdown, ref_slowdown)
    assert np.array_equal(means, ref_means)


class TestPhaseTable:
    def test_distinct_rows_in_first_appearance_order(self):
        phases = repeated_rows(5)
        table = PhaseTable.build(phases)
        assert table.n_rows == 4
        assert table.inputs.shape == (len(RESOLVE_INPUTS), 4)
        assert table.row_of_phase.tolist() == [0, 1, 2, 3] * 5
        assert table.durations.tolist() == [p.duration_s for p in phases]
        for p, row in zip(phases, table.row_of_phase.tolist()):
            assert table.column("duty_cycle")[row] == p.gpu_profile.duty_cycle
            assert table.column("cpu_utilization")[row] == p.cpu_utilization
            assert table.column("nic_utilization")[row] == p.nic_utilization

    def test_rows_differ_by_any_input_bit(self):
        base = MacroPhase(name="a", duration_s=1.0, gpu_profile=KernelCatalogue.DGEMM_TEST)
        nudged = MacroPhase(
            name="b",
            duration_s=1.0,
            gpu_profile=KernelCatalogue.DGEMM_TEST,
            mem_bw_utilization=np.nextafter(base.mem_bw_utilization, 1.0),
        )
        assert PhaseTable.build([base, nudged, base]).row_of_phase.tolist() == [0, 1, 0]

    def test_duration_is_not_a_resolve_input(self):
        phases = [
            MacroPhase(name=f"p{i}", duration_s=d, gpu_profile=KernelCatalogue.FFT_BATCHED)
            for i, d in enumerate([0.5, 1.5, 2.5])
        ]
        assert PhaseTable.build(phases).n_rows == 1

    def test_store_lists_carry_their_table(self):
        workload = benchmark("PdO2").build()
        phases = cached_phases(workload, 1)
        assert isinstance(phases, PhaseList)
        assert cached_phases(workload, 1) is phases
        assert phase_table(phases) is phases.table
        rebuilt = PhaseTable.build(list(phases))
        assert np.array_equal(phases.table.inputs, rebuilt.inputs)
        assert np.array_equal(phases.table.row_of_phase, rebuilt.row_of_phase)
        assert np.array_equal(phases.table.durations, rebuilt.durations)
        # SCF iterations repeat a few kernel mixes.
        assert phases.table.n_rows * 10 < len(phases)
        # Shared by every caller of the store: read-only.
        for array in (phases.table.inputs, phases.table.row_of_phase):
            assert not array.flags.writeable
        assert not phases.table.durations.flags.writeable

    def test_copies_are_plain_lists(self):
        phases = PhaseList(repeated_rows(2))
        assert type(phases[:3]) is list
        assert phase_table(phases[:3]) is not phases.table

    def test_phase_list_pickles_with_its_table(self):
        phases = PhaseList(repeated_rows(2))
        loaded = pickle.loads(pickle.dumps(phases))
        assert loaded == phases
        assert np.array_equal(loaded.table.row_of_phase, phases.table.row_of_phase)


class TestEngineTablePathExact:
    """The table path equals a per-phase batched resolve bit for bit."""

    @pytest.mark.parametrize("cap_w", [None, 250.0, 150.0, 100.0])
    def test_repeated_rows(self, cap_w):
        engine = PowerEngine(pool(["a100-40g", "a100-40g"]))
        assert_table_path_exact(engine, PhaseList(repeated_rows()), cap_w)

    def test_hand_made_list(self):
        engine = PowerEngine(pool(["a100-40g"]))
        phases = repeated_rows(7)
        assert not isinstance(phases, PhaseList)
        assert_table_path_exact(engine, phases, 200.0)

    @pytest.mark.parametrize("cap_w", [None, 200.0])
    def test_rank_imbalance(self, cap_w):
        engine = PowerEngine(
            pool(["a100-40g", "a100-40g"]), EngineConfig(rank_imbalance=0.25)
        )
        assert_table_path_exact(engine, repeated_rows(), cap_w)

    @pytest.mark.parametrize("cap_w", [None, 300.0, 200.0])
    def test_mixed_a100_h100_pool(self, cap_w):
        engine = PowerEngine(pool(["a100-40g", "h100-sxm", "a100-40g"]))
        assert_table_path_exact(engine, repeated_rows(), cap_w)

    @pytest.mark.parametrize("cap_w", [None, 200.0, 150.0])
    def test_mixed_nic_counts(self, cap_w):
        """a100-40g nodes have 4 NICs, v100-sxm2 nodes 1: the narrower
        nodes are padded with zero-power NICs, exactly."""
        platforms = ["a100-40g", "v100-sxm2", "a100-40g", "v100-sxm2"]
        nodes = pool(platforms)
        assert [len(node.nics) for node in nodes] == [4, 1, 4, 1]
        engine = PowerEngine(nodes)
        assert_table_path_exact(engine, repeated_rows(), cap_w)
        assert_table_path_exact(
            engine, cached_phases(benchmark("PdO2").build(), 4), cap_w
        )
        # Alone, a 1-NIC node still gets its one NIC (and the widest
        # pool sets the padding).
        assert_table_path_exact(
            PowerEngine(pool(["v100-sxm2"])), repeated_rows(), cap_w
        )

    @pytest.mark.parametrize("name", ["Si256_hse", "GaAsBi-64", "Si128_acfdtr"])
    def test_store_lists(self, name):
        engine = PowerEngine(pool(["a100-40g", "h100-sxm"]))
        assert_table_path_exact(
            engine, cached_phases(benchmark(name).build(), 2), 200.0
        )

    def test_static_gpu_state_follows_the_cap(self):
        engine = PowerEngine(pool(["a100-40g"]))
        phases = PhaseList(repeated_rows(3))
        uncapped = engine._resolve_phases(phases.table)
        capped = engine._resolve_phases(phases.table, 100.0)
        assert not np.array_equal(uncapped[1], capped[1])
        assert_table_path_exact(engine, phases, 100.0)

    def test_run_renders_identically_from_a_plain_list(self):
        engine = PowerEngine(pool(["a100-40g"]))
        phases = PhaseList(repeated_rows(5))
        via_table = engine.run(phases, seed=4, cap_w=200.0)
        via_list = engine.run(list(phases), seed=4, cap_w=200.0)
        assert via_table.runtime_s == via_list.runtime_s
        for a, b in zip(via_table.traces, via_list.traces):
            assert np.array_equal(a.node_power, b.node_power)


def assert_grouped_equals_alone(jobs, phases, config=None):
    """Resolve ``jobs`` (``(nodes, cap_w)`` pairs) in one pass, then each
    job alone at its caps clamped to each node's range: every job's rows,
    gathered to phases, must be the same bytes.  A job whose caps clamp
    to one value is also resolved on a lone engine at that cap."""
    table = phase_table(phases)
    rank_imbalance = (config or EngineConfig()).rank_imbalance
    job_caps = [
        np.array([[clamped_cap_w(cap, node.spec)] * len(node.gpus) for node in nodes])
        for nodes, cap in jobs
    ]
    grouped = resolve_table(
        table, [nodes for nodes, _ in jobs], np.concatenate(job_caps), rank_imbalance
    )
    assert len(grouped) == len(jobs)
    for (nodes, _), caps, rows in zip(jobs, job_caps, grouped):
        slowdown, means = rows.gather(table)
        (alone,) = resolve_table(table, [nodes], caps, rank_imbalance)
        references = [alone.gather(table)]
        if len(set(caps.flat)) == 1:
            engine = PowerEngine(nodes, config)
            references.append(engine._resolve_phases(table, float(caps[0, 0])))
        for alone_slowdown, alone_means in references:
            assert means.shape == alone_means.shape == (
                len(nodes),
                len(COMPONENT_KEYS),
                len(phases),
            )
            assert slowdown.tobytes() == alone_slowdown.tobytes()
            assert means.tobytes() == alone_means.tobytes()


class TestGroupedResolve:
    """Jobs sharing a phase table resolve in one pass, bit for bit as alone."""

    def test_repeated_rows_and_shared_nodes(self):
        nodes = pool(["a100-40g"] * 5)
        jobs = [
            (nodes[0:2], 400.0),
            (nodes[2:3], 250.0),
            # Nodes serve several jobs of a group, at different caps.
            (nodes[1:5], 150.0),
            (nodes[0:1], 100.0),
        ]
        assert_grouped_equals_alone(jobs, PhaseList(repeated_rows()))

    def test_hand_made_list(self):
        nodes = pool(["a100-40g"] * 3)
        phases = repeated_rows(7)
        assert not isinstance(phases, PhaseList)
        assert_grouped_equals_alone([(nodes[:2], 200.0), (nodes[2:], 300.0)], phases)

    def test_rank_imbalance_with_differing_job_skews(self):
        config = EngineConfig(rank_imbalance=0.25)
        nodes = pool(["a100-40g"] * 6)
        jobs = [
            (nodes[0:2], 400.0),
            (nodes[2:4], 200.0),
            (nodes[4:6], 250.0),
            (nodes[1:3], 150.0),
        ]
        job_skews = {
            max(
                rank_skew(gpu.serial, config.rank_imbalance)
                for node in job
                for gpu in node.gpus
            )
            for job, _ in jobs
        }
        assert len(job_skews) == len(jobs)
        assert_grouped_equals_alone(jobs, repeated_rows(), config)

    @pytest.mark.parametrize("caps", [(300.0, 200.0, 120.0), (700.0, 400.0, 100.0)])
    def test_mixed_a100_h100_pool_at_different_clamped_caps(self, caps):
        nodes = pool(["a100-40g", "h100-sxm", "a100-40g", "h100-sxm"])
        jobs = [(nodes[0:2], caps[0]), (nodes[2:4], caps[1]), (nodes[1:3], caps[2])]
        # One cap clamps differently on the two GPUs of a job.
        assert any(
            len({clamped_cap_w(cap, node.spec) for node in job}) > 1 for job, cap in jobs
        )
        assert_grouped_equals_alone(jobs, repeated_rows())

    def test_mixed_nic_counts(self):
        """A 1-NIC job grouped with 4-NIC jobs is padded wider than alone;
        the zero-power padding leaves its rows unchanged."""
        nodes = pool(["a100-40g", "v100-sxm2", "a100-40g", "v100-sxm2"])
        jobs = [(nodes[1::2], 200.0), (nodes[0::2], 120.0), (nodes[0:2], 300.0)]
        assert_grouped_equals_alone(jobs, repeated_rows())
        phases = cached_phases(benchmark("PdO2").build(), 2)
        assert_grouped_equals_alone(jobs, phases)

    @pytest.mark.parametrize("name", ["Si256_hse", "CuC_vdw"])
    def test_store_lists(self, name):
        nodes = pool(["a100-40g", "h100-sxm", "a100-40g"])
        jobs = [(nodes[0:2], 200.0), (nodes[1:3], 250.0), (nodes[0:2], 400.0)]
        assert_grouped_equals_alone(jobs, cached_phases(benchmark(name).build(), 2))

    def test_mismatched_inputs_are_rejected(self):
        nodes = pool(["a100-40g", "a100-40g"])
        table = phase_table(repeated_rows(2))
        with pytest.raises(ValueError, match="one row per node slot"):
            resolve_table(table, [nodes], np.full((1, 4), 200.0))
        with pytest.raises(ValueError, match="every job needs nodes"):
            resolve_table(table, [nodes, []], np.full((2, 4), 200.0))


HOST_MODULES = tuple(
    f"repro{os.sep}hardware{os.sep}{name}.py"
    for name in ("cpu", "memory", "nic", "variability", "node")
)


def hardware_calls(engine, table, cap_w=200.0):
    """Python calls into the host-unit and node modules while resolving."""
    calls = []

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.endswith(HOST_MODULES):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        engine._resolve_phases(table, cap_w)
    finally:
        sys.setprofile(None)
    return calls


class TestHostRowsWork:
    def test_static_host_state_is_built_once_per_node(self, monkeypatch):
        builds = []
        original = GpuNode.host_static_state.func

        def counted(node):
            builds.append(node.name)
            return original(node)

        prop = functools.cached_property(counted)
        prop.__set_name__(GpuNode, "host_static_state")
        monkeypatch.setattr(GpuNode, "host_static_state", prop)
        nodes = pool(["a100-40g", "v100-sxm2", "h100-sxm"])
        engine = PowerEngine(nodes)
        for cap_w in (None, 250.0, 200.0):
            engine._resolve_phases(phase_table(repeated_rows(3)), cap_w)
        assert sorted(builds) == sorted(node.name for node in nodes)

    def test_a_jobs_host_rows_take_one_array_pass(self):
        """No per-node or per-NIC helper runs once the nodes' static state
        exists: the host rows of every node come from one array pass."""
        engine = PowerEngine(pool(["a100-40g", "v100-sxm2", "a100-40g"]))
        table = phase_table(cached_phases(benchmark("CuC_vdw").build(), 3))
        # The first job builds each node's static state (and nothing else).
        first = hardware_calls(engine, table)
        assert first.count("host_static_state") == len(engine.nodes)
        assert set(first) <= {
            "host_static_state",
            "gpu_static_state",
            "baseboard_power_w",
            "<listcomp>",
            "<genexpr>",
        }
        assert hardware_calls(engine, table) == []
