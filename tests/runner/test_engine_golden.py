"""Golden digests pinning the engine's rendered output bit for bit.

Serial == sharded == resumed tests compare execution modes against each
other, so a change that shifts every mode alike passes them all.  These
digests pin the output itself: ``run``, ``stream`` at an odd chunk size
and a small traced fleet comparison.  A digest changes only when
the engine's numbers change; a pure refactor or speed-up must leave all
three as they are.
"""

import hashlib

import numpy as np
import pytest

from repro.capping.fleet import compare_fleet_policies_traced
from repro.hardware.node import GpuNode
from repro.perfmodel.kernels import KernelCatalogue
from repro.runner import engine as engine_module
from repro.runner.engine import EngineConfig, PowerEngine
from repro.runner.trace import COMPONENT_KEYS
from repro.vasp.phases import MacroPhase

#: ``run`` traces at caps None and 200 W, all components (``stream`` at
#: any chunk size must hash to the same value).
RUN_DIGEST = "cd6b09b2b1b9066c12876655b9656b4c3eda1e3af08e797f83fc11fbdc4318ef"
#: 24 jobs on 48 nodes, capped and uncapped: the report fields the e2e
#: benchmark's ``fleet_digest`` hashes.
FLEET_DIGEST = "5d8a940daeeefc7c4fe42946c00c108027fd424f20d4a578a0f8ed9b185dedcb"

CAPS_W = (None, 200.0)
SEED = 11


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


def engine_at(cap_w):
    nodes = [GpuNode("nid005000"), GpuNode("nid005001")]
    if cap_w is not None:
        for node in nodes:
            node.set_gpu_power_limit(cap_w)
    return PowerEngine(nodes)


def schedule_key(records):
    return [
        (p.name, p.start_s, p.end_s, p.nominal_duration_s, p.slowdown)
        for p in records
    ]


def digest(parts) -> str:
    h = hashlib.sha256()
    for schedule, series in parts:
        h.update(repr(schedule).encode())
        for values in series:
            h.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.fixture(autouse=True)
def full_width_traces(monkeypatch):
    """float64 storage: every rendered bit counts."""
    monkeypatch.setenv("REPRO_TRACE_DTYPE", "float64")


def run_parts():
    parts = []
    for cap_w in CAPS_W:
        result = engine_at(cap_w).run(phase_mix(), seed=SEED)
        series = [
            trace.components[key] for trace in result.traces for key in COMPONENT_KEYS
        ]
        parts.append((schedule_key(result.phases), series))
    return parts


def stream_parts():
    parts = []
    for cap_w in CAPS_W:
        streamed = engine_at(cap_w).stream(phase_mix(), seed=SEED)
        series: dict[tuple[int, str], list[np.ndarray]] = {}
        for chunk in streamed.chunks:
            series.setdefault((chunk.node_index, chunk.component), []).append(
                chunk.values
            )
        ordered = [
            np.concatenate(series[(node_index, key)])
            for node_index in range(streamed.n_nodes)
            for key in COMPONENT_KEYS
        ]
        parts.append((schedule_key(streamed.phases), ordered))
    return parts


def test_run_digest():
    assert digest(run_parts()) == RUN_DIGEST


def test_stream_at_odd_chunk_equals_run_digest(monkeypatch):
    monkeypatch.setattr(engine_module, "RENDER_CHUNK", 7)
    assert digest(stream_parts()) == RUN_DIGEST


def test_fleet_digest():
    reports = compare_fleet_policies_traced(
        n_jobs=24,
        n_nodes=48,
        seed=0,
        engine_config=EngineConfig(base_interval_s=1.0),
        workers=1,
    )
    parts = []
    for report in reports:
        system = report.system
        parts.append(
            (
                report.policy_name,
                report.jobs_completed,
                report.makespan_s,
                system.mean_power_w,
                system.peak_power_w,
                system.power_std_w,
                system.energy_j,
                system.n_bins,
                report.node_power_mean_w,
                report.node_power_std_w,
                report.node_power_peak_w,
                report.samples_streamed,
                report.chunks_streamed,
                report.bytes_streamed,
                tuple(
                    (r.job_id, r.start_s, r.end_s, r.cap_w)
                    for r in report.schedule.records
                ),
            )
        )
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == FLEET_DIGEST
