"""Observability merge across sharded fleet workers.

The sharded bit-identity contract extends to observability: a run with
tracing and metrics on must still produce the exact same report as a
serial run, the merged Chrome trace must carry every worker's spans
under that worker's own pid, and merged counter totals must equal a
serial run's bit for bit.
"""

import json
import os

import pytest

from repro import obs
from repro.capping.fleet import FleetRun, job_stream, simulate_fleet_traced
from repro.capping.scheduler import estimate_cache
from repro.experiments.common import run_cache
from repro.runner.engine import EngineConfig

ENGINE = EngineConfig(base_interval_s=1.0)

#: Several render chunks per series, with chunk edges inside phases.
pytestmark = pytest.mark.usefixtures("small_chunks")


def _run(workers):
    run = FleetRun(
        job_stream(n_jobs=5, seed=7),
        n_nodes=8,
        bin_s=2.0,
        engine_config=ENGINE,
        seed=7,
    )
    return simulate_fleet_traced(run, workers=workers)


def _clear_session_caches():
    """Make the next run recompute everything, so counters are comparable."""
    run_cache().clear()
    estimate_cache().clear()


@pytest.fixture
def obs_off():
    obs.disable()
    yield
    obs.disable()


class TestMergedTrace:
    @pytest.fixture(scope="class")
    def trace_data(self, tmp_path_factory):
        """One sharded traced run, parsed back from the exported file."""
        obs.disable()
        path = tmp_path_factory.mktemp("trace") / "fleet.json"
        obs.enable(trace=path, metrics=True)
        obs.tracer().name_process("coordinator")
        try:
            _run(workers=2)
            flushed = obs.flush()
        finally:
            obs.disable()
        assert str(path) in {str(p) for p in flushed}
        return json.loads(path.read_text())

    def test_merged_file_parses_with_spans_from_every_worker(self, trace_data):
        events = trace_data["traceEvents"]
        batch_spans = [e for e in events if e["name"] == "shard.render_batch"]
        worker_pids = {e["pid"] for e in batch_spans}
        assert len(worker_pids) >= 2
        assert os.getpid() not in worker_pids

    def test_worker_pids_have_process_name_metadata(self, trace_data):
        events = trace_data["traceEvents"]
        labels = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        worker_pids = {
            e["pid"] for e in events if e["name"] == "shard.render_batch"
        }
        for pid in worker_pids:
            assert labels[pid] == f"repro fleet worker {pid}"
        # The coordinator keeps its own row too.
        assert labels[os.getpid()] == "coordinator"

    def test_span_nesting_preserved(self, trace_data):
        """Engine spans recorded inside a worker batch stay nested within
        that batch's time bounds, under the same pid."""
        events = trace_data["traceEvents"]
        batches = [e for e in events if e["name"] == "shard.render_batch"]
        resolves = [e for e in events if e["name"] == "engine.resolve_phases"]
        assert resolves
        for span in resolves:
            enclosing = [
                b
                for b in batches
                if b["pid"] == span["pid"]
                and b["ts"] <= span["ts"]
                and span["ts"] + span["dur"] <= b["ts"] + b["dur"]
            ]
            assert enclosing, f"engine span at ts={span['ts']} escaped its batch"

    def test_coordinator_spans_stay_on_coordinator(self, trace_data):
        events = trace_data["traceEvents"]
        stream_pids = {
            e["pid"] for e in events if e["name"] == "fleet.stream_traces"
        }
        assert stream_pids == {os.getpid()}


class TestMergedCounters:
    def _counter_totals(self):
        registry = obs.metrics()
        return {
            name: entry["state"]
            for name, entry in sorted(registry.state().items())
            if entry["kind"] == "counter"
        }

    def test_counter_totals_bit_equal_to_serial(self, obs_off):
        _clear_session_caches()
        obs.enable(metrics=True)
        serial = _run(workers=1)
        serial_totals = self._counter_totals()
        obs.disable()

        _clear_session_caches()
        obs.enable(metrics=True)
        sharded = _run(workers=2)
        sharded_totals = self._counter_totals()

        # Exact ==, not approx: merge folds worker counters by exact
        # float addition, and both runs did identical work.
        assert sharded_totals == serial_totals
        assert serial.system == sharded.system

    def test_report_bit_identical_with_obs_on(self, obs_off):
        quiet = _run(workers=2)
        obs.enable(trace=True, metrics=True)
        loud = _run(workers=2)
        assert loud.system == quiet.system
        assert loud.node_power_mean_w == quiet.node_power_mean_w
        assert loud.node_power_std_w == quiet.node_power_std_w
        assert loud.chunks_streamed == quiet.chunks_streamed
        assert loud.makespan_s == quiet.makespan_s


class TestWorkerGauge:
    def test_gauge_reset_after_sharded_run(self, obs_off):
        obs.enable(metrics=True)
        _run(workers=2)
        assert obs.metrics().gauge("repro_fleet_shard_workers").value() == 0.0

    def test_gauge_reset_after_serial_run(self, obs_off):
        obs.enable(metrics=True)
        _run(workers=1)
        # Serial runs never raise it, and must leave it at zero too.
        assert obs.metrics().gauge("repro_fleet_shard_workers").value() == 0.0
