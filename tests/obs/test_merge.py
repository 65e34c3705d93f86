"""Unit tests for cross-process observability capture and merge."""

import os
import pickle

import pytest

from repro import obs
from repro.obs.merge import (
    ObsPartial,
    absorb_partial,
    begin_worker_capture,
    capture_flags,
    finish_worker_capture,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class TestMetricsStateMerge:
    def test_counter_states_add(self):
        a = MetricsRegistry()
        a.counter("hits").inc(2.0)
        a.counter("hits").inc(1.0, cache="run")
        b = MetricsRegistry()
        b.counter("hits").inc(5.0)
        b.counter("hits").inc(0.5, cache="run")
        a.merge_state(b.state())
        assert a.counter("hits").value() == 7.0
        assert a.counter("hits").value(cache="run") == 1.5

    def test_counter_merge_is_order_independent(self):
        states = []
        for amounts in ((1.0, 2.0), (4.0,), (0.25, 0.125)):
            registry = MetricsRegistry()
            for amount in amounts:
                registry.counter("n").inc(amount)
            states.append(registry.state())
        forward = MetricsRegistry()
        backward = MetricsRegistry()
        for state in states:
            forward.merge_state(state)
        for state in reversed(states):
            backward.merge_state(state)
        # Bit-equal, not approximately equal: addition of these floats
        # is exact, which is what the sharded == serial contract needs.
        assert forward.counter("n").total() == backward.counter("n").total()

    def test_gauge_merge_last_writer_wins(self):
        a = MetricsRegistry()
        a.gauge("workers").set(1.0)
        b = MetricsRegistry()
        b.gauge("workers").set(8.0)
        a.merge_state(b.state())
        assert a.gauge("workers").value() == 8.0

    def test_histogram_merge_adds_buckets(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for value in (0.01, 0.5):
            a.histogram("lat").observe(value)
        for value in (0.02, 100.0):
            b.histogram("lat").observe(value)
        a.merge_state(b.state())
        merged = a.get("lat")
        assert merged.count == 4
        assert merged.sum == pytest.approx(100.53)

    def test_histogram_bounds_mismatch_raises(self):
        a = MetricsRegistry()
        a.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("lat", buckets=(10.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds"):
            a.merge_state(b.state())

    def test_merge_creates_missing_metrics(self):
        source = MetricsRegistry()
        source.counter("c").inc()
        source.gauge("g").set(3.0)
        source.histogram("h").observe(0.1)
        target = MetricsRegistry()
        target.merge_state(source.state())
        assert target.counter("c").total() == 1.0
        assert target.gauge("g").value() == 3.0
        assert target.get("h").count == 1


class TestTracerAbsorb:
    def test_absorb_rebases_timestamps(self):
        coordinator = Tracer()
        worker = Tracer()
        with worker.span("work"):
            pass
        (event,) = worker.events
        offset_us = (worker.epoch_perf_s - coordinator.epoch_perf_s) * 1e6
        coordinator.absorb(worker.events, offset_us=offset_us)
        absorbed = coordinator.events[-1]
        assert absorbed.name == "work"
        assert absorbed.start_us == pytest.approx(event.start_us + offset_us)
        assert absorbed.duration_us == event.duration_us

    def test_absorb_merges_metadata(self):
        coordinator = Tracer()
        coordinator.name_process("coordinator")
        coordinator.absorb(
            (),
            process_names={12345: "worker 12345"},
            thread_names={(12345, 1): "render"},
        )
        process_names, thread_names = coordinator.metadata()
        assert process_names[12345] == "worker 12345"
        assert process_names[os.getpid()] == "coordinator"
        assert thread_names[(12345, 1)] == "render"


class TestWorkerCapture:
    def test_capture_flags_reflect_active_layers(self):
        assert capture_flags() == (False, False)
        obs.enable(trace=True)
        assert capture_flags() == (True, False)
        obs.enable(metrics=True)
        assert capture_flags() == (True, True)

    def test_capture_round_trip(self):
        obs.enable(trace=True, metrics=True)
        outer_tracer = obs.tracer()
        token = begin_worker_capture(True, True, process_label="w")
        assert obs.tracer() is not outer_tracer
        with obs.span("inner"):
            obs.inc("inner_total", 3.0)
        partial = finish_worker_capture(token)
        # Previous state restored; nothing leaked into it.
        assert obs.tracer() is outer_tracer
        assert [e.name for e in outer_tracer.events] == []
        assert partial.pid == os.getpid()
        assert [e.name for e in partial.events] == ["inner"]
        assert partial.process_names[os.getpid()] == "w"
        counter_state = partial.metrics_state["inner_total"]
        assert counter_state["kind"] == "counter"
        assert counter_state["state"]["values"][()] == 3.0

    def test_capture_has_no_export_paths(self, tmp_path):
        # Even when the coordinator exports to files, the capture state
        # must not: a worker atexit flush would clobber the real output.
        obs.enable(trace=tmp_path / "t.json", metrics=tmp_path / "m.json")
        token = begin_worker_capture(True, True)
        try:
            assert obs.flush() == {}
        finally:
            finish_worker_capture(token)

    def test_finish_returns_none_when_layers_off(self):
        token = begin_worker_capture(False, False)
        assert finish_worker_capture(token) is None

    def test_partial_pickles(self):
        obs.enable(trace=True, metrics=True)
        token = begin_worker_capture(True, True)
        with obs.span("p"):
            obs.inc("c")
        partial = finish_worker_capture(token)
        clone = pickle.loads(pickle.dumps(partial))
        assert clone.span_count == partial.span_count
        assert clone.metrics_state == partial.metrics_state

    def test_absorb_partial_folds_into_live_state(self):
        obs.enable(trace=True, metrics=True)
        token = begin_worker_capture(True, True)
        with obs.span("worker.span"):
            obs.inc("worker_total", 2.0)
        partial = finish_worker_capture(token)
        obs.inc("worker_total", 1.0)
        absorb_partial(partial)
        assert obs.metrics().counter("worker_total").total() == 3.0
        assert "worker.span" in [e.name for e in obs.tracer().events]

    def test_absorb_partial_none_is_noop(self):
        absorb_partial(None)  # obs off, no state — must not raise

    def test_absorb_partial_skips_inactive_layers(self):
        obs.enable(metrics=True)
        partial = ObsPartial(
            pid=1,
            epoch_perf_s=0.0,
            events=(),
            metrics_state=MetricsRegistry().state(),
        )
        absorb_partial(partial)  # no tracer on: events path must not run
        assert obs.tracer() is None
