"""Tests for the span tracer and its Chrome trace-event exporter."""

import json
import threading

import pytest

from repro import obs
from repro.obs.trace import NULL_SPAN, TraceEvent, Tracer


class TestTracerSpans:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("work", "unit", label="x"):
            pass
        (event,) = tracer.events
        assert event.name == "work"
        assert event.category == "unit"
        assert event.args == {"label": "x"}
        assert event.duration_us is not None
        assert event.duration_us >= 0.0
        assert event.start_us >= 0.0

    def test_nested_spans_record_in_close_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [e.name for e in tracer.events]
        assert names == ["inner", "outer"]
        inner, outer = tracer.events
        # The inner span is contained within the outer one.
        assert outer.start_us <= inner.start_us
        assert inner.start_us + inner.duration_us <= outer.start_us + outer.duration_us + 1.0

    def test_annotate_attaches_args_while_open(self):
        tracer = Tracer()
        with tracer.span("render", rows=3) as span:
            span.annotate(samples=1200)
        (event,) = tracer.events
        assert event.args == {"rows": 3, "samples": 1200}

    def test_span_recorded_even_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert len(tracer) == 1
        assert tracer.events[0].name == "failing"

    def test_instant_event(self):
        tracer = Tracer()
        tracer.instant("checkpoint", note="here")
        (event,) = tracer.events
        assert event.duration_us is None
        assert event.args == {"note": "here"}

    def test_clear_and_len(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert len(tracer) == 1
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.events == []

    def test_thread_safety_under_concurrent_spans(self):
        tracer = Tracer()
        per_thread = 50
        n_threads = 4
        # Hold all threads alive together: thread idents are only unique
        # among *live* threads, and the events must record distinct ones.
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for i in range(per_thread):
                with tracer.span("t", i=i):
                    pass
            barrier.wait()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == n_threads * per_thread
        tids = {e.tid for e in tracer.events}
        assert len(tids) == n_threads


class TestChromeExport:
    def test_to_chrome_complete_event_shape(self):
        event = TraceEvent(
            name="n", category="c", start_us=1.5, duration_us=2.5, pid=1, tid=2
        )
        chrome = event.to_chrome()
        assert chrome["ph"] == "X"
        assert chrome["ts"] == 1.5
        assert chrome["dur"] == 2.5
        assert "args" not in chrome  # empty args omitted

    def test_to_chrome_instant_event_shape(self):
        event = TraceEvent(
            name="n", category="c", start_us=1.0, duration_us=None, pid=1, tid=2,
            args={"k": "v"},
        )
        chrome = event.to_chrome()
        assert chrome["ph"] == "i"
        assert chrome["s"] == "t"
        assert "dur" not in chrome
        assert chrome["args"] == {"k": "v"}

    def test_export_chrome_is_valid_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", depth=0):
            with tracer.span("inner", depth=1):
                pass
        tracer.instant("mark")
        path = tracer.export_chrome(tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        assert len(events) == 3
        for entry in events:
            assert entry["ph"] in ("X", "i")
            assert {"name", "cat", "ts", "pid", "tid"} <= set(entry)
            if entry["ph"] == "X":
                assert entry["dur"] >= 0.0


class TestDisabledFastPath:
    def test_module_span_returns_shared_null_span_when_disabled(self):
        assert obs.tracer() is None and obs.metrics() is None
        span = obs.span("anything", key="value")
        assert span is NULL_SPAN

    def test_null_span_is_a_harmless_context_manager(self):
        with obs.span("nothing") as span:
            span.annotate(extra=1)  # no-op, must not raise
        obs.instant("nothing")  # also a no-op

    def test_metric_helpers_are_noops_when_disabled(self):
        obs.inc("repro_test_total")
        obs.gauge_set("repro_test_gauge", 3.0)
        obs.observe("repro_test_seconds", 0.1)
        assert obs.metrics() is None

    def test_enable_switches_to_live_spans(self):
        obs.enable(trace=True)
        with obs.span("live", tag="t"):
            pass
        assert obs.tracing_active()
        tracer = obs.tracer()
        assert len(tracer) == 1
        assert tracer.events[0].args == {"tag": "t"}


class TestFlush:
    def test_flush_writes_configured_paths(self, tmp_path):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.prom"
        obs.enable(trace=trace_path, metrics=metrics_path)
        with obs.span("s"):
            obs.inc("repro_flush_total")
        written = obs.flush()
        assert written == {
            str(trace_path): "chrome-trace",
            str(metrics_path): "prometheus",
        }
        assert json.loads(trace_path.read_text())["traceEvents"]
        assert "repro_flush_total" in metrics_path.read_text()

    def test_flush_json_metrics_suffix(self, tmp_path):
        metrics_path = tmp_path / "m.json"
        obs.enable(metrics=metrics_path)
        obs.inc("repro_flush_total")
        written = obs.flush()
        assert written[str(metrics_path)] == "metrics-json"
        data = json.loads(metrics_path.read_text())
        assert data["repro_flush_total"]["type"] == "counter"

    def test_flush_without_paths_writes_nothing(self):
        obs.enable(trace=True, metrics=True)
        assert obs.flush() == {}

    def test_status_reflects_state(self, tmp_path):
        assert obs.status()["tracing"]["active"] is False
        obs.enable(trace=tmp_path / "t.json", metrics=True)
        obs.inc("repro_status_total")
        status = obs.status()
        assert status["tracing"]["active"] is True
        assert status["tracing"]["path"].endswith("t.json")
        assert "repro_status_total" in status["metrics"]["names"]


class TestMetadataEvents:
    def test_process_and_thread_names_lead_the_event_list(self):
        import os
        import threading as _threading

        tracer = Tracer()
        with tracer.span("work"):
            pass
        tracer.name_process("repro fleet")
        tracer.name_thread("main")
        events = tracer.to_chrome()["traceEvents"]
        assert [e["ph"] for e in events[:2]] == ["M", "M"]
        proc, thread = events[0], events[1]
        assert proc["name"] == "process_name"
        assert proc["pid"] == os.getpid()
        assert proc["args"] == {"name": "repro fleet"}
        assert thread["name"] == "thread_name"
        assert thread["tid"] == _threading.get_ident()
        assert thread["args"] == {"name": "main"}
        # The real span still follows the metadata.
        assert events[2]["name"] == "work"

    def test_explicit_ids_and_renaming(self):
        tracer = Tracer()
        tracer.name_process("worker", pid=42)
        tracer.name_process("worker-renamed", pid=42)
        tracer.name_thread("io", tid=7, pid=42)
        events = tracer.to_chrome()["traceEvents"]
        # Last rename wins; one metadata event per process.
        procs = [e for e in events if e["name"] == "process_name"]
        assert len(procs) == 1
        assert procs[0]["args"] == {"name": "worker-renamed"}
        threads = [e for e in events if e["name"] == "thread_name"]
        assert threads[0]["pid"] == 42
        assert threads[0]["tid"] == 7

    def test_metadata_survives_export(self, tmp_path):
        tracer = Tracer()
        tracer.name_process("exported")
        with tracer.span("s"):
            pass
        path = tracer.export_chrome(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["traceEvents"][0]["ph"] == "M"
        # Metadata events carry no ts: they label rows, not time.
        assert "ts" not in payload["traceEvents"][0]

    def test_module_helpers_are_noops_when_disabled(self):
        obs.disable()
        obs.name_process("ignored")
        obs.name_thread("ignored")
        obs.enable(trace=True)
        try:
            obs.name_process("live")
            events = obs.tracer().to_chrome()["traceEvents"]
            names = [
                e["args"]["name"] for e in events if e["name"] == "process_name"
            ]
            assert names == ["live"]
        finally:
            obs.disable()
