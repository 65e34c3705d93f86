"""Unit tests for the exact span self-time profile and its exports."""

import json
import os
from dataclasses import replace

import pytest

from repro import obs
from repro.capping.fleet import job_stream, simulate_fleet_traced
from repro.capping.policy import CapPolicy
from repro.obs.merge import (
    absorb_partial,
    begin_worker_capture,
    finish_worker_capture,
)
from repro.obs.profile import (
    export_profile,
    span_self_times,
    to_collapsed,
    to_speedscope,
    top_spans,
)
from repro.obs.trace import TraceEvent
from repro.runner.engine import EngineConfig


def span(name, start_us, duration_us, pid=1, tid=1):
    return TraceEvent(name, "repro", start_us, duration_us, pid, tid)


def top_level_seconds(events, pid):
    """Summed durations of ``pid``'s spans that no other span contains."""
    spans = [e for e in events if e.pid == pid and e.duration_us is not None]
    total_us = 0.0
    for event in spans:
        end = event.start_us + event.duration_us
        contained = any(
            other is not event
            and other.tid == event.tid
            and other.start_us <= event.start_us
            and end <= other.start_us + other.duration_us
            for other in spans
        )
        if not contained:
            total_us += event.duration_us
    return total_us / 1e6


class TestSpanSelfTimes:
    def test_hand_built_events(self):
        # Recording order is close order: children before parents.
        events = [
            span("leaf", 2.0, 3.0),  # inside "child"
            span("child", 1.0, 5.0),  # inside "root", parent of "leaf"
            span("sibling", 7.0, 2.0),  # inside "root", after "child"
            TraceEvent("mark", "repro", 8.0, None, 1, 1),  # instant: skipped
            # Exact start/duration tie: "inner" closed first, so it nests
            # inside "outer" even though both cover the same interval.
            span("inner", 12.0, 4.0),
            span("outer", 12.0, 4.0),
            span("root", 0.0, 10.0),
            # A second thread of the same process shares the row.
            span("other", 0.5, 6.0, tid=2),
            span("nested", 1.5, 1.0, tid=2),
            # An unlabelled process falls back to "pid N".
            span("root", 0.0, 2.0, pid=2),
        ]
        rows = span_self_times(events, {1: "coordinator"})
        assert rows == {
            "coordinator": {
                ("span:root",): 3e-6,
                ("span:root", "span:child"): 2e-6,
                ("span:root", "span:child", "span:leaf"): 3e-6,
                ("span:root", "span:sibling"): 2e-6,
                ("span:outer",): 0.0,
                ("span:outer", "span:inner"): 4e-6,
                ("span:other",): 5e-6,
                ("span:other", "span:nested"): 1e-6,
            },
            "pid 2": {("span:root",): 2e-6},
        }

    def test_no_spans_no_rows(self):
        assert span_self_times([], {}) == {}

    def test_serial_run_rows_sum_to_top_level_spans(self):
        obs.enable(trace=True)
        obs.name_process("coordinator")
        simulate_fleet_traced(
            job_stream(n_jobs=4, seed=3),
            CapPolicy.half_tdp(),
            "50% TDP policy",
            6,
            engine_config=EngineConfig(base_interval_s=1.0),
            seed=3,
            workers=1,
        )
        tracer = obs.tracer()
        events = tracer.events
        rows = span_self_times(events, tracer.metadata()[0])
        assert list(rows) == ["coordinator"]
        total = sum(rows["coordinator"].values())
        expected = top_level_seconds(events, os.getpid())
        assert expected > 0
        assert total == pytest.approx(expected, rel=1e-9)
        assert all(seconds >= 0 for seconds in rows["coordinator"].values())


def two_row_rows() -> dict:
    return {
        "coordinator": {("span:fleet",): 0.03},
        "worker 1": {
            ("span:shard",): 0.005,
            ("span:shard", "span:render"): 0.015,
        },
    }


class TestExports:
    def test_speedscope_document_shape(self):
        doc = to_speedscope(two_row_rows())
        assert doc["$schema"].endswith("file-format-schema.json")
        names = [p["name"] for p in doc["profiles"]]
        assert names == ["coordinator", "worker 1"]
        frames = doc["shared"]["frames"]
        for entry in doc["profiles"]:
            assert entry["type"] == "sampled"
            assert len(entry["samples"]) == len(entry["weights"])
            for sample in entry["samples"]:
                assert all(0 <= idx < len(frames) for idx in sample)
        coordinator = doc["profiles"][0]
        assert coordinator["weights"] == [pytest.approx(0.03)]
        assert coordinator["endValue"] == pytest.approx(0.03)
        assert doc["profiles"][1]["endValue"] == pytest.approx(0.02)

    def test_collapsed_output(self):
        text = to_collapsed(two_row_rows())
        assert "coordinator;span:fleet 30000" in text.splitlines()
        assert "worker 1;span:shard;span:render 15000" in text.splitlines()

    def test_top_spans_report(self):
        report = top_spans(two_row_rows())
        assert report.startswith("profile: 0.050 s of span self time")
        assert "span:shard;span:render" in report  # a span path row
        lines = report.splitlines()
        by_name = lines[lines.index(f"{'self (s)':>9}  {'share':>6}  span") :]
        assert "span:fleet" in by_name[1] and "60.0%" in by_name[1]
        assert "span:render" in by_name[2] and "30.0%" in by_name[2]

    def test_top_spans_empty(self):
        assert "empty" in top_spans({})

    def test_export_suffix_selects_format(self, tmp_path):
        rows = two_row_rows()
        assert export_profile(rows, tmp_path / "p.speedscope") == (
            "speedscope-profile"
        )
        doc = json.loads((tmp_path / "p.speedscope").read_text())
        assert doc["profiles"]
        assert export_profile(rows, tmp_path / "p.txt") == "profile-report"
        assert (tmp_path / "p.txt").read_text().startswith("profile:")
        assert export_profile(rows, tmp_path / "p.folded") == "collapsed-profile"
        assert "coordinator;span:fleet" in (tmp_path / "p.folded").read_text()


class TestWorkerCaptureProfile:
    """Worker spans reach the coordinator's trace; the profile reads it."""

    def test_worker_profiles_merge_into_one(self):
        obs.enable(trace=True)
        partials = []
        for worker in range(2):
            token = begin_worker_capture(
                True, False, process_label=f"worker {worker}"
            )
            with obs.span("shard.render"):
                with obs.span("engine.run"):
                    pass
            partial = finish_worker_capture(token)
            # Stand in for a worker process: its own pid and label.
            pid = 10_000 + worker
            partials.append(
                replace(
                    partial,
                    events=tuple(replace(e, pid=pid) for e in partial.events),
                    process_names={pid: f"worker {worker}"},
                )
            )
        for partial in partials:
            absorb_partial(partial)
        tracer = obs.tracer()
        rows = span_self_times(tracer.events, tracer.metadata()[0])
        assert sorted(rows) == ["worker 0", "worker 1"]
        for worker, partial in enumerate(partials):
            inner, outer = partial.events
            assert rows[f"worker {worker}"] == {
                ("span:shard.render",): pytest.approx(
                    (outer.duration_us - inner.duration_us) / 1e6
                ),
                ("span:shard.render", "span:engine.run"): pytest.approx(
                    inner.duration_us / 1e6
                ),
            }

    def test_enable_profile_implies_tracing(self, tmp_path):
        obs.enable(profile=tmp_path / "p.txt")
        assert obs.tracing_active()
        with obs.span("work"):
            pass
        status = obs.status()["profile"]
        assert status["active"] and status["samples"] == 1
        assert obs.flush()[str(tmp_path / "p.txt")] == "profile-report"
        assert "span:work" in (tmp_path / "p.txt").read_text()


def _fleet_run(workers):
    return simulate_fleet_traced(
        job_stream(n_jobs=5, seed=7),
        CapPolicy.half_tdp(),
        "50% TDP policy",
        8,
        bin_s=2.0,
        engine_config=EngineConfig(base_interval_s=1.0),
        seed=7,
        workers=workers,
    )


class TestShardedFleetProfile:
    @pytest.fixture(scope="class")
    def profiled(self, tmp_path_factory):
        """(report, speedscope doc, trace) of one profiled 2-worker run."""
        obs.disable()
        base = tmp_path_factory.mktemp("profile")
        obs.enable(trace=base / "t.json", profile=base / "p.speedscope")
        obs.name_process("repro fleet")
        try:
            report = _fleet_run(workers=2)
            obs.flush()
        finally:
            obs.disable()
        doc = json.loads((base / "p.speedscope").read_text())
        trace = json.loads((base / "t.json").read_text())
        return report, doc, trace

    def test_rows_are_coordinator_and_workers(self, profiled):
        _report, doc, trace = profiled
        rows = [p["name"] for p in doc["profiles"]]
        worker_pids = {
            e["pid"] for e in trace["traceEvents"] if e["name"] == "shard.render_batch"
        }
        assert worker_pids and os.getpid() not in worker_pids
        assert sorted(rows) == sorted(
            ["repro fleet"] + [f"repro fleet worker {pid}" for pid in worker_pids]
        )
        frames = [f["name"] for f in doc["shared"]["frames"]]
        assert all(f.startswith("span:") for f in frames)
        assert not any("(no span)" in f for f in frames)

    def test_report_equals_unprofiled_report(self, profiled):
        report, _doc, _trace = profiled
        obs.disable()
        assert _fleet_run(workers=2) == report
