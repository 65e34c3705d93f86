"""End-to-end observability through the CLI.

Covers the acceptance path: ``repro reproduce fig10 --trace t.json
--metrics m.prom`` must emit a valid Chrome trace-event file and a valid
Prometheus exposition, with the engine/sweep/cache instrumentation
present in both.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.experiments.common import run_cache
from repro.runner.sweep import reset_sweep_stats

from tests.obs.test_metrics import parse_exposition


@pytest.fixture(autouse=True)
def clean_harness_state():
    """Cache/sweep stats are process-global; isolate them per test."""
    run_cache().clear()
    reset_sweep_stats()
    yield
    run_cache().clear()
    reset_sweep_stats()


class TestReproduceWithObservability:
    """One full fig10 reproduction with both exporters on (slow-ish: ~2 s)."""

    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("obs")
        trace_path = tmp / "t.json"
        metrics_path = tmp / "m.prom"
        obs.disable()
        run_cache().clear()
        reset_sweep_stats()
        try:
            code = main(
                [
                    "reproduce",
                    "fig10",
                    "--trace",
                    str(trace_path),
                    "--metrics",
                    str(metrics_path),
                ]
            )
        finally:
            obs.disable()
        assert code == 0
        return trace_path, metrics_path

    def test_chrome_trace_is_valid_and_has_harness_spans(self, exported):
        trace_path, _ = exported
        data = json.loads(trace_path.read_text())
        events = data["traceEvents"]
        assert events, "trace must not be empty"
        # Row-label metadata leads the list; spans/instants follow.
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in metadata} == {"process_name", "thread_name"}
        assert events[: len(metadata)] == metadata
        for entry in events[len(metadata):]:
            assert entry["ph"] in ("X", "i")
            assert {"name", "cat", "ts", "pid", "tid"} <= set(entry)
        names = {entry["name"] for entry in events}
        assert {
            "cli.reproduce",
            "engine.run",
            "engine.resolve_phases",
            "engine.render_traces",
            "sweep.map",
            "sweep.spec",
            "experiments.run_workload",
        } <= names

    def test_prometheus_exposition_is_valid_and_has_harness_metrics(self, exported):
        _, metrics_path = exported
        series = parse_exposition(metrics_path.read_text())  # parse-check
        # Cache: fig10's grid misses on a cold cache.
        assert series['repro_cache_misses_total{cache="run"}'] > 0
        # Engine: runs counted, vectorized path taken.
        assert series["repro_engine_runs_total"] > 0
        assert series['repro_engine_resolve_total{path="vectorized"}'] > 0
        # Sweep: submitted >= executed (dedupe), latency histogram filled.
        submitted = series["repro_sweep_specs_submitted_total"]
        executed = series["repro_sweep_specs_executed_total"]
        assert submitted >= executed > 0
        assert series["repro_sweep_spec_seconds_count"] == executed
        assert series['repro_sweep_spec_seconds_bucket{le="+Inf"}'] == executed

class TestObservationOnly:
    def test_run_output_identical_with_and_without_obs(self, capsys, tmp_path):
        assert main(["run", "PdO2", "--seed", "3"]) == 0
        plain = capsys.readouterr().out
        assert (
            main(
                [
                    "run",
                    "PdO2",
                    "--seed",
                    "3",
                    "--trace",
                    str(tmp_path / "t.json"),
                    "--metrics",
                    str(tmp_path / "m.prom"),
                ]
            )
            == 0
        )
        obs.disable()
        instrumented = capsys.readouterr().out
        # Identical modulo the exporter footer lines.
        stripped = [
            line for line in instrumented.splitlines() if " written to " not in line
        ]
        assert stripped == plain.splitlines()

    def test_run_with_json_metrics_suffix(self, capsys, tmp_path):
        metrics_path = tmp_path / "m.json"
        assert main(["run", "PdO2", "--metrics", str(metrics_path)]) == 0
        obs.disable()
        assert "metrics-json written to" in capsys.readouterr().out
        data = json.loads(metrics_path.read_text())
        assert data["repro_engine_runs_total"]["type"] == "counter"


class TestObsCommand:
    def test_obs_status_human(self, capsys):
        assert main(["obs"]) == 0
        out = capsys.readouterr().out
        assert "tracing" in out
        assert "REPRO_TRACE" in out
        assert "REPRO_METRICS" in out
        assert "REPRO_LOG" in out

    def test_obs_status_json(self, capsys):
        assert main(["obs", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tracing"]["active"] is False
        assert data["metrics"]["active"] is False


class TestEfficiencyFooter:
    def test_cap_sweep_prints_cache_summary(self, capsys):
        assert (
            main(["cap-sweep", "PdO2", "--caps", "400", "200", "--nodes", "1"]) == 0
        )
        out = capsys.readouterr().out
        assert "[run cache:" in out
        assert "hit rate" in out

    def test_reproduce_fig12_prints_sweep_summary(self, capsys):
        # fig12 sweeps its cap grid through the executor, so the footer
        # carries both the estimate-cache and the dedupe summary.
        assert main(["reproduce", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "[estimate cache:" in out
        assert "[sweeps:" in out
        assert "deduped" in out

    def test_reproduce_prints_summary(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        out = capsys.readouterr().out
        # table1 does not sweep, but the run-cache line still appears
        # whenever lookups happened; at minimum the command succeeds and
        # prints its artifact output.
        assert "80x120x54" in out
