"""``scripts/bench_compare.py`` gates, on synthetic pytest-benchmark JSON.

No bench runs here: each test writes a run file and a baseline, then
checks the exit code :func:`compare` (or ``main --no-run``) returns.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"


@pytest.fixture
def bench_compare(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "BASELINE_PATH", tmp_path / "baseline.json")
    module.BASELINE_PATH.write_text(
        json.dumps(
            {
                "machine": "test host",
                "threshold": 0.5,
                "memory": {"streaming_peak_bytes": 1000, "rss_reduction": 8.0},
                "monitor": {"overhead": 0.01, "samples_observed": 42},
                "benchmarks": {
                    "test_fig01": {"min_s": 1.0},
                    "test_fig02": {"min_s": 2.0},
                    "test_fig03": {"min_s": 3.0},
                    "test_grid_sweep_executor": {"min_s": 1.0},
                },
            }
        )
    )
    return module


def run_file(tmp_path, scale=None, memory=None, monitor=True) -> Path:
    """A pytest-benchmark JSON file matching the fixture's baseline.

    *scale* multiplies individual bench times; *memory* overrides the
    recorded memory fields; ``monitor=False`` drops that section.
    """
    scale = scale or {}
    base = {
        "test_fig01": 1.0,
        "test_fig02": 2.0,
        "test_fig03": 3.0,
        "test_grid_sweep_executor": 1.0,
    }
    extra = {
        "test_fig01": {
            "memory": memory or {"streaming_peak_bytes": 1000, "rss_reduction": 8.0}
        },
        "test_fig02": (
            {"monitor": {"overhead": 0.02, "samples_observed": 42}} if monitor else {}
        ),
    }
    benches = [
        {
            "name": name,
            "stats": {"min": seconds * scale.get(name, 1.0)},
            "extra_info": extra.get(name, {}),
        }
        for name, seconds in base.items()
    ]
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"benchmarks": benches}))
    return path


def test_clean_run_passes(bench_compare, tmp_path):
    times, sections = bench_compare.load_run(run_file(tmp_path))
    assert sections["monitor"]["samples_observed"] == 42
    assert bench_compare.compare(times, sections) == 0


def test_sweep_bench_twice_as_slow_fails(bench_compare, tmp_path, capsys):
    path = run_file(tmp_path, scale={"test_grid_sweep_executor": 2.0})
    assert bench_compare.compare(*bench_compare.load_run(path)) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_uniform_host_slowdown_passes(bench_compare, tmp_path):
    names = ("test_fig01", "test_fig02", "test_fig03", "test_grid_sweep_executor")
    path = run_file(tmp_path, scale={name: 2.0 for name in names})
    assert bench_compare.compare(*bench_compare.load_run(path)) == 0


def test_streaming_peak_growth_fails(bench_compare, tmp_path, capsys):
    memory = {"streaming_peak_bytes": 1600, "rss_reduction": 8.0}
    path = run_file(tmp_path, memory=memory)
    assert bench_compare.compare(*bench_compare.load_run(path)) == 1
    assert "streaming_peak_bytes grew +60%" in capsys.readouterr().out


def test_missing_section_fails(bench_compare, tmp_path, capsys):
    path = run_file(tmp_path, monitor=False)
    assert bench_compare.compare(*bench_compare.load_run(path)) == 1
    assert "monitor: section missing" in capsys.readouterr().out


def test_no_run_reads_the_given_file(bench_compare, tmp_path, monkeypatch):
    def no_bench_runs(json_path):
        raise AssertionError("--no-run must not run the benches")

    monkeypatch.setattr(bench_compare, "run_benchmarks", no_bench_runs)
    path = run_file(tmp_path)
    assert bench_compare.main(["--no-run", "--json", str(path)]) == 0


def test_update_writes_recorded_sections(bench_compare, tmp_path):
    path = run_file(tmp_path)
    assert bench_compare.main(["--no-run", "--json", str(path), "--update"]) == 0
    written = json.loads(bench_compare.BASELINE_PATH.read_text())
    assert written["machine"]
    assert written["memory"] == {"streaming_peak_bytes": 1000, "rss_reduction": 8.0}
    assert written["monitor"]["samples_observed"] == 42
    assert written["benchmarks"]["test_fig03"] == {"min_s": 3.0}
