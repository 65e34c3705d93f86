"""One account per fact: footer, ledger and metrics agree, serial or pooled.

Cache, sweep and surrogate counts live only in their stats objects.  The
CLI footer, the run ledger record and the ``--metrics`` dump all read
them, and worker processes ship their counts home with each task — so
for every run below the three views report the same numbers, whether the
work ran in-process or in two workers.
"""

import json
import re
from dataclasses import replace

import pytest

from repro import obs
from repro.cli import main
from repro.obs.ledger import RunLedger
from repro.prediction import store
from repro.prediction.corpus import CorpusConfig
from repro.prediction.model import reset_surrogate_stats
from repro.runner.cache import process_caches
from repro.runner.sweep import reset_sweep_stats

_CACHE_LINE = re.compile(r"\[(\w+) cache: (\d+) hits / (\d+) misses")
_SWEEP_LINE = re.compile(r"\[sweeps: (\d+) specs over \d+ grids, (\d+) executed")
_SURROGATE_LINE = re.compile(
    r"\[surrogate: (\d+) predictions, (\d+) in-envelope \(\d+%\), "
    r"(\d+) engine fallbacks"
)

#: A small training grid, so the surrogate run trains (through the sweep
#: executor) in a few seconds instead of building the full corpus.
_SMALL_CORPUS = replace(
    CorpusConfig(),
    silicon_sizes=(64, 128),
    higher_order_sizes=(128,),
    higher_order_methods=("hse",),
    benchmark_nodes=(1,),
    platforms=("a100-40g",),
    cap_fractions=(0.5,),
    zoo=("milc:small",),
)


@pytest.fixture(autouse=True)
def fresh_accounts():
    """Zero every process account, so this run's counts are the totals."""
    obs.disable()
    for cache in process_caches():
        cache.clear()
    reset_sweep_stats()
    reset_surrogate_stats()
    yield
    obs.disable()


def _footer(out: str) -> dict:
    views: dict = {
        "cache": {
            name: (int(hits), int(misses))
            for name, hits, misses in _CACHE_LINE.findall(out)
        }
    }
    for submitted, executed in _SWEEP_LINE.findall(out):
        views["sweeps"] = (int(submitted), int(executed))
    for _predictions, hits, fallbacks in _SURROGATE_LINE.findall(out):
        views["surrogate"] = (int(hits), int(fallbacks))
    return views


def _ledger() -> dict:
    record = RunLedger().last().to_json()
    views: dict = {
        "cache": {
            name: (row["hits"], row["misses"])
            for name, row in record.get("cache", {}).items()
        }
    }
    if "sweeps" in record:
        sweeps = record["sweeps"]
        views["sweeps"] = (sweeps["submitted"], sweeps["executed"])
    if "surrogate" in record:
        views["surrogate"] = (
            record["surrogate"]["hits"],
            record["surrogate"]["fallbacks"],
        )
    return views


def _metrics(path) -> dict:
    data = json.loads(path.read_text())

    def series(name: str) -> dict:
        return data.get(name, {"values": {}})["values"]

    def by_cache(name: str) -> dict:
        totals: dict = {}
        for labels, value in series(name).items():
            cache = re.search(r'cache="(\w+)"', labels).group(1)
            totals[cache] = totals.get(cache, 0) + int(value)
        return totals

    hits = by_cache("repro_cache_hits_total")
    misses = by_cache("repro_cache_misses_total")
    views: dict = {
        "cache": {
            name: (hits.get(name, 0), misses.get(name, 0))
            for name in sorted(hits.keys() | misses.keys())
        }
    }
    submitted = series("repro_sweep_specs_submitted_total")
    if submitted:
        executed = series("repro_sweep_specs_executed_total")
        views["sweeps"] = (int(submitted[""]), int(executed[""]))
    surrogate_hits = series("repro_surrogate_hits_total")
    surrogate_fallbacks = series("repro_surrogate_fallbacks_total")
    if surrogate_hits or surrogate_fallbacks:
        views["surrogate"] = (
            int(surrogate_hits.get("", 0)),
            int(surrogate_fallbacks.get("", 0)),
        )
    return views


def _three_views(argv, tmp_path, capsys) -> tuple[dict, dict, dict]:
    metrics_path = tmp_path / "m.json"
    assert main([*argv, "--metrics", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    return _footer(out), _ledger(), _metrics(metrics_path)


@pytest.mark.parametrize("workers", [1, 2])
class TestAccountParity:
    def test_reproduce_fig12(self, workers, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", str(workers))
        footer, ledger, metrics = _three_views(
            ["reproduce", "fig12"], tmp_path, capsys
        )
        assert footer == ledger == metrics
        assert {"estimate", "phases"} <= footer["cache"].keys()
        assert footer["sweeps"][0] > 0

    def test_fleet(self, workers, tmp_path, capsys):
        footer, ledger, metrics = _three_views(
            ["fleet", "--jobs", "4", "--nodes", "6", "--seed", "3",
             "--resolution", "1.0", "--workers", str(workers)],
            tmp_path,
            capsys,
        )
        assert footer == ledger == metrics
        assert {"estimate", "phases"} <= footer["cache"].keys()

    def test_cap_sweep_surrogate(self, workers, tmp_path, capsys, monkeypatch):
        # An empty store: the run trains first, its corpus swept by
        # `workers` processes, then scores the grid in-process.
        monkeypatch.setenv("REPRO_SURROGATE_DIR", str(tmp_path / "store"))
        monkeypatch.setattr(store, "CorpusConfig", lambda: _SMALL_CORPUS)
        footer, ledger, metrics = _three_views(
            ["cap-sweep", "PdO2", "--nodes", "1", "--surrogate", "--caps",
             "400", "300", "200", "--workers", str(workers)],
            tmp_path,
            capsys,
        )
        assert footer == ledger == metrics
        assert "run" in footer["cache"]
        assert footer["sweeps"][0] > 0
        assert sum(footer["surrogate"]) == 4
