"""One account per fact: footer, ledger and metrics agree, serial or sharded.

Cache and sweep counts live only in their stats objects.  The
CLI footer, the run ledger record and the ``--metrics`` dump all read
them, and fleet shard workers ship their counts home with each task — so
for every run below the three views report the same numbers, whether the
fleet ran in-process or in two workers.
"""

import json
import re

import pytest

from repro import obs
from repro.cli import main
from repro.obs.ledger import RunLedger
from repro.runner.cache import process_caches
from repro.runner.sweep import reset_sweep_stats

_CACHE_LINE = re.compile(r"\[(\w+) cache: (\d+) hits / (\d+) misses")
_SWEEP_LINE = re.compile(r"\[sweeps: (\d+) specs over \d+ grids, (\d+) executed")


@pytest.fixture(autouse=True)
def fresh_accounts():
    """Zero every process account, so this run's counts are the totals."""
    obs.disable()
    for cache in process_caches():
        cache.clear()
    reset_sweep_stats()
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
    return views


def _three_views(argv, tmp_path, capsys) -> tuple[dict, dict, dict]:
    metrics_path = tmp_path / "m.json"
    assert main([*argv, "--metrics", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    return _footer(out), _ledger(), _metrics(metrics_path)


class TestAccountParity:
    def test_reproduce_fig12(self, tmp_path, capsys):
        footer, ledger, metrics = _three_views(
            ["reproduce", "fig12"], tmp_path, capsys
        )
        assert footer == ledger == metrics
        assert {"estimate", "phases"} <= footer["cache"].keys()
        assert footer["sweeps"][0] > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fleet(self, workers, tmp_path, capsys):
        footer, ledger, metrics = _three_views(
            ["fleet", "--jobs", "4", "--nodes", "6", "--seed", "3",
             "--resolution", "1.0", "--workers", str(workers)],
            tmp_path,
            capsys,
        )
        assert footer == ledger == metrics
        assert {"estimate", "phases"} <= footer["cache"].keys()

    def test_reproduce_fig10(self, tmp_path, capsys):
        # Every sweep point is an engine run, counted by the run cache.
        footer, ledger, metrics = _three_views(
            ["reproduce", "fig10"], tmp_path, capsys
        )
        assert footer == ledger == metrics
        assert "run" in footer["cache"]
        assert footer["sweeps"][0] > 0
