"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.capping.scheduler import cached_estimate_run
from repro.cli import ARTIFACTS, build_parser, main
from repro.vasp.benchmarks import benchmark


def all_parsers(parser):
    """``parser`` and every subcommand parser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from all_parsers(child)


class TestParser:
    def test_every_help_renders(self):
        """argparse %-formats help strings: a stray % breaks --help."""
        parsers = list(all_parsers(build_parser()))
        assert len(parsers) > 20
        for parser in parsers:
            assert parser.format_help()

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_benchmark(self, capsys):
        # Workload refs are free-form (registry-resolved), so rejection
        # happens at command time with the full known-refs listing.
        assert main(["run", "NotABenchmark"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "fig99"])

    def test_artifact_registry_complete(self):
        expected = {"table1", "scheduling", "milc", "topdown", "system-power"} | {
            f"fig{i:02d}" for i in range(1, 14)
        }
        assert set(ARTIFACTS) == expected


#: (subcommand and flags, the one-line complaint): each value would
#: otherwise run with another meaning or end in a traceback.
BAD_FLEET_FLAGS = [
    (["fleet", "--resolution", "0"], "--resolution must be positive, got 0"),
    (["fleet", "--watts-per-node", "0"], "--watts-per-node must be positive"),
    (["fleet", "--workers", "0"], "--workers must be positive, got 0"),
    (["fleet", "--nodes", "0"], "n_nodes must be >= 1, got 0"),
    (["fleet", "--jobs", "0"], "n_jobs must be >= 1, got 0"),
    (["fleet", "--bin-s", "0"], "bin_s must be positive"),
    (["fleet", "--resume"], "resume needs a checkpoint"),
    (["fleet", "--platform", "bogus"], "unknown platform 'bogus'"),
    (["fleet", "--platform", "a100-40g,bogus"], "unknown platform 'bogus'"),
    (["fleet", "--monitor", "--platform", "bogus"], "unknown platform 'bogus'"),
    (["monitor", "--resolution", "-1"], "--resolution must be positive"),
    (["monitor", "--watts-per-node", "0"], "--watts-per-node must be positive"),
    (["monitor", "--nodes", "0"], "n_nodes must be >= 1, got 0"),
    (["monitor", "--jobs", "0"], "n_jobs must be >= 1, got 0"),
    (["monitor", "--platform", "bogus"], "unknown platform 'bogus'"),
    (["fleet", "--scenario", "bogus"], "unknown scenario 'bogus'"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_FLEET_FLAGS, ids=[" ".join(a) for a, _ in BAD_FLEET_FLAGS]
)
def test_bad_fleet_flag_exits_2_with_one_line(argv, message, capsys):
    """A small valid run, then the flag under test (the last value wins)."""
    command, *flag = argv
    assert main([command, "--jobs", "2", "--nodes", "4", *flag]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Si256_hse" in out
        assert "fig12" in out

    def test_run(self, capsys):
        assert main(["run", "PdO2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "high power mode" in out
        assert "PdO2" in out

    def test_run_with_cap(self, capsys):
        assert main(["run", "PdO2", "--cap", "200"]) == 0
        assert "GPU cap 200 W" in capsys.readouterr().out

    def test_run_export_trace(self, capsys, tmp_path):
        target = tmp_path / "trace.csv"
        assert main(["run", "PdO2", "--export-trace", str(target)]) == 0
        assert target.exists()
        from repro.io import load_trace_csv

        trace = load_trace_csv(target)
        assert len(trace.times) > 100

    def test_survey(self, capsys, monkeypatch, tmp_path):
        from repro.obs.ledger import RunLedger

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        assert main(["survey"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = [cell.strip() for cell in lines[1].split("|")]
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in lines[3:]
            if "|" in line
        ]
        assert len(rows) == 7
        hpm = [float(row[header.index("HPM (W)")].replace(",", "")) for row in rows]
        assert hpm == sorted(hpm, reverse=True)
        (record,) = RunLedger().records()
        assert record.kind == "survey"
        assert record.metrics["benchmarks"] == 7

    def test_reproduce_table1(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        assert "80x120x54" in capsys.readouterr().out

    def test_reproduce_with_json(self, capsys, tmp_path):
        target = tmp_path / "fig13.json"
        assert main(["reproduce", "fig13", "--json", str(target)]) == 0
        parsed = json.loads(target.read_text())
        assert len(parsed["rows"]) == 4

    def test_cap_sweep(self, capsys):
        assert main(["cap-sweep", "PdO2", "--caps", "400", "200", "--nodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "cap sweep" in out
        assert "HPM/cap" in out

    def test_predict_prints_the_analytic_estimate(self, capsys, tmp_path, monkeypatch):
        store = tmp_path / "surrogate"
        store.mkdir()
        monkeypatch.setenv("REPRO_SURROGATE_DIR", str(store))
        argv = ["predict", "PdO4", "--nodes", "1", "--cap", "250", "--exact"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        workload = benchmark("PdO4").build()
        estimate = cached_estimate_run(workload, 1, 250.0)
        slowdown = estimate.runtime_s / cached_estimate_run(workload, 1).runtime_s
        for line in (
            f"runtime          : {estimate.runtime_s:.0f} s (slowdown {slowdown:.3f})",
            f"mean node power  : {estimate.mean_node_power_w:.0f} W",
            f"peak node power  : {estimate.peak_node_power_w:.0f} W",
            f"energy/node      : {estimate.energy_per_node_j / 1.0e6:.3f} MJ",
        ):
            assert line in out
        assert "exact run (engine)" in out
        assert "node HPM" in out
        # Nothing trained or loaded a surrogate.
        assert list(store.iterdir()) == []


class TestPlatformCli:
    def test_platforms_command_lists_registry(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "a100-40g" in out
        assert "h100-sxm" in out
        assert "v100-sxm2" in out
        assert "default" in out

    def test_parser_accepts_platform_flag(self):
        args = build_parser().parse_args(["run", "PdO2", "--platform", "h100-sxm"])
        assert args.platform == "h100-sxm"

    def test_run_on_h100(self, capsys):
        assert main(["run", "PdO2", "--platform", "h100-sxm"]) == 0
        out = capsys.readouterr().out
        assert "h100-sxm" in out

    def test_run_rejects_unknown_platform(self, capsys):
        assert main(["run", "PdO2", "--platform", "dgx-spark"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: unknown platform 'dgx-spark'")
        assert "registered: a100-40g" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["cap-sweep", "PdO2", "--platform", "dgx-spark"],
                "unknown platform 'dgx-spark'",
                id="cap-sweep",
            ),
            pytest.param(
                ["predict", "PdO2", "--platform", "dgx-spark"],
                "unknown platform 'dgx-spark'",
                id="predict",
            ),
            pytest.param(
                ["run", "bogus"], "unknown workload 'bogus'", id="run-bogus"
            ),
            pytest.param(
                ["run", "PdO2", "--nodes", "0"],
                "--nodes must be >= 1, got 0",
                id="run-nodes-0",
            ),
            pytest.param(
                ["run", "PdO2", "--nodes", "-2"],
                "--nodes must be >= 1, got -2",
                id="run-nodes-negative",
            ),
            pytest.param(
                ["cap-sweep", "PdO4", "--nodes", "0"],
                "--nodes must be >= 1, got 0",
                id="cap-sweep-nodes-0",
            ),
            pytest.param(
                ["cap-sweep", "PdO4", "--nodes", "-1"],
                "--nodes must be >= 1, got -1",
                id="cap-sweep-nodes-negative",
            ),
            pytest.param(
                ["run", "PdO2", "--cap", "50"],
                "cap 50 W outside the a100-40g GPU range [100, 400] W",
                id="run-cap-below-floor",
            ),
            pytest.param(
                ["cap-sweep", "PdO2", "--caps", "400", "50"],
                "cap 50 W outside the a100-40g GPU range [100, 400] W",
                id="cap-sweep-cap-below-floor",
            ),
            pytest.param(
                ["predict", "PdO2", "--cap", "50"],
                "cap 50 W outside the a100-40g GPU range [100, 400] W",
                id="predict-cap-below-floor",
            ),
        ],
    )
    def test_single_platform_commands_reject_unknown_platform(
        self, argv, message, capsys
    ):
        """Unknown workloads, node counts below 1 and caps outside the
        GPU's range are refused like an unknown platform."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro: {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_cap_sweep_defaults_scale_with_platform(self, capsys):
        assert main(
            ["cap-sweep", "PdO2", "--platform", "h100-sxm", "--nodes", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "700" in out  # H100 TDP leads the default grid
        assert "h100-sxm" in out
