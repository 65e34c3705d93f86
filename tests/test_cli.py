"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import ARTIFACTS, build_parser, main


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

    def test_rejects_unknown_benchmark(self):
        # Workload refs are free-form (registry-resolved), so rejection
        # happens at command time with the full known-refs listing.
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["run", "NotABenchmark"])

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "fig99"])

    def test_artifact_registry_complete(self):
        expected = {"table1", "scheduling", "milc", "topdown", "system-power"} | {
            f"fig{i:02d}" for i in range(1, 14)
        }
        assert set(ARTIFACTS) == expected


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

    def test_run_rejects_unknown_platform(self):
        with pytest.raises(KeyError, match="registered"):
            main(["run", "PdO2", "--platform", "dgx-spark"])

    def test_cap_sweep_defaults_scale_with_platform(self, capsys):
        assert main(
            ["cap-sweep", "PdO2", "--platform", "h100-sxm", "--nodes", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "700" in out  # H100 TDP leads the default grid
        assert "h100-sxm" in out
