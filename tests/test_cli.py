"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.capping.scheduler import cached_estimate_run
from repro.cli import (
    ARTIFACTS,
    MAX_RESOLUTION_S,
    MIN_RESOLUTION_S,
    build_parser,
    main,
)
from repro.obs.ledger import RunLedger
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

    def test_no_flag_parses_with_a_bare_int_or_float(self):
        """Every numeric flag, added now or later, uses a value kind."""
        bare = [
            f"{parser.prog} {action.option_strings or action.dest}"
            for parser in all_parsers(build_parser())
            for action in parser._actions
            if action.type in (int, float)
        ]
        assert bare == []

    def test_resolution_admits_the_values_in_use(self):
        for value in ("1.0", "0.1", str(MIN_RESOLUTION_S), str(MAX_RESOLUTION_S)):
            args = build_parser().parse_args(["fleet", "--resolution", value])
            assert args.resolution == float(value)

    def test_requires_command(self):
        with pytest.raises(ValueError, match="required: command"):
            build_parser().parse_args([])

    def test_rejects_unknown_benchmark(self, capsys):
        # Workload refs are free-form (registry-resolved), so rejection
        # happens at command time with the full known-refs listing.
        assert main(["run", "NotABenchmark"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_rejects_unknown_artifact(self):
        with pytest.raises(ValueError, match="invalid choice: 'fig99'"):
            build_parser().parse_args(["reproduce", "fig99"])

    def test_artifact_registry_complete(self):
        expected = {"table1", "scheduling", "milc", "topdown", "system-power"} | {
            f"fig{i:02d}" for i in range(1, 14)
        }
        assert set(ARTIFACTS) == expected


#: Each value kind: what its complaint expects, and the values it
#: refuses among 0, -1, nan and inf (and 1e300, past the resolution range).
POSITIVE_INT = ("a positive integer", ("0", "-1", "nan", "inf"))
SEED = ("a non-negative integer", ("-1", "nan", "inf"))
POSITIVE = ("a positive finite number", ("0", "-1", "nan", "inf"))
FRACTION = ("a non-negative finite fraction", ("-1", "nan", "inf"))
RESOLUTION = ("seconds in [0.01, 60]", ("0", "-1", "nan", "inf", "1e300"))

#: (command line before the flag, flag, kind): every numeric flag of
#: every subcommand.  Tiny resolutions such as 1e-9 stay out, because
#: older code allocated their sample grid before failing.
NUMERIC_FLAGS = [
    (["run", "PdO2"], "--nodes", POSITIVE_INT),
    (["run", "PdO2"], "--cap", POSITIVE),
    (["run", "PdO2"], "--seed", SEED),
    (["survey"], "--nodes", POSITIVE_INT),
    (["survey"], "--seed", SEED),
    (["cap-sweep", "PdO2"], "--nodes", POSITIVE_INT),
    (["cap-sweep", "PdO2"], "--caps", POSITIVE),
    (["cap-sweep", "PdO2"], "--seed", SEED),
    (["predict", "PdO2"], "--nodes", POSITIVE_INT),
    (["predict", "PdO2"], "--cap", POSITIVE),
    (["predict", "PdO2"], "--seed", SEED),
    (["fleet"], "--jobs", POSITIVE_INT),
    (["fleet"], "--nodes", POSITIVE_INT),
    (["fleet"], "--workers", POSITIVE_INT),
    (["fleet"], "--bin-s", POSITIVE),
    (["fleet"], "--watts-per-node", POSITIVE),
    (["fleet"], "--resolution", RESOLUTION),
    (["fleet"], "--seed", SEED),
    (["monitor"], "--jobs", POSITIVE_INT),
    (["monitor"], "--nodes", POSITIVE_INT),
    (["monitor"], "--watts-per-node", POSITIVE),
    (["monitor"], "--resolution", RESOLUTION),
    (["monitor"], "--seed", SEED),
    (["schedule"], "--nodes", POSITIVE_INT),
    (["schedule"], "--watts-per-node", POSITIVE),
    (["schedule"], "--copies", POSITIVE_INT),
    (["runs", "list"], "--limit", POSITIVE_INT),
    (["sentinel", "check"], "--tolerance", FRACTION),
    (["sentinel", "check"], "--min-history", POSITIVE_INT),
    (["sentinel", "report"], "--tolerance", FRACTION),
    (["sentinel", "report"], "--min-history", POSITIVE_INT),
    (["top"], "--interval", POSITIVE),
    (["top"], "--duration", POSITIVE),
]

#: Test ids that single-point rows carried before one table held them all.
LEGACY_IDS = {
    "run PdO2 --nodes 0": "run-nodes-0",
    "run PdO2 --nodes -1": "run-nodes-negative",
    "cap-sweep PdO2 --nodes 0": "cap-sweep-nodes-0",
    "cap-sweep PdO2 --nodes -1": "cap-sweep-nodes-negative",
    "cap-sweep PdO2 --platform dgx-spark": "cap-sweep",
    "predict PdO2 --platform dgx-spark": "predict",
    "run bogus": "run-bogus",
    "run PdO2 --cap 50": "run-cap-below-floor",
    "cap-sweep PdO2 --caps 400 50": "cap-sweep-cap-below-floor",
    "predict PdO2 --cap 50": "predict-cap-below-floor",
}


def _row(argv, message):
    text = " ".join(argv)
    return pytest.param(argv, message, id=LEGACY_IDS.get(text, text or "no command"))


#: Every refused input, one row each: the command line and the heart of
#: its one-line complaint.
REFUSED = [
    *[
        _row(
            [*before, flag, value],
            f"argument {flag}: expected {expected}, got {value!r}",
        )
        for before, flag, (expected, values) in NUMERIC_FLAGS
        for value in values
    ],
    _row(["fleet", "--jobs", "abc"], "expected a positive integer, got 'abc'"),
    _row(["fleet", "--resume"], "resume needs a checkpoint"),
    _row(["fleet", "--platform", "bogus"], "unknown platform 'bogus'"),
    _row(["fleet", "--platform", "a100-40g,bogus"], "unknown platform 'bogus'"),
    _row(["fleet", "--monitor", "--platform", "bogus"], "unknown platform 'bogus'"),
    _row(["monitor", "--platform", "bogus"], "unknown platform 'bogus'"),
    _row(["fleet", "--scenario", "bogus"], "unknown scenario 'bogus'"),
    _row(["run", "bogus"], "unknown workload 'bogus'"),
    _row(["cap-sweep", "PdO2", "--platform", "dgx-spark"], "unknown platform"),
    _row(["predict", "PdO2", "--platform", "dgx-spark"], "unknown platform"),
    _row(
        ["run", "PdO2", "--cap", "50"],
        "NVIDIA A100-SXM4-40GB: power limit 50 W outside supported range "
        "[100, 400] W",
    ),
    _row(["cap-sweep", "PdO2", "--caps", "400", "50"], "power limit 50 W outside"),
    _row(["predict", "PdO2", "--cap", "50"], "power limit 50 W outside"),
    _row(["runs", "show", "zzz"], "run ledger is empty"),
    _row(["sentinel", "check", "zzz"], "run ledger is empty"),
    _row([], "the following arguments are required: command"),
    _row(["reproduce", "fig99"], "invalid choice: 'fig99'"),
    _row(["survey", "--bogus"], "unrecognized arguments: --bogus"),
]


def _rows(*commands):
    return [row for row in REFUSED if row.values[0][:1] in [[c] for c in commands]]


#: The table runs as three tests only so that rows keep their old ids.
FLEET_ROWS = _rows("fleet", "monitor")
POINT_ROWS = _rows("run", "cap-sweep", "predict")
OTHER_ROWS = [row for row in REFUSED if row not in FLEET_ROWS + POINT_ROWS]


def assert_refused(argv, message, capsys, monkeypatch, tmp_path):
    """``argv`` exits 2 with one `repro:` line on stderr, prints nothing
    on stdout and leaves no ledger record.  `fleet` and `monitor` start
    from a small valid run (the last value of a flag wins)."""
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    if argv[:1] in (["fleet"], ["monitor"]):
        argv = [argv[0], "--jobs", "2", "--nodes", "4", *argv[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert RunLedger().records() == []


@pytest.mark.parametrize("argv, message", FLEET_ROWS)
def test_bad_fleet_flag_exits_2_with_one_line(
    argv, message, capsys, monkeypatch, tmp_path
):
    assert_refused(argv, message, capsys, monkeypatch, tmp_path)


@pytest.mark.parametrize("argv, message", OTHER_ROWS)
def test_refused_input_exits_2_with_one_line(
    argv, message, capsys, monkeypatch, tmp_path
):
    assert_refused(argv, message, capsys, monkeypatch, tmp_path)


def test_cap_sweep_checks_every_cap_before_the_first_run(
    capsys, monkeypatch, tmp_path
):
    runs = []
    monkeypatch.setattr("repro.cli.run_workload", lambda *a, **k: runs.append(a))
    argv = ["cap-sweep", "PdO2", "--caps", "400", "50"]
    assert_refused(argv, "power limit 50 W", capsys, monkeypatch, tmp_path)
    assert runs == []


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

    @pytest.mark.parametrize("argv, message", POINT_ROWS)
    def test_single_platform_commands_reject_unknown_platform(
        self, argv, message, capsys, monkeypatch, tmp_path
    ):
        """Unknown workloads and platforms, bad flag values and caps
        outside the GPU's range are refused alike."""
        assert_refused(argv, message, capsys, monkeypatch, tmp_path)

    def test_cap_sweep_defaults_scale_with_platform(self, capsys):
        assert main(
            ["cap-sweep", "PdO2", "--platform", "h100-sxm", "--nodes", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "700" in out  # H100 TDP leads the default grid
        assert "h100-sxm" in out
