"""Unit tests for the ledger-mining regression sentinel."""

import json

import pytest

from repro.cli import main
from repro.obs import ledger
from repro.obs import sentinel
from repro.obs.ledger import RunLedger, RunRecord
from repro.obs.sentinel import (
    Baseline,
    ChangePoint,
    Finding,
    build_report,
    check_target,
    comparable_history,
    compute_baselines,
    detect_change_point,
    robust_stats,
    robust_zscore,
    verification_error,
)


@pytest.fixture(autouse=True)
def runs_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.delenv("REPRO_RUNS", raising=False)
    ledger.discard_run()
    yield tmp_path / "runs"
    ledger.discard_run()


def record(**overrides) -> RunRecord:
    base = dict(
        run_id="r0",
        kind="fleet",
        created_at="2026-01-01T00:00:00.000Z",
        fingerprint="fp1",
        wall_s=1.0,
    )
    base.update(overrides)
    return RunRecord(**base)


def series(walls, fingerprint="fp1", **common) -> list[RunRecord]:
    return [
        record(run_id=f"r{i}", wall_s=w, fingerprint=fingerprint, **common)
        for i, w in enumerate(walls)
    ]


class TestRobustStats:
    def test_median_and_mad(self):
        center, sigma = robust_stats([1.0, 2.0, 3.0, 4.0, 100.0])
        assert center == 3.0
        # MAD = median(|v - 3|) = median(2, 1, 0, 1, 97) = 1
        assert sigma == pytest.approx(sentinel.MAD_SIGMA)

    def test_single_outlier_barely_moves_sigma(self):
        _, quiet = robust_stats([1.0, 1.01, 0.99, 1.0])
        _, noisy = robust_stats([1.0, 1.01, 0.99, 50.0])
        assert noisy < 1.0  # a std-dev would be ~24 here

    def test_empty(self):
        assert robust_stats([]) == (0.0, 0.0)

    def test_zscore_with_zero_sigma(self):
        assert robust_zscore(1.0, 1.0, 0.0) == 0.0
        assert robust_zscore(1.1, 1.0, 0.0) == float("inf")
        assert robust_zscore(3.0, 1.0, 0.5) == pytest.approx(4.0)


class TestChangePoint:
    def test_detects_mid_series_step(self):
        values = [1.0, 1.02, 0.98, 1.01, 0.99, 2.0, 2.02, 1.98, 2.01, 1.99]
        cp = detect_change_point(values)
        assert cp is not None
        assert cp.index == 5
        assert cp.before_median == pytest.approx(1.0, abs=0.02)
        assert cp.after_median == pytest.approx(2.0, abs=0.02)
        assert cp.shift == pytest.approx(1.0, abs=0.05)

    def test_jitter_only_series_has_no_change_point(self):
        values = [1.0, 1.03, 0.97, 1.01, 0.99, 1.02, 0.98, 1.0]
        assert detect_change_point(values) is None

    def test_short_series_is_not_judged(self):
        assert detect_change_point([1.0, 1.0, 2.0, 2.0]) is None

    def test_flat_series_with_step_uses_infinite_z(self):
        cp = detect_change_point([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        assert cp is not None and cp.zscore == float("inf")

    def test_tiny_shift_is_ignored(self):
        # Statistically loud (quiet series) but practically nothing.
        values = [1.0] * 5 + [1.01] * 5
        assert detect_change_point(values) is None


class TestSeriesMining:
    def test_comparable_history_filters(self):
        target = record(run_id="t")
        records = [
            record(run_id="h1"),
            record(run_id="failed", status="error"),
            record(run_id="other", fingerprint="fp2"),
            target,
        ]
        assert [r.run_id for r in comparable_history(records, target)] == ["h1"]

    def test_no_fingerprint_no_history(self):
        target = record(run_id="t", fingerprint=None)
        assert comparable_history([record(run_id="h"), target], target) == []

    def test_verification_error_mining(self):
        assert verification_error(record()) is None
        assert verification_error(
            record(metrics={"winner_verification_error": 0.07})
        ) == pytest.approx(0.07)
        assert verification_error(
            record(metrics={"exact_energy_error": 0.02})
        ) == pytest.approx(0.02)


class TestCheckTarget:
    def test_regression_flags_on_quiet_history(self):
        history = series((1.0, 1.02, 0.98))
        target = record(run_id="t", wall_s=2.0)
        findings, n = check_target(history + [target], target)
        assert n == 3
        assert [f.category for f in findings] == ["regression"]
        assert findings[0].series == "wall_s"

    def test_jitter_only_history_stays_green(self):
        history = series((1.0, 1.05, 0.95, 1.02))
        target = record(run_id="t", wall_s=1.1)
        findings, _ = check_target(history + [target], target)
        assert findings == []

    def test_dual_gate_noisy_history_needs_sigma_too(self):
        # +33% over the median fires the tolerance, but the history is
        # so noisy that the robust z stays low: not a regression.
        history = series((1.0, 2.0, 1.2, 0.8, 1.6))
        target = record(run_id="t", wall_s=1.6)
        findings, _ = check_target(history + [target], target)
        assert findings == []

    def test_min_history_skips_statistical_checks(self):
        history = series((1.0,))
        target = record(run_id="t", wall_s=99.0)
        findings, n = check_target(history + [target], target)
        assert n == 1 and findings == []

    def test_energy_determinism_needs_only_one_prior(self):
        history = [record(run_id="h", energy_j=100.0)]
        target = record(run_id="t", energy_j=100.1)
        findings, _ = check_target(history + [target], target)
        assert [f.category for f in findings] == ["determinism"]
        assert findings[0].series == "energy_j"

    def test_cache_hit_rate_regression(self):
        history = [
            record(
                run_id=f"h{i}",
                cache={"run": {"hit_rate": rate}},
            )
            for i, rate in enumerate((0.9, 0.92, 0.88))
        ]
        target = record(run_id="t", cache={"run": {"hit_rate": 0.2}})
        findings, _ = check_target(history + [target], target)
        assert any(f.series == "cache.run.hit_rate" for f in findings)

    def test_surrogate_drift_alert(self):
        history = [
            record(
                run_id=f"h{i}",
                metrics={"winner_verification_error": err},
            )
            for i, err in enumerate((0.05, 0.30, 0.40))
        ]
        target = record(
            run_id="t", metrics={"winner_verification_error": 0.45}
        )
        findings, _ = check_target(history + [target], target)
        drift = [f for f in findings if f.category == "drift"]
        assert len(drift) == 1
        assert "retrain" in drift[0].message

    def test_accurate_surrogate_is_quiet(self):
        history = [
            record(
                run_id=f"h{i}",
                metrics={"winner_verification_error": 0.05},
            )
            for i in range(3)
        ]
        target = record(run_id="t", metrics={"winner_verification_error": 0.08})
        findings, _ = check_target(history + [target], target)
        assert findings == []

    def test_finding_str_is_message(self):
        finding = Finding("regression", "wall_s", "slow")
        assert str(finding) == "slow"


class TestBaselines:
    def test_compute_baselines_groups_and_sorts(self):
        records = (
            series((1.0, 1.1, 0.9), fingerprint="fp-many")
            + series((5.0,), fingerprint="fp-one")
            + [record(run_id="bad", status="error", fingerprint="fp-many")]
        )
        baselines = compute_baselines(records)
        assert [b.fingerprint for b in baselines] == ["fp-many", "fp-one"]
        assert baselines[0].runs == 3  # the error run is excluded
        assert baselines[0].wall_median_s == pytest.approx(1.0)

    def test_baseline_json_shape(self):
        (baseline,) = compute_baselines(series((1.0, 2.0)))
        data = baseline.to_json()
        assert data["fingerprint"] == "fp1"
        assert data["runs"] == 2
        json.dumps(data)

    def test_build_report_verdicts(self):
        quiet = series((1.0, 1.02, 0.98, 1.01), fingerprint="fp-ok")
        stepped = series(
            (1.0, 1.02, 0.98, 2.0, 2.02, 1.98, 2.01), fingerprint="fp-shift"
        )
        regressed = series((1.0, 1.02, 0.98, 3.0), fingerprint="fp-bad")
        rows = build_report(quiet + stepped + regressed)
        by_fp = {row.baseline.fingerprint: row for row in rows}
        assert by_fp["fp-ok"].verdict == "ok"
        assert by_fp["fp-shift"].change_point is not None
        assert by_fp["fp-bad"].verdict == "REGRESSED"
        for row in rows:
            json.dumps(row.to_json())

    def test_build_report_kind_filter(self):
        records = series((1.0, 1.1), fingerprint="fp-a", kind="fleet") + series(
            (2.0, 2.1), fingerprint="fp-b", kind="run"
        )
        rows = build_report(records, kind="run")
        assert [row.baseline.kind for row in rows] == ["run"]


class TestSentinelCli:
    def seed(self, walls, fingerprint="fp-cli", kind="fleet", **common):
        book = RunLedger()
        for rec in series(walls, fingerprint=fingerprint, kind=kind, **common):
            book.append(rec)
        return book

    def test_check_flags_seeded_regression(self, capsys):
        self.seed((1.0, 1.02, 0.98, 2.0))
        assert main(["sentinel", "check"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "wall time" in out

    def test_check_green_on_jitter_history(self, capsys):
        self.seed((1.0, 1.05, 0.95, 1.02))
        assert main(["sentinel", "check"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_unknown_ref(self, capsys):
        self.seed((1.0,))
        assert main(["sentinel", "check", "nope"]) == 2
        assert "error" in capsys.readouterr().out

    def test_check_tolerance_flag(self, capsys):
        self.seed((1.0, 1.02, 0.98, 1.4))
        assert main(["sentinel", "check", "--tolerance", "0.1"]) == 1
        capsys.readouterr()
        assert main(["sentinel", "check", "--tolerance", "0.6"]) == 0
        capsys.readouterr()

    def test_report_renders_and_gates(self, capsys):
        self.seed((1.0, 1.02, 0.98, 2.0))
        assert main(["sentinel", "report"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "fp-cli"[:10] in out

    def test_report_json(self, capsys):
        self.seed((1.0, 1.02, 0.98))
        assert main(["sentinel", "report", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["verdict"] == "ok"
        assert rows[0]["runs"] == 3

    def test_baseline_listing(self, capsys):
        self.seed((1.0, 1.1, 0.9))
        assert main(["sentinel", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "1 fingerprint(s)" in out
        assert main(["sentinel", "baseline", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["runs"] == 3

    def test_empty_ledger_messages(self, capsys):
        assert main(["sentinel", "report"]) == 0
        assert "no checkable history" in capsys.readouterr().out
        assert main(["sentinel", "baseline"]) == 0
        assert "no baselines" in capsys.readouterr().out
