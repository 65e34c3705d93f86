"""Unit tests for the durable run ledger and the ``repro runs`` CLI."""

import json

import pytest

from repro.cli import main
from repro.obs import ledger
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    diff_records,
    flatten_record,
)
from repro.obs.sentinel import check_target


@pytest.fixture(autouse=True)
def runs_dir(tmp_path, monkeypatch):
    """Each test gets its own ledger directory and a clean draft slate."""
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.delenv("REPRO_RUNS", raising=False)
    ledger.discard_run()
    yield tmp_path / "runs"
    ledger.discard_run()


def record(**overrides) -> RunRecord:
    base = dict(
        run_id="20260101T000000-abc123",
        kind="fleet",
        created_at="2026-01-01T00:00:00.000Z",
        fingerprint="fp1",
        wall_s=1.0,
        energy_j=100.0,
    )
    base.update(overrides)
    return RunRecord(**base)


class TestRunRecord:
    def test_json_round_trip(self):
        original = record(
            platforms=["a100-40g"],
            fleet={"uncapped": {"jobs": 4}},
            extra={"future_key": 1},
        )
        clone = RunRecord.from_json(original.to_json())
        assert clone == original

    def test_to_json_omits_empty_fields(self):
        data = record(workers=None, platforms=[]).to_json()
        assert "workers" not in data
        assert "platforms" not in data
        assert "fleet" not in data

    def test_unknown_keys_survive_in_extra(self):
        parsed = RunRecord.from_json(
            {"run_id": "x", "kind": "run", "new_field": {"a": 1}}
        )
        assert parsed.extra == {"new_field": {"a": 1}}
        assert parsed.to_json()["new_field"] == {"a": 1}


class TestRunLedger:
    def test_append_and_read_back(self, runs_dir):
        book = RunLedger()
        book.append(record(run_id="r1"))
        book.append(record(run_id="r2"))
        ids = [r.run_id for r in book.records()]
        assert ids == ["r1", "r2"]
        assert book.last().run_id == "r2"
        assert book.path == runs_dir / "ledger.jsonl"

    def test_corrupt_lines_are_skipped(self, runs_dir):
        book = RunLedger()
        book.append(record(run_id="good"))
        with book.path.open("a") as fh:
            fh.write("{not json\n")
        book.append(record(run_id="also-good"))
        assert [r.run_id for r in book.records()] == ["good", "also-good"]

    def test_crashed_writer_partial_line_does_not_poison_appends(self, runs_dir):
        # Crash injection: a writer died mid-line, leaving a truncated
        # record with no trailing newline.  Later appends must start a
        # fresh line (not glue onto the fragment), and reads must skip
        # exactly the one corrupt line.
        book = RunLedger()
        book.append(record(run_id="before-crash"))
        payload = json.dumps(record(run_id="crashed").to_json())
        with book.path.open("a") as fh:
            fh.write(payload[: len(payload) // 2])
        book.append(record(run_id="after-crash"))
        assert [r.run_id for r in book.records()] == [
            "before-crash",
            "after-crash",
        ]

    def test_concurrent_appends_interleave_whole_lines(self, runs_dir):
        # O_APPEND contract: many writers, one file, no torn or lost
        # lines.  Threads are enough — every append opens its own fd,
        # exactly like concurrent CLI processes do.
        import threading

        book = RunLedger()
        per_writer = 25

        def write_batch(writer: int) -> None:
            for i in range(per_writer):
                book.append(record(run_id=f"w{writer}-r{i:02d}"))

        threads = [
            threading.Thread(target=write_batch, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [r.run_id for r in book.records()]
        assert len(ids) == 8 * per_writer
        assert len(set(ids)) == 8 * per_writer
        # Per-writer order is preserved even though writers interleave.
        for w in range(8):
            mine = [i for i in ids if i.startswith(f"w{w}-")]
            assert mine == sorted(mine)

    def test_find_by_prefix_and_last(self):
        book = RunLedger()
        book.append(record(run_id="20260101T000000-aaa111"))
        book.append(record(run_id="20260202T000000-bbb222"))
        assert book.find("last").run_id == "20260202T000000-bbb222"
        assert book.find("20260101").run_id == "20260101T000000-aaa111"
        with pytest.raises(KeyError, match="ambiguous"):
            book.find("2026")
        with pytest.raises(KeyError, match="no run matches"):
            book.find("zzz")

    def test_find_on_empty_ledger(self):
        with pytest.raises(KeyError, match="empty"):
            RunLedger().find("last")


class TestDiffAndFlatten:
    def test_flatten_uses_dotted_keys(self):
        flat = flatten_record(record(fleet={"uncapped": {"jobs": 4}}))
        assert flat["fleet.uncapped.jobs"] == 4
        assert flat["kind"] == "fleet"

    def test_diff_skips_identity_fields(self):
        a = record(run_id="r1", wall_s=1.0, created_at="2026-01-01T00:00:00Z")
        b = record(run_id="r2", wall_s=9.0, created_at="2026-01-02T00:00:00Z")
        assert diff_records(a, b) == []

    def test_diff_reports_outcome_changes(self):
        a = record(run_id="r1", energy_j=100.0)
        b = record(run_id="r2", energy_j=200.0, workers=4)
        changed = {key for key, _, _ in diff_records(a, b)}
        assert changed == {"energy_j", "workers"}


class TestCheckRegression:
    """Ledger histories judged by the one regression gate (the sentinel)."""

    def test_no_history_no_findings(self):
        target = record(run_id="t")
        findings, history = check_target([target], target)
        assert findings == [] and history == 0

    def test_wall_time_regression_vs_median_baseline(self):
        history = [
            record(run_id=f"h{i}", wall_s=w)
            for i, w in enumerate((1.0, 1.02, 0.98))
        ]
        target = record(run_id="t", wall_s=2.0)
        findings, n = check_target(history + [target], target)
        assert n == 3
        assert len(findings) == 1
        assert "wall time" in str(findings[0])

    def test_jitter_within_tolerance_passes(self):
        history = [
            record(run_id=f"h{i}", wall_s=w)
            for i, w in enumerate((1.0, 1.05, 0.95))
        ]
        target = record(run_id="t", wall_s=1.1)
        findings, _ = check_target(history + [target], target)
        assert findings == []

    def test_wall_time_within_threshold_passes(self):
        history = [record(run_id="h", wall_s=1.0)]
        target = record(run_id="t", wall_s=1.2)
        findings, _ = check_target(history + [target], target)
        assert findings == []

    def test_energy_drift_is_a_finding(self):
        history = [record(run_id="h", energy_j=100.0)]
        target = record(run_id="t", energy_j=100.1)
        findings, _ = check_target(history + [target], target)
        assert any("determinism" in str(f) for f in findings)

    def test_different_fingerprint_not_compared(self):
        history = [record(run_id="h", wall_s=0.1, fingerprint="other")]
        target = record(run_id="t", wall_s=99.0)
        findings, n = check_target(history + [target], target)
        assert findings == [] and n == 0


class TestDraftApi:
    def test_begin_annotate_finish(self, runs_dir):
        run_id = ledger.begin_run("fleet", "fleet --jobs 4")
        assert run_id is not None
        assert ledger.current_run_id() == run_id
        ledger.annotate_run(fleet={"capped": {"jobs": 4}})
        ledger.annotate_run(fleet={"uncapped": {"jobs": 4}}, workers=2)
        sealed = ledger.finish_run()
        assert sealed.run_id == run_id
        assert sealed.wall_s is not None and sealed.wall_s >= 0.0
        assert set(sealed.fleet) == {"capped", "uncapped"}
        assert sealed.workers == 2
        (stored,) = RunLedger().records()
        assert stored.run_id == run_id

    def test_annotate_without_draft_is_noop(self, runs_dir):
        ledger.annotate_run(workers=2)  # library use: must not write
        assert RunLedger().records() == []
        assert ledger.finish_run() is None

    def test_disabled_via_env(self, runs_dir, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS", "0")
        assert ledger.begin_run("fleet") is None
        ledger.annotate_run(workers=2)
        assert ledger.finish_run() is None
        assert RunLedger().records() == []

    def test_discard_drops_draft(self, runs_dir):
        ledger.begin_run("fleet")
        ledger.discard_run()
        assert ledger.finish_run() is None

    def test_ledger_state_summary(self, runs_dir):
        state = ledger.ledger_state()
        assert state["records"] == 0 and state["last_run_id"] is None
        ledger.begin_run("monitor")
        ledger.finish_run()
        state = ledger.ledger_state()
        assert state["records"] == 1
        assert state["last_kind"] == "monitor"
        assert state["last_status"] == "ok"
        assert state["last_age_s"] >= 0.0


class TestRunsCli:
    def run_schedule(self):
        # `schedule` is the cheapest recorded command (pure analytics).
        # Keep the default 16-node pool: the scheduler waits forever for
        # jobs wider than the pool.
        assert main(["schedule", "--copies", "1"]) == 0

    def test_recorded_command_appends(self, capsys):
        self.run_schedule()
        (rec,) = RunLedger().records()
        assert rec.kind == "schedule"
        assert rec.status == "ok"
        assert "--copies 1" in rec.label
        assert rec.fingerprint is not None
        capsys.readouterr()

    def test_list_show_round_trip(self, capsys):
        self.run_schedule()
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        listing = capsys.readouterr().out
        rec = RunLedger().last()
        assert rec.run_id in listing
        assert "schedule" in listing
        assert main(["runs", "show", rec.run_id[:10]]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown == rec.to_json()
        assert main(["runs", "last"]) == 0
        assert json.loads(capsys.readouterr().out) == rec.to_json()

    def test_list_json_and_kind_filter(self, capsys):
        self.run_schedule()
        capsys.readouterr()
        assert main(["runs", "list", "--json", "--kind", "schedule"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 1 and data[0]["kind"] == "schedule"
        assert main(["runs", "list", "--kind", "fleet"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_diff_and_check(self, capsys):
        self.run_schedule()
        self.run_schedule()
        capsys.readouterr()
        a, b = RunLedger().records()
        assert main(["runs", "diff", a.run_id, b.run_id]) == 0
        diff_out = capsys.readouterr().out
        # Same config; only session-cache effectiveness may differ
        # (the in-process estimate cache is warmer on the second run).
        body = [line for line in diff_out.splitlines()[1:] if line.strip()]
        assert all(
            line.strip().startswith("cache.") or "equivalent" in line
            for line in body
        )
        assert main(["sentinel", "check"]) == 0
        out = capsys.readouterr().out
        assert "1 comparable run(s) — ok" in out

    def test_check_flags_wall_regression(self, capsys, monkeypatch):
        self.run_schedule()
        capsys.readouterr()
        # Forge a much-faster history (two runs: the sentinel needs a
        # baseline, and a median of one point is not one) with the same
        # fingerprint.
        book = RunLedger()
        target = book.last()
        for i in range(2):
            book.append(
                RunRecord(
                    run_id=f"00000000T00000{i}-fast0{i}",
                    kind="schedule",
                    fingerprint=target.fingerprint,
                    wall_s=target.wall_s / 100.0,
                )
            )
        assert main(["sentinel", "check", target.run_id]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_show_unknown_ref_errors(self, capsys):
        self.run_schedule()
        capsys.readouterr()
        assert main(["runs", "show", "nope"]) == 2
        assert "error" in capsys.readouterr().out

    def test_unrecorded_commands_stay_silent(self, capsys):
        assert main(["list"]) == 0
        assert RunLedger().records() == []
        capsys.readouterr()
