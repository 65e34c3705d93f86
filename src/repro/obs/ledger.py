"""Durable run ledger: every CLI run leaves a queryable JSON-lines record.

The paper's workflow joins OUTCAR timings against LDMS telemetry
*archived per run* — observability is only useful when it survives the
run.  This module gives the reproduction harness the same property: each
``repro`` engine/fleet/sweep/monitor invocation appends one structured
record (config fingerprint, platform ids, worker count, wall time,
energy totals, cache/dedupe stats, alert counts, checkpoint lineage) to
``.repro_runs/ledger.jsonl``; the ``repro runs`` CLI lists, shows and
diffs the history, and ``repro sentinel`` regression-checks it.

Durability contract: appends are a **single ``O_APPEND`` write** of one
newline-terminated line — the kernel serializes concurrent appenders, so
two ``repro`` invocations writing at once can interleave *lines* but
never bytes within a line, and an interrupted append leaves at most one
partial trailing line.  Readers skip (and warn about) any line that does
not parse — a torn tail or a corrupted line never takes the whole
history down.

Recording is **draft-based** so layers stay decoupled: the CLI opens a
draft (:func:`begin_run`), any layer underneath annotates it when a draft
happens to be open (:func:`annotate_run` is a no-op otherwise — plain
library use never writes a ledger), and the CLI seals it
(:func:`finish_run`).  ``REPRO_RUNS=0`` disables recording;
``REPRO_RUNS_DIR`` relocates the ledger directory.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from repro import obs
from repro.config import read

logger = logging.getLogger(__name__)

#: File name of the JSON-lines ledger inside the runs directory.
LEDGER_FILENAME = "ledger.jsonl"
#: On-disk record schema version.
SCHEMA_VERSION = 1


def utc_now_iso() -> str:
    """Current UTC time as a compact ISO-8601 string (``...Z``)."""
    now = datetime.now(timezone.utc)
    return now.strftime("%Y-%m-%dT%H:%M:%S.") + f"{now.microsecond // 1000:03d}Z"


def parse_iso(stamp: str) -> datetime:
    """Parse the ``utc_now_iso`` format back to an aware datetime."""
    return datetime.fromisoformat(stamp.replace("Z", "+00:00"))


def new_run_id() -> str:
    """A sortable, collision-resistant run id (UTC stamp + random hex)."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    return f"{stamp}-{os.urandom(3).hex()}"


# ----------------------------------------------------------------------
# The record
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRecord:
    """One durable run: what executed, how long, what it produced.

    Dict-valued fields are free-form per ``kind`` (e.g. ``fleet`` holds
    per-policy power/energy/checkpoint lineage); scalar fields are the
    cross-kind spine ``repro runs list`` and ``repro sentinel`` query.
    """

    run_id: str
    kind: str
    label: str = ""
    created_at: str = ""
    schema: int = SCHEMA_VERSION
    status: str = "ok"
    #: Content fingerprint of the run's configuration (None when the
    #: command annotated nothing — comparable runs share a fingerprint).
    fingerprint: str | None = None
    platforms: list[str] = field(default_factory=list)
    workers: int | None = None
    jobs: int | None = None
    nodes: int | None = None
    wall_s: float | None = None
    energy_j: float | None = None
    #: Cache effectiveness: ``{cache_name: {hits, misses, hit_rate}}``.
    cache: dict[str, Any] = field(default_factory=dict)
    #: Sweep dedupe totals for the session.
    sweeps: dict[str, Any] = field(default_factory=dict)
    #: Monitor outcome: signals/alerts counts.
    alerts: dict[str, Any] = field(default_factory=dict)
    #: Per-policy fleet results incl. checkpoint lineage.
    fleet: dict[str, Any] = field(default_factory=dict)
    #: Free-form per-kind figures (runtime, artifact, ...).
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Unknown keys from newer schema versions (round-tripped untouched).
    extra: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        """JSON-ready dict; empty optional fields are omitted."""
        data: dict[str, Any] = {}
        for fld in dataclasses.fields(self):
            value = getattr(self, fld.name)
            if fld.name == "extra":
                data.update(value)
                continue
            if value is None or value == {} or value == []:
                continue
            data[fld.name] = value
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "RunRecord":
        """Parse a ledger line; unknown keys survive in ``extra``."""
        known = {fld.name for fld in dataclasses.fields(cls)} - {"extra"}
        kwargs = {key: value for key, value in data.items() if key in known}
        extra = {key: value for key, value in data.items() if key not in known}
        return cls(extra=extra, **kwargs)

    @property
    def age_s(self) -> float | None:
        """Seconds since the record was created (None if unstamped)."""
        if not self.created_at:
            return None
        try:
            created = parse_iso(self.created_at)
        except ValueError:
            return None
        return max((datetime.now(timezone.utc) - created).total_seconds(), 0.0)


# ----------------------------------------------------------------------
# The ledger file
# ----------------------------------------------------------------------
class RunLedger:
    """Append/query interface over one JSON-lines ledger file."""

    def __init__(self, root: "str | Path | None" = None) -> None:
        self.root = read("REPRO_RUNS_DIR", root)

    @property
    def path(self) -> Path:
        """The ledger file."""
        return self.root / LEDGER_FILENAME

    def append(self, record: RunRecord) -> None:
        """Append one record as a single ``O_APPEND`` write.

        ``O_APPEND`` makes the seek-to-end + write atomic per call, so
        parallel CLI invocations appending to one ledger interleave
        whole lines — the read-modify-replace pattern this replaces
        silently dropped whichever concurrent append lost the race.
        """
        line = json.dumps(record.to_json(), sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = line.encode("utf-8")
        # A writer that died mid-line left the file without a trailing
        # newline; gluing this record onto that fragment would corrupt
        # both.  Start a fresh line instead — only the crashed record's
        # line is lost (and skipped with a warning on read).
        try:
            with open(self.path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    data = b"\n" + data
        except OSError:
            pass  # no ledger yet, or an empty one
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
        obs.inc("repro_runs_recorded_total")

    def records(self) -> list[RunRecord]:
        """All parseable records, oldest first (corrupt lines are skipped)."""
        if not self.path.is_file():
            return []
        records: list[RunRecord] = []
        for number, line in enumerate(self.path.read_text().splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise TypeError(f"expected a JSON object, got {type(data).__name__}")
                records.append(RunRecord.from_json(data))
            except (json.JSONDecodeError, TypeError) as exc:
                # A crashed writer leaves at most one partial trailing
                # line; a bit flip corrupts one line.  Either way the
                # rest of the history is intact — use it.
                logger.warning(
                    "skipping corrupt ledger line %s:%d (%s)",
                    self.path,
                    number,
                    exc,
                )
        return records

    def last(self) -> RunRecord | None:
        """The most recent record, or None."""
        records = self.records()
        return records[-1] if records else None

    def find(self, ref: str) -> RunRecord:
        """Resolve ``last`` or a unique run-id prefix to a record.

        Raises
        ------
        KeyError
            If nothing matches, or the prefix is ambiguous.
        """
        records = self.records()
        if not records:
            raise KeyError("run ledger is empty")
        if ref == "last":
            return records[-1]
        matches = [r for r in records if r.run_id.startswith(ref)]
        if not matches:
            raise KeyError(f"no run matches {ref!r}")
        if len({r.run_id for r in matches}) > 1:
            ids = ", ".join(sorted({r.run_id for r in matches})[:5])
            raise KeyError(f"run id prefix {ref!r} is ambiguous ({ids})")
        return matches[-1]


def flatten_record(record: RunRecord) -> dict[str, Any]:
    """The record as one flat ``dotted.key -> scalar`` dict (for diffs)."""

    def walk(prefix: str, value: Any, into: dict[str, Any]) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key], into)
        elif isinstance(value, (list, tuple)):
            into[prefix] = json.dumps(list(value))
        else:
            into[prefix] = value

    flat: dict[str, Any] = {}
    walk("", record.to_json(), flat)
    return flat


def diff_records(
    a: RunRecord, b: RunRecord
) -> list[tuple[str, Any, Any]]:
    """Changed fields between two records as (key, a_value, b_value).

    Identity fields (run id, timestamps, wall time) are expected to
    differ between any two runs and are therefore excluded — the diff
    highlights *configuration and outcome* changes.
    """
    skip = {"run_id", "created_at", "label", "wall_s"}
    flat_a = flatten_record(a)
    flat_b = flatten_record(b)
    changed = []
    for key in sorted(set(flat_a) | set(flat_b)):
        if key.split(".", 1)[0] in skip:
            continue
        va = flat_a.get(key)
        vb = flat_b.get(key)
        if va != vb:
            changed.append((key, va, vb))
    return changed


# ----------------------------------------------------------------------
# Draft API (the CLI opens/seals; any layer annotates)
# ----------------------------------------------------------------------
_DRAFT: dict[str, Any] | None = None
_DRAFT_START: float = 0.0


def _deep_merge(into: dict[str, Any], update: dict[str, Any]) -> None:
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(into.get(key), dict):
            _deep_merge(into[key], value)
        else:
            into[key] = value


def begin_run(kind: str, label: str = "") -> str | None:
    """Open a draft record; returns its run id (None when disabled)."""
    global _DRAFT, _DRAFT_START
    if not read("REPRO_RUNS"):
        _DRAFT = None
        return None
    _DRAFT = {
        "run_id": new_run_id(),
        "kind": kind,
        "label": label,
        "created_at": utc_now_iso(),
    }
    _DRAFT_START = time.perf_counter()
    return _DRAFT["run_id"]


def annotate_run(**fields: Any) -> None:
    """Merge fields into the open draft; silently no-op without one.

    Dict values deep-merge (so two fleet policies annotate into one
    ``fleet`` mapping); everything else overwrites.  Being a no-op
    outside a draft is what lets library layers (fleet, monitor) call
    this unconditionally without ever writing a ledger of their own.
    """
    if _DRAFT is not None:
        _deep_merge(_DRAFT, fields)


def current_run_id() -> str | None:
    """The open draft's run id, or None."""
    return _DRAFT["run_id"] if _DRAFT is not None else None


def discard_run() -> None:
    """Drop the open draft without recording it."""
    global _DRAFT
    _DRAFT = None


def finish_run(status: str = "ok") -> RunRecord | None:
    """Seal and append the open draft; returns the record (None if none).

    A failing append (read-only ledger dir, full disk) is logged and
    swallowed — the ledger must never take a successful run down with it.
    """
    global _DRAFT
    draft = _DRAFT
    _DRAFT = None
    if draft is None:
        return None
    draft.setdefault("wall_s", round(time.perf_counter() - _DRAFT_START, 6))
    draft["status"] = status
    record = RunRecord.from_json(draft)
    try:
        RunLedger().append(record)
    except OSError as exc:
        logger.warning("run ledger append failed (%s); record dropped", exc)
        return None
    return record


def ledger_state() -> dict[str, Any]:
    """A JSON-ready summary for ``repro obs``: records, last run, age."""
    ledger = RunLedger()
    records = ledger.records()
    state: dict[str, Any] = {
        "enabled": read("REPRO_RUNS"),
        "path": str(ledger.path),
        "records": len(records),
        "last_run_id": None,
        "last_kind": None,
        "last_status": None,
        "last_age_s": None,
    }
    if records:
        last = records[-1]
        state["last_run_id"] = last.run_id
        state["last_kind"] = last.kind
        state["last_status"] = last.status
        state["last_age_s"] = last.age_s
    return state
