"""Live terminal dashboard for running fleet simulations (``repro top``).

A sharded 100k-node run publishes heartbeat snapshots
(:mod:`repro.obs.heartbeat`), streams alert lifecycle events to the
monitor's JSON-lines log, and seals a ledger record at exit — but each
of those is a file you have to go read.  ``repro top`` is the single
pane of glass: it tails every heartbeat under the configured base path
(the ``.capped`` / ``.uncapped`` per-policy suffixes the fleet CLI
writes), the most recent alert events, and — optionally — a metrics
snapshot, re-rendering a compact text dashboard once per interval until
the run finishes.  On completion it asks the regression sentinel
(:mod:`repro.obs.sentinel`) for a verdict on the freshly-sealed ledger
record, closing the record → detect → watch loop in one screen.

Everything is read-only over atomically-replaced or append-only files,
so the dashboard can run in a second terminal (or a scraper can call
``repro top --once --json``) without perturbing the simulation — the
same observation-only contract as every other obs layer.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, TextIO

from repro import obs
from repro.config import read
from repro.obs import ledger as run_ledger
from repro.obs import sentinel
from repro.obs.heartbeat import policy_paths

#: Alert events shown in the feed.
DEFAULT_ALERT_TAIL = 8
#: A heartbeat older than this (vs file mtime) is flagged as stale.
STALE_AFTER_S = 30.0


def discover_heartbeats(base: "str | Path | None") -> list[Path]:
    """Existing heartbeat files at ``base`` and its per-policy suffixes."""
    if base is None:
        return []
    return [path for path in policy_paths(Path(base)) if path.is_file()]


def _read_json(path: Path) -> dict[str, Any] | None:
    """Parse a JSON file, tolerating mid-replace races and corruption."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


def tail_alert_events(
    path: "str | Path | None", limit: int = DEFAULT_ALERT_TAIL
) -> tuple[list[dict[str, Any]], int]:
    """(last ``limit`` alert events, currently-firing count).

    The alert log is JSON lines appended live as alerts fire and
    resolve; a partially-written tail line (we raced the writer) is
    skipped, like the run ledger's reader.  Firing count is replayed
    from the full event stream: fired minus resolved per (rule, node).
    """
    if path is None:
        return [], 0
    path = Path(path)
    if not path.is_file():
        return [], 0
    events: list[dict[str, Any]] = []
    firing: set[tuple[str, str]] = set()
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return [], 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail from the live appender
        if not isinstance(event, dict):
            continue
        events.append(event)
        key = (str(event.get("rule")), str(event.get("node")))
        if event.get("event") == "firing":
            firing.add(key)
        elif event.get("event") == "resolved":
            firing.discard(key)
    return events[-limit:], len(firing)


def _metrics_snapshot(metrics_path: "str | Path | None") -> dict[str, Any] | None:
    """The in-process registry snapshot, or an exported ``.json`` one."""
    registry = obs.metrics()
    if registry is not None:
        return registry.to_json()
    if metrics_path is None:
        return None
    path = Path(metrics_path)
    if path.suffix.lower() != ".json" or not path.is_file():
        return None
    return _read_json(path)


@dataclass(frozen=True)
class DashSnapshot:
    """One collected dashboard frame (everything ``repro top`` shows)."""

    heartbeats: list[dict[str, Any]] = field(default_factory=list)
    alerts: list[dict[str, Any]] = field(default_factory=list)
    alerts_firing: int = 0
    metrics: dict[str, Any] | None = None
    last_run: dict[str, Any] | None = None
    #: Sentinel verdict over the last ledger record; None until the run
    #: completes (the record only exists once the CLI seals it).
    sentinel: dict[str, Any] | None = None
    updated_at: str = ""

    @property
    def done(self) -> bool:
        """True when every discovered heartbeat reports completion."""
        return bool(self.heartbeats) and all(
            h.get("done") for h in self.heartbeats
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "heartbeats": self.heartbeats,
            "alerts": self.alerts,
            "alerts_firing": self.alerts_firing,
            "metrics": self.metrics,
            "last_run": self.last_run,
            "sentinel": self.sentinel,
            "done": self.done,
            "updated_at": self.updated_at,
        }


def sentinel_verdict(
    ledger_root: "str | Path | None" = None,
    *,
    tolerance: float = sentinel.DEFAULT_TOLERANCE,
    min_history: int = sentinel.DEFAULT_MIN_HISTORY,
) -> dict[str, Any] | None:
    """Sentinel check of the most recent ledger record (None when empty)."""
    ledger = run_ledger.RunLedger(ledger_root)
    records = ledger.records()
    if not records:
        return None
    target = records[-1]
    findings, history = sentinel.check_target(
        records, target, tolerance=tolerance, min_history=min_history
    )
    return {
        "run_id": target.run_id,
        "kind": target.kind,
        "history": history,
        "verdict": "REGRESSED" if findings else "ok",
        "findings": [finding.message for finding in findings],
    }


def collect_snapshot(
    heartbeat: "str | Path | None" = None,
    *,
    alert_log: "str | Path | None" = None,
    metrics_path: "str | Path | None" = None,
    ledger_root: "str | Path | None" = None,
    alert_tail: int = DEFAULT_ALERT_TAIL,
    now: Callable[[], float] = time.time,
) -> DashSnapshot:
    """Gather one dashboard frame from every available source.

    Missing sources are simply absent from the snapshot — a dashboard
    pointed at a run that has not started yet is empty, not an error.
    """
    base = read("REPRO_FLEET_HEARTBEAT", heartbeat)
    beats = []
    for path in discover_heartbeats(base):
        data = _read_json(path)
        if data is None:
            continue
        try:
            data["stale_s"] = round(max(now() - path.stat().st_mtime, 0.0), 3)
        except OSError:
            data["stale_s"] = None
        data["path"] = str(path)
        beats.append(data)
    alerts, firing = tail_alert_events(alert_log, alert_tail)
    snapshot = DashSnapshot(
        heartbeats=beats,
        alerts=alerts,
        alerts_firing=firing,
        metrics=_metrics_snapshot(metrics_path),
        last_run=None,
        sentinel=None,
        updated_at=run_ledger.utc_now_iso(),
    )
    if snapshot.done:
        # The run is over: the CLI has sealed (or is about to seal) its
        # ledger record — surface the sentinel's view of it.
        verdict = sentinel_verdict(ledger_root)
        if verdict is not None:
            ledger = run_ledger.RunLedger(ledger_root)
            last = ledger.last()
            snapshot = DashSnapshot(
                heartbeats=snapshot.heartbeats,
                alerts=snapshot.alerts,
                alerts_firing=snapshot.alerts_firing,
                metrics=snapshot.metrics,
                last_run=last.to_json() if last is not None else None,
                sentinel=verdict,
                updated_at=snapshot.updated_at,
            )
    return snapshot


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _bar(fraction: float, width: int = 28) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def _fmt_eta(eta_s: Any) -> str:
    if not isinstance(eta_s, (int, float)):
        return "--"
    if eta_s >= 3600:
        return f"{eta_s / 3600:.1f} h"
    if eta_s >= 120:
        return f"{eta_s / 60:.1f} min"
    return f"{eta_s:.0f} s"


def render_snapshot(snapshot: DashSnapshot) -> str:
    """The dashboard frame as plain text (no ANSI colour, pipe-safe)."""
    lines = [f"repro top — {snapshot.updated_at}"]
    if not snapshot.heartbeats:
        lines.append("  (no heartbeat found — is the fleet run publishing one?)")
    for beat in snapshot.heartbeats:
        label = beat.get("label", "?")
        progress = float(beat.get("progress", 0.0) or 0.0)
        rate = beat.get("nodes_per_s")
        stale = beat.get("stale_s")
        stale_note = (
            "  STALE"
            if isinstance(stale, (int, float)) and stale > STALE_AFTER_S
            and not beat.get("done")
            else ""
        )
        lines.append(
            f"  {label:24s} [{_bar(progress)}] {progress:6.1%}"
            f"  jobs {beat.get('jobs_folded', 0)}/{beat.get('jobs_total', 0)}"
            f"  {rate if isinstance(rate, (int, float)) else 0.0:,.0f} nodes/s"
            f"  ETA {_fmt_eta(beat.get('eta_s'))}"
            + (
                f"  ckpt {beat['checkpoint_age_s']:.0f} s"
                if isinstance(beat.get("checkpoint_age_s"), (int, float))
                else ""
            )
            + ("  done" if beat.get("done") else "")
            + stale_note
        )
    if snapshot.alerts or snapshot.alerts_firing:
        lines.append(f"  alerts ({snapshot.alerts_firing} firing):")
        for event in snapshot.alerts:
            lines.append(
                f"    {event.get('event', '?'):9s}"
                f" {event.get('severity', '?'):8s}"
                f" {event.get('rule', '?'):22s}"
                f" {event.get('node', '?'):12s}"
                f" t={event.get('time_s', 0)}"
            )
    if snapshot.metrics:
        interesting = [
            (name, data)
            for name, data in sorted(snapshot.metrics.items())
            if data.get("type") in {"counter", "gauge"}
        ][:6]
        if interesting:
            lines.append("  metrics:")
            for name, data in interesting:
                total = sum(
                    v for v in data.get("values", {}).values()
                    if isinstance(v, (int, float))
                )
                lines.append(f"    {name:40s} {total:,.0f}")
    if snapshot.sentinel is not None:
        verdict = snapshot.sentinel
        lines.append(
            f"  sentinel: run {verdict['run_id']} ({verdict['kind']}) "
            f"vs {verdict['history']} comparable run(s) — {verdict['verdict']}"
        )
        for finding in verdict["findings"]:
            lines.append(f"    ! {finding}")
    return "\n".join(lines) + "\n"


def run_dashboard(
    heartbeat: "str | Path | None" = None,
    *,
    alert_log: "str | Path | None" = None,
    metrics_path: "str | Path | None" = None,
    ledger_root: "str | Path | None" = None,
    interval_s: float = 1.0,
    once: bool = False,
    json_out: bool = False,
    duration_s: float | None = None,
    stream: TextIO | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """The ``repro top`` loop: collect, render, repeat until done.

    ``once`` collects and renders a single frame (``json_out`` emits the
    raw snapshot instead — the scripting interface).  Live mode redraws
    every ``interval_s`` seconds until every heartbeat reports done (or
    ``duration_s`` elapses), then leaves the final frame — with the
    sentinel verdict — on screen.  Returns 0, or 2 when a single-shot
    render found no heartbeat at all.
    """
    out = stream if stream is not None else sys.stdout
    deadline = (
        time.monotonic() + duration_s if duration_s is not None else None
    )
    clear = "\x1b[H\x1b[2J" if (not once and out.isatty()) else ""
    while True:
        snapshot = collect_snapshot(
            heartbeat,
            alert_log=alert_log,
            metrics_path=metrics_path,
            ledger_root=ledger_root,
        )
        if json_out:
            out.write(json.dumps(snapshot.to_json(), sort_keys=True) + "\n")
        else:
            out.write(clear + render_snapshot(snapshot))
        out.flush()
        if once:
            return 0 if snapshot.heartbeats else 2
        if snapshot.done:
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            return 0
        sleep(interval_s)
