"""Declarative alert rules over health signals.

A raw health signal is a single observation; an *alert* is a judgement
that the condition is real and persistent.  :class:`AlertRule` declares
the mapping (which signal kind, how many consecutive observations to
debounce, how long a quiet period resolves it — the hysteresis that
stops a flapping node from paging every sample), and
:class:`AlertManager` runs the firing/resolved lifecycle, keeps a
JSON-ready event log, and exports the state through ``repro.obs``.

Everything is driven by simulation time carried on the signals — never
the wall clock — so alert sequences are as deterministic as the runs
that produce them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.monitor.health import SIGNAL_KINDS, HealthSignal

#: Severity ordering for report sorting (highest first).
SEVERITIES = ("critical", "warning", "info")


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule: signal kind -> alerting behaviour.

    ``min_count`` consecutive signals (per node) are required to fire
    (debounce); after firing, ``clear_quiet_s`` of silence resolves the
    alert (hysteresis).  ``min_value`` optionally ignores signals whose
    measured value is below it — e.g. only alert on z-drift beyond 3.0
    even though the detector reports at 2.5.
    """

    name: str
    signal: str
    severity: str = "warning"
    min_count: int = 1
    clear_quiet_s: float = 60.0
    min_value: float | None = None

    def __post_init__(self) -> None:
        if self.signal not in SIGNAL_KINDS:
            raise ValueError(
                f"rule {self.name!r} watches unknown signal {self.signal!r}; "
                f"known: {', '.join(SIGNAL_KINDS)}"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"rule {self.name!r} has unknown severity {self.severity!r}"
            )
        if self.min_count < 1:
            raise ValueError(f"rule {self.name!r}: min_count must be >= 1")
        if self.clear_quiet_s <= 0:
            raise ValueError(f"rule {self.name!r}: clear_quiet_s must be positive")


def default_rules() -> list[AlertRule]:
    """The standing rule set a facility would run with."""
    return [
        AlertRule(
            name="idle-power-outlier",
            signal="idle_outlier",
            severity="warning",
            min_count=1,
            clear_quiet_s=300.0,
        ),
        AlertRule(
            name="power-cap-violation",
            signal="cap_violation",
            severity="critical",
            min_count=2,
            clear_quiet_s=60.0,
        ),
        AlertRule(
            name="heavy-throttling",
            signal="throttle_residency",
            severity="info",
            min_count=1,
            clear_quiet_s=600.0,
        ),
        AlertRule(
            name="sampler-stale",
            signal="sampler_staleness",
            severity="warning",
            min_count=1,
            clear_quiet_s=120.0,
        ),
        AlertRule(
            name="node-power-drift",
            signal="fleet_drift",
            severity="warning",
            min_count=1,
            clear_quiet_s=600.0,
        ),
    ]


@dataclass
class _AlertState:
    """Lifecycle state of one (rule, node) pair."""

    count: int = 0
    firing: bool = False
    last_signal_s: float = -float("inf")
    fired_s: float | None = None
    last_value: float = 0.0


@dataclass(frozen=True)
class AlertEvent:
    """One lifecycle transition (firing or resolved)."""

    event: str  # "firing" | "resolved"
    rule: str
    severity: str
    node_name: str
    time_s: float
    value: float
    detail: str = ""

    def to_json(self) -> dict[str, object]:
        """JSON-ready record for the alert log sink."""
        return {
            "event": self.event,
            "rule": self.rule,
            "severity": self.severity,
            "node": self.node_name,
            "time_s": round(self.time_s, 3),
            "value": round(self.value, 3),
            "detail": self.detail,
        }


class AlertManager:
    """Evaluates rules against a signal stream; owns the event log."""

    def __init__(self, rules: list[AlertRule] | None = None) -> None:
        self.rules = list(rules) if rules is not None else default_rules()
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate rule names: {sorted(names)}")
        self._by_signal: dict[str, list[AlertRule]] = {}
        for rule in self.rules:
            self._by_signal.setdefault(rule.signal, []).append(rule)
        self._state: dict[tuple[str, str], _AlertState] = {}
        self.events: list[AlertEvent] = []
        self.signals_processed = 0
        self._stream_path: Path | None = None

    # ------------------------------------------------------------------
    def stream_to(self, path: "str | Path | None") -> None:
        """Append lifecycle events to ``path`` (JSON lines) as they happen.

        This is the live tap ``repro top`` tails mid-run: each firing or
        resolved event is appended with a single ``O_APPEND`` write the
        moment it happens, so an observer process sees alerts while the
        simulation is still going.  Every event is streamed in the order
        it joins :attr:`events`, so the finished file is the whole log.
        The file is truncated now so the stream starts clean.
        """
        self._stream_path = Path(path) if path is not None else None
        if self._stream_path is not None:
            try:
                self._stream_path.write_text("")
            except OSError:
                self._stream_path = None

    def _stream(self, events: list[AlertEvent]) -> None:
        if self._stream_path is None or not events:
            return
        payload = "".join(
            json.dumps(event.to_json()) + "\n" for event in events
        )
        try:
            fd = os.open(
                self._stream_path,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            try:
                os.write(fd, payload.encode("utf-8"))
            finally:
                os.close(fd)
        except OSError:
            # A broken live tap must never take down the run.
            pass

    # ------------------------------------------------------------------
    def process(self, signal: HealthSignal) -> list[AlertEvent]:
        """Fold one signal through every rule watching its kind."""
        self.signals_processed += 1
        fired: list[AlertEvent] = []
        for rule in self._by_signal.get(signal.kind, ()):
            if rule.min_value is not None and abs(signal.value) < rule.min_value:
                continue
            key = (rule.name, signal.node_name)
            state = self._state.setdefault(key, _AlertState())
            state.count += 1
            state.last_signal_s = signal.time_s
            state.last_value = signal.value
            if not state.firing and state.count >= rule.min_count:
                state.firing = True
                state.fired_s = signal.time_s
                event = AlertEvent(
                    event="firing",
                    rule=rule.name,
                    severity=rule.severity,
                    node_name=signal.node_name,
                    time_s=signal.time_s,
                    value=signal.value,
                    detail=signal.detail,
                )
                self.events.append(event)
                fired.append(event)
                obs.inc("repro_monitor_alerts_total", severity=rule.severity)
        if fired:
            obs.gauge_set("repro_monitor_alerts_firing", float(self.firing_count))
            self._stream(fired)
        return fired

    def process_all(self, signals: list[HealthSignal]) -> list[AlertEvent]:
        """Process a batch of signals; returns the newly fired events."""
        fired = []
        for signal in signals:
            fired.extend(self.process(signal))
        return fired

    def sweep(self, now_s: float) -> list[AlertEvent]:
        """Resolve alerts whose rule's quiet period has elapsed."""
        rules = {r.name: r for r in self.rules}
        resolved = []
        for (rule_name, node_name), state in sorted(self._state.items()):
            rule = rules[rule_name]
            if state.firing and now_s - state.last_signal_s >= rule.clear_quiet_s:
                state.firing = False
                state.count = 0
                event = AlertEvent(
                    event="resolved",
                    rule=rule_name,
                    severity=rule.severity,
                    node_name=node_name,
                    time_s=now_s,
                    value=state.last_value,
                    detail=f"quiet for {now_s - state.last_signal_s:.0f} s",
                )
                self.events.append(event)
                resolved.append(event)
            elif not state.firing and now_s - state.last_signal_s >= rule.clear_quiet_s:
                # Debounce window expired without firing: forget the streak.
                state.count = 0
        if resolved:
            obs.gauge_set("repro_monitor_alerts_firing", float(self.firing_count))
            self._stream(resolved)
        return resolved

    # ------------------------------------------------------------------
    @property
    def firing_count(self) -> int:
        """Alerts currently in the firing state."""
        return sum(1 for state in self._state.values() if state.firing)

    def firing(self) -> list[tuple[str, str, AlertRule]]:
        """(rule name, node, rule) for every currently-firing alert,
        ordered by severity then name."""
        rules = {r.name: r for r in self.rules}
        active = [
            (rule_name, node_name, rules[rule_name])
            for (rule_name, node_name), state in self._state.items()
            if state.firing
        ]
        return sorted(
            active, key=lambda item: (SEVERITIES.index(item[2].severity), item[0], item[1])
        )

    def write_log(self, path: str | Path) -> Path:
        """Write the event log as JSON lines; returns the path."""
        path = Path(path)
        lines = [json.dumps(event.to_json()) for event in self.events]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path
