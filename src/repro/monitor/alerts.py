"""Alert rules over health signals.

A raw health signal is a single observation; an *alert* is a judgement
that the condition is real.  :data:`RULES` maps each signal kind to its
alerting behaviour (how many signals fire it, how long a quiet period
resolves it), and :class:`AlertManager` runs the firing/resolved
lifecycle, keeps a JSON-ready event log, and exports the state through
``repro.obs``.

Everything is driven by simulation time carried on the signals — never
the wall clock — so alert sequences are as deterministic as the runs
that produce them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.monitor.health import HealthSignal

#: Severity ordering for report sorting (highest first).
SEVERITIES = ("critical", "warning", "info")


@dataclass(frozen=True)
class AlertRule:
    """One rule: signal kind -> alerting behaviour.

    The ``min_count``-th signal of the rule's kind on one node fires the
    alert (debounce).  A :meth:`AlertManager.sweep` at least
    ``clear_quiet_s`` after a node's last signal resolves a firing alert
    and forgets an unfired streak.  The fleet monitor sweeps once, at
    finalize, ``max(clear_quiet_s)`` past the horizon: within a run the
    streak counts every signal since the start, not consecutive ones,
    and every firing alert resolves at the end of the run.
    """

    name: str
    signal: str
    severity: str
    min_count: int
    clear_quiet_s: float


#: The standing rule set a facility would run with: one rule per
#: signal kind.
RULES: tuple[AlertRule, ...] = (
    AlertRule("idle-power-outlier", "idle_outlier", "warning", 1, 300.0),
    AlertRule("power-cap-violation", "cap_violation", "critical", 2, 60.0),
    AlertRule("heavy-throttling", "throttle_residency", "info", 1, 600.0),
    AlertRule("sampler-stale", "sampler_staleness", "warning", 1, 120.0),
    AlertRule("node-power-drift", "fleet_drift", "warning", 1, 600.0),
)

_RULE_BY_SIGNAL = {rule.signal: rule for rule in RULES}
_RULE_BY_NAME = {rule.name: rule for rule in RULES}


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
    """Evaluates :data:`RULES` against a signal stream; owns the event log."""

    def __init__(self) -> None:
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
        """Fold one signal through the rule watching its kind."""
        self.signals_processed += 1
        rule = _RULE_BY_SIGNAL[signal.kind]
        state = self._state.setdefault((rule.name, signal.node_name), _AlertState())
        state.count += 1
        state.last_signal_s = signal.time_s
        state.last_value = signal.value
        if state.firing or state.count < rule.min_count:
            return []
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
        obs.inc("repro_monitor_alerts_total", severity=rule.severity)
        obs.gauge_set("repro_monitor_alerts_firing", float(self.firing_count))
        self._stream([event])
        return [event]

    def process_all(self, signals: list[HealthSignal]) -> list[AlertEvent]:
        """Process a batch of signals; returns the newly fired events."""
        fired = []
        for signal in signals:
            fired.extend(self.process(signal))
        return fired

    def sweep(self, now_s: float) -> list[AlertEvent]:
        """Resolve alerts whose rule's quiet period has elapsed."""
        resolved = []
        for (rule_name, node_name), state in sorted(self._state.items()):
            rule = _RULE_BY_NAME[rule_name]
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
