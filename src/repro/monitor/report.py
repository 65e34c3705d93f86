"""Frozen monitor output: the health dashboard and power report.

:class:`MonitorReport` is the immutable snapshot a
:class:`~repro.monitor.collector.FleetMonitor` produces at finalize —
everything the operator-facing surfaces (``repro monitor``, ``repro
fleet --monitor``) need, with no live references back into the
collector.  :func:`render_dashboard` renders it as the text dashboard;
``to_json`` is the machine-readable form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.monitor.alerts import SEVERITIES, AlertEvent
from repro.monitor.health import SIGNAL_KINDS, HealthSignal


@dataclass(frozen=True)
class NodeSummary:
    """Per-node rollup of observed node power."""

    node_name: str
    samples: int
    mean_w: float
    peak_w: float
    last_seen_s: float

    def to_json(self) -> dict[str, object]:
        """JSON-ready row."""
        return {
            "node": self.node_name,
            "samples": self.samples,
            "mean_w": round(self.mean_w, 3),
            "peak_w": round(self.peak_w, 3),
            "last_seen_s": (
                round(self.last_seen_s, 3)
                if self.last_seen_s != -float("inf")
                else None
            ),
        }


@dataclass(frozen=True)
class MonitorReport:
    """Everything a finished monitoring session observed."""

    label: str
    horizon_s: float
    nodes_watched: int
    chunks_observed: int
    samples_observed: int
    signal_counts: dict[str, int]
    signals: tuple[HealthSignal, ...]
    alert_events: tuple[AlertEvent, ...]
    #: The energy ledger's ``to_json()`` payload (jobs + totals).
    energy: dict[str, object]
    nodes: tuple[NodeSummary, ...]

    @property
    def total_signals(self) -> int:
        """Health signals emitted across all kinds."""
        return sum(self.signal_counts.values())

    @property
    def distinct_signal_kinds(self) -> int:
        """How many of the signal kinds actually fired."""
        return sum(1 for count in self.signal_counts.values() if count > 0)

    @property
    def alerts_fired(self) -> int:
        """Alert lifecycle transitions into the firing state."""
        return sum(1 for event in self.alert_events if event.event == "firing")

    @property
    def alerts_resolved(self) -> int:
        """Alert lifecycle transitions into the resolved state."""
        return sum(1 for event in self.alert_events if event.event == "resolved")

    def to_json(self) -> dict[str, object]:
        """The whole report as JSON-ready data."""
        return {
            "label": self.label,
            "horizon_s": round(self.horizon_s, 3),
            "nodes_watched": self.nodes_watched,
            "chunks_observed": self.chunks_observed,
            "samples_observed": self.samples_observed,
            "signal_counts": dict(self.signal_counts),
            "signals": [signal.to_json() for signal in self.signals],
            "alerts": [event.to_json() for event in self.alert_events],
            "energy": self.energy,
            "nodes": [node.to_json() for node in self.nodes],
        }

    def export_json(self, path: str | Path) -> Path:
        """Write the JSON report; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path

    def ledger_summary(self) -> dict[str, object]:
        """Compact alert/signal counts for the run ledger's ``alerts`` field."""
        totals = self.energy.get("totals", {}) if self.energy else {}
        return {
            "signals": self.total_signals,
            "signal_kinds": self.distinct_signal_kinds,
            "fired": self.alerts_fired,
            "resolved": self.alerts_resolved,
            "nodes_watched": self.nodes_watched,
            "energy_j": totals.get("energy_j"),
        }


def render_dashboard(report: MonitorReport, max_rows: int = 10) -> str:
    """The operator-facing text dashboard for one monitoring session."""
    lines = [
        f"fleet monitor: {report.label}",
        f"  horizon           {report.horizon_s:,.0f} s",
        f"  nodes watched     {report.nodes_watched}",
        f"  chunks observed   {report.chunks_observed:,}",
        f"  samples observed  {report.samples_observed:,}",
        "",
        "health signals",
    ]
    for kind in SIGNAL_KINDS:
        count = report.signal_counts.get(kind, 0)
        marker = "!" if count else " "
        lines.append(f"  {marker} {kind:<18} {count:>6d}")

    lines.append("")
    lines.append(
        f"alerts ({report.alerts_fired} fired, {report.alerts_resolved} resolved)"
    )
    recent = sorted(
        report.alert_events,
        key=lambda e: (SEVERITIES.index(e.severity), -e.time_s),
    )[:max_rows]
    if recent:
        for event in recent:
            lines.append(
                f"  [{event.severity:>8}] {event.event:<8} {event.rule:<22} "
                f"{event.node_name:<16} t={event.time_s:,.0f}s"
            )
        if len(report.alert_events) > max_rows:
            lines.append(f"  ... {len(report.alert_events) - max_rows} more")
    else:
        lines.append("  (none)")

    lines.append("")
    totals = report.energy.get("totals", {})
    jobs = report.energy.get("jobs", [])
    lines.append(f"energy accounting ({totals.get('jobs', 0)} jobs)")
    if jobs:
        lines.append(
            f"  {'job':<22} {'nodes':>5} {'cap(W)':>7} {'energy(MJ)':>11} "
            f"{'cap-res':>8} {'slowdown':>9}"
        )
        ranked = sorted(jobs, key=lambda j: -float(j.get("energy_j", 0.0)))
        for job in ranked[:max_rows]:
            lines.append(
                f"  {str(job['job_id']):<22} {int(job['n_nodes']):>5d} "
                f"{float(job['cap_w']):>7.0f} "
                f"{float(job['energy_j']) / 1e6:>11.3f} "
                f"{float(job['cap_residency']):>7.1%} "
                f"{float(job['cap_slowdown']):>8.2f}x"
            )
        if len(jobs) > max_rows:
            lines.append(f"  ... {len(jobs) - max_rows} more")
        lines.append(
            f"  total {float(totals.get('energy_mj', 0.0)):.2f} MJ over "
            f"{float(totals.get('node_seconds', 0.0)):,.0f} node-seconds "
            f"({float(totals.get('cap_limited_seconds', 0.0)):,.0f} "
            f"cap-limited GPU-seconds)"
        )
    else:
        lines.append("  (no jobs accounted)")

    if report.nodes:
        lines.append("")
        lines.append("hottest nodes (by mean node power)")
        hottest = sorted(report.nodes, key=lambda n: -n.mean_w)[:max_rows]
        for node in hottest:
            lines.append(
                f"  {node.node_name:<16} mean {node.mean_w:>7.0f} W  "
                f"peak {node.peak_w:>7.0f} W  ({node.samples:,} samples)"
            )
    return "\n".join(lines)
