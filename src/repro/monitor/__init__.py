"""``repro.monitor`` — fleet health monitoring.

A streaming health monitor over the simulated fleet's power telemetry:
incremental per-node moments, derived health signals — idle-power
outliers, cap violations, throttle residency, sampler staleness, fleet
drift (:mod:`~repro.monitor.health`) — an alert engine over one
constant rule table with a JSON-lines log sink
(:mod:`~repro.monitor.alerts`), and per-job energy accounting rendered
as text/JSON power reports (:mod:`~repro.monitor.energy`).

:class:`FleetMonitor` ties it together; its whole input is the hardware
platform, the alert-log path and a label.  Engine chunk streams reach
it one way — per-job ``JobProbe`` partials: the fleet render loop hands
each chunk of ``simulate_fleet_traced(run, monitor=...)`` to the job's
probe, and ``FleetMonitor.observe_run`` replays retained traces
through one.  The collector is observation-only: monitored runs are
bit-identical to unmonitored ones.

Environment variable: ``REPRO_MONITOR_LOG`` (alert-log JSON-lines sink;
``repro fleet --monitor`` writes one log per policy, at the
``.capped`` / ``.uncapped`` suffixes of that path).
"""

from repro.monitor.alerts import (
    RULES,
    SEVERITIES,
    AlertEvent,
    AlertManager,
    AlertRule,
)
from repro.monitor.collector import FleetMonitor
from repro.monitor.energy import EnergyLedger, JobEnergyAccount
from repro.monitor.health import (
    SIGNAL_KINDS,
    CapMonitor,
    CapUsage,
    DriftDetector,
    HealthSignal,
    IdleOutlierDetector,
    StalenessDetector,
)
from repro.monitor.report import MonitorReport, NodeSummary, render_dashboard

__all__ = [
    "RULES",
    "SEVERITIES",
    "SIGNAL_KINDS",
    "AlertEvent",
    "AlertManager",
    "AlertRule",
    "CapMonitor",
    "CapUsage",
    "DriftDetector",
    "EnergyLedger",
    "FleetMonitor",
    "HealthSignal",
    "IdleOutlierDetector",
    "JobEnergyAccount",
    "MonitorReport",
    "NodeSummary",
    "StalenessDetector",
    "render_dashboard",
]
