"""``repro.monitor`` — OMNI-style fleet telemetry pipeline.

A streaming health monitor over the simulated fleet's power telemetry:
incremental per-node moments, derived health signals — idle-power
outliers, cap violations, throttle residency, sampler staleness, fleet
drift (:mod:`~repro.monitor.health`) — a declarative alert-rules engine
with debounce/hysteresis and a JSON log sink
(:mod:`~repro.monitor.alerts`), and per-job energy accounting rendered
as text/JSON power reports (:mod:`~repro.monitor.energy`).

:class:`FleetMonitor` ties it together.  Engine chunk streams reach it
one way — per-job ``JobProbe`` partials, from
``simulate_fleet_traced(monitor=...)`` or ``FleetMonitor.observe_run`` —
and stored telemetry through OmniStore ingest.  The collector is
observation-only: monitored runs are bit-identical to unmonitored ones.

Environment variables: ``REPRO_MONITOR`` (ambient CLI monitoring) and
``REPRO_MONITOR_LOG`` (alert-log JSON-lines sink).
"""

from repro.monitor.alerts import (
    SEVERITIES,
    AlertEvent,
    AlertManager,
    AlertRule,
    default_rules,
)
from repro.monitor.collector import (
    MONITOR_ENV,
    MONITOR_LOG_ENV,
    FleetMonitor,
    MonitorConfig,
    monitor_state,
    monitoring_requested,
    reset_monitor_state,
)
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
    "SEVERITIES",
    "SIGNAL_KINDS",
    "MONITOR_ENV",
    "MONITOR_LOG_ENV",
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
    "MonitorConfig",
    "MonitorReport",
    "NodeSummary",
    "StalenessDetector",
    "default_rules",
    "monitor_state",
    "monitoring_requested",
    "render_dashboard",
    "reset_monitor_state",
]
