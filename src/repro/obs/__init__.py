"""``repro.obs`` — tracing, metrics and runtime introspection.

The paper's contribution is telemetry *about jobs*; this subsystem is the
same idea turned inward — telemetry about the reproduction harness.  It
has three parts:

* :mod:`repro.obs.trace` — nested spans with a Chrome trace-event
  (``chrome://tracing`` / Perfetto) JSON exporter;
* :mod:`repro.obs.metrics` — counters / gauges / histograms with
  Prometheus text-exposition and JSON snapshot exporters;
* :mod:`repro.obs.logconf` — stdlib logging wiring (``REPRO_LOG``);
* :mod:`repro.obs.merge` — cross-process capture: workers record into a
  fresh tracer/registry and ship an ``ObsPartial`` back with their
  results, folded into the coordinator's state (sharded fleet runs stay
  fully observable);
* :func:`register_stats` — cache, sweep and surrogate counts, kept once
  in their stats objects and rendered as counters by every export;
* :mod:`repro.obs.ledger` — durable JSON-lines run ledger
  (``.repro_runs/``, the ``repro runs`` CLI);
* :mod:`repro.obs.heartbeat` — live progress telemetry for long fleet
  runs (``REPRO_FLEET_HEARTBEAT`` / ``--heartbeat``);
* :mod:`repro.obs.profile` — exact span self times, a view of the
  trace (``REPRO_PROFILE`` / ``--profile``);
* :mod:`repro.obs.sentinel` — ledger-mining regression sentinel
  (``repro sentinel check/report/baseline``);
* :mod:`repro.obs.dash` — live fleet dashboard (``repro top``).

This module owns the *global observability state* and the cheap
module-level helpers the hot layers call:

``obs.span(name, **args)``
    Context manager; a shared no-op when tracing is disabled.
``obs.inc(name, amount, **labels)`` / ``obs.gauge_set`` / ``obs.observe``
    Metric updates; single ``None``-check no-ops when disabled.

Activation (all default **off**):

* environment — ``REPRO_TRACE=FILE`` enables tracing and writes the
  Chrome JSON to FILE at exit via :func:`flush`; ``REPRO_METRICS=FILE``
  likewise for metrics (``.json`` suffix selects the JSON snapshot,
  anything else Prometheus text); ``REPRO_PROFILE=FILE`` turns tracing on
  and writes the trace's span self times to FILE
  (``.speedscope``/``.json``, ``.folded`` or ``.txt``);
  ``REPRO_LOG=LEVEL`` configures logging.  The variables are declared
  and parsed in :mod:`repro.config`; a switch word such as ``1`` is
  never taken as a file name, and a set ``REPRO_*`` name the table does
  not know is named in a warning once, at import.
* CLI — ``repro ... --trace FILE --metrics FILE --profile FILE
  --log-level LEVEL``.
* programmatic — :func:`enable` / :func:`disable`.

Instrumentation is observation-only: enabling it never changes a
computed result (``EXPERIMENTS.md`` regenerates byte-identical with
tracing on).
"""

from __future__ import annotations

import atexit
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.config import read, unknown_names
from repro.obs.logconf import configure_logging, get_logger, reset_logging
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    register_stats,
)
from repro.obs.profile import export_profile, span_self_times
from repro.obs.trace import NULL_SPAN, TraceEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceEvent",
    "Tracer",
    "configure_from_env",
    "configure_logging",
    "disable",
    "enable",
    "flush",
    "gauge_set",
    "get_logger",
    "inc",
    "metrics",
    "name_process",
    "name_thread",
    "observe",
    "register_stats",
    "reset_logging",
    "span",
    "status",
    "tracer",
    "tracing_active",
]

@dataclass
class _ObsState:
    """The process-wide observability configuration."""

    tracer: Tracer | None = None
    registry: MetricsRegistry | None = None
    trace_path: Path | None = None
    metrics_path: Path | None = None
    profile_path: Path | None = None


_STATE = _ObsState()


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------
def enable(
    trace: bool | str | Path = False,
    metrics: bool | str | Path = False,
    log_level: str | int | None = None,
    profile: bool | str | Path = False,
) -> None:
    """Turn observability layers on.

    ``trace`` / ``metrics`` / ``profile`` accept True (collect in
    memory) or a path (collect and export there on :func:`flush`).
    ``profile`` implies tracing: the profile is the trace's span self
    times, built at :func:`flush`.  ``log_level`` configures stdlib
    logging when given.
    """
    if profile:
        trace = trace or True
        if not isinstance(profile, bool):
            _STATE.profile_path = Path(profile)
    if trace:
        if _STATE.tracer is None:
            _STATE.tracer = Tracer()
        if not isinstance(trace, bool):
            _STATE.trace_path = Path(trace)
    if metrics:
        if _STATE.registry is None:
            _STATE.registry = MetricsRegistry()
        if not isinstance(metrics, bool):
            _STATE.metrics_path = Path(metrics)
    if log_level is not None:
        configure_logging(log_level)


def disable() -> None:
    """Turn all observability layers off and drop collected data."""
    _STATE.tracer = None
    _STATE.registry = None
    _STATE.trace_path = None
    _STATE.metrics_path = None
    _STATE.profile_path = None


def configure_from_env() -> None:
    """Activate layers named by ``REPRO_TRACE`` / ``REPRO_METRICS`` /
    ``REPRO_PROFILE`` / ``REPRO_LOG``.

    Called once on import (so plain library use honours the env vars)
    and again by the CLI after flag parsing; re-calls are cheap and only
    ever *add* layers.
    """
    enable(
        trace=read("REPRO_TRACE") or False,
        metrics=read("REPRO_METRICS") or False,
        profile=read("REPRO_PROFILE") or False,
    )
    if read("REPRO_LOG") is not None:
        configure_logging()


def tracing_active() -> bool:
    """True when span collection is on."""
    return _STATE.tracer is not None


def tracer() -> Tracer | None:
    """The active tracer, or None when tracing is off."""
    return _STATE.tracer


def metrics() -> MetricsRegistry | None:
    """The active metrics registry, or None when metrics are off."""
    return _STATE.registry


# ----------------------------------------------------------------------
# Hot-path helpers (no-ops when disabled)
# ----------------------------------------------------------------------
def span(name: str, category: str = "repro", **args: Any):
    """A tracing span; the shared no-op context manager when disabled."""
    active = _STATE.tracer
    if active is None:
        return NULL_SPAN
    return active.span(name, category, **args)


def name_process(name: str) -> None:
    """Label this process's row in exported traces and profiles."""
    active = _STATE.tracer
    if active is not None:
        active.name_process(name)


def name_thread(name: str) -> None:
    """Label this thread's row in the exported trace (no-op when off)."""
    active = _STATE.tracer
    if active is not None:
        active.name_thread(name)


def inc(name: str, amount: float = 1.0, help_text: str = "", **labels: str) -> None:
    """Increment a counter (no-op when metrics are disabled)."""
    registry = _STATE.registry
    if registry is not None:
        registry.counter(name, help_text).inc(amount, **labels)


def gauge_set(name: str, value: float, help_text: str = "", **labels: str) -> None:
    """Set a gauge (no-op when metrics are disabled)."""
    registry = _STATE.registry
    if registry is not None:
        registry.gauge(name, help_text).set(value, **labels)


def observe(name: str, value: float, help_text: str = "", **labels: str) -> None:
    """Record a histogram observation (no-op when metrics are disabled)."""
    registry = _STATE.registry
    if registry is not None:
        registry.histogram(name, help_text).observe(value)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def flush() -> dict[str, str]:
    """Write collected data to the configured paths.

    Returns ``{path: kind}`` for the files written this call.  Metrics
    paths ending in ``.json`` get the JSON snapshot; anything else the
    Prometheus text exposition.  Idempotent per (path, content): called
    both by the CLI on exit and by an ``atexit`` hook as a safety net.
    """
    written: dict[str, str] = {}
    if _STATE.tracer is not None and _STATE.profile_path is not None:
        rows = span_self_times(_STATE.tracer.events, _STATE.tracer.metadata()[0])
        written[str(_STATE.profile_path)] = export_profile(
            rows, _STATE.profile_path
        )
    if _STATE.tracer is not None and _STATE.trace_path is not None:
        _STATE.tracer.export_chrome(_STATE.trace_path)
        written[str(_STATE.trace_path)] = "chrome-trace"
    if _STATE.registry is not None and _STATE.metrics_path is not None:
        if _STATE.metrics_path.suffix.lower() == ".json":
            _STATE.registry.export_json(_STATE.metrics_path)
            written[str(_STATE.metrics_path)] = "metrics-json"
        else:
            _STATE.registry.export_prometheus(_STATE.metrics_path)
            written[str(_STATE.metrics_path)] = "prometheus"
    return written


def _flush_at_exit() -> None:  # pragma: no cover - exercised via subprocess
    try:
        flush()
    except OSError:
        pass


atexit.register(_flush_at_exit)


# ----------------------------------------------------------------------
# Introspection (the `repro obs` command)
# ----------------------------------------------------------------------
def status() -> dict[str, Any]:
    """A JSON-ready description of the current observability state."""
    profiling = _STATE.tracer is not None and _STATE.profile_path is not None
    return {
        "tracing": {
            "active": _STATE.tracer is not None,
            "events": len(_STATE.tracer) if _STATE.tracer is not None else 0,
            "path": str(_STATE.trace_path) if _STATE.trace_path else None,
        },
        "metrics": {
            "active": _STATE.registry is not None,
            "names": _STATE.registry.names() if _STATE.registry is not None else [],
            "path": str(_STATE.metrics_path) if _STATE.metrics_path else None,
        },
        "profile": {
            "active": profiling,
            "samples": (
                len(_STATE.tracer.events)
                if profiling
                else 0
            ),
            "path": str(_STATE.profile_path) if _STATE.profile_path else None,
        },
    }


# Honour the env vars for plain library use (harmless when unset), and
# name any REPRO_* setting nothing reads (a typo or a removed variable).
for _name in unknown_names():
    warnings.warn(f"{_name} is not a repro setting; ignoring it (see `repro obs`)")
configure_from_env()
