"""The live telemetry collector: streams in, health signals out.

:class:`FleetMonitor` is the OMNI/LDMS-style standing pipeline the paper's
methodology presumes.  Engine chunk streams reach it one way: a per-job
:class:`JobProbe` observes the chunks — tapped onto
:meth:`repro.runner.engine.PowerEngine.stream` by
:func:`repro.capping.fleet.simulate_fleet_traced` (serial or sharded), or
fed retained traces by :meth:`FleetMonitor.observe_run` — and the
monitor replays its :class:`JobMonitorPartial` in chronological job
order; :class:`repro.telemetry.omni.OmniStore` ingest feeds it stored
series.  The monitor keeps incremental
:class:`~repro.hardware.system.RunningMoments` and derives the health
signals of :mod:`repro.monitor.health`.  On top sit the declarative
alert rules (:mod:`repro.monitor.alerts`) and the per-job energy ledger
(:mod:`repro.monitor.energy`).

The collector is strictly an observer: it reads sample values and never
writes back into the data path, so a monitored run is bit-identical to
an unmonitored one (test-enforced).  Simulation time drives everything —
staleness, debounce and hysteresis all use the sample clock, keeping
monitor output deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from repro import obs
from repro.config import read
from repro.hardware.node import GpuNode
from repro.hardware.platform import NodeSpec, Platform, get_platform
from repro.hardware.system import RunningMoments
from repro.monitor.alerts import AlertManager, AlertRule
from repro.monitor.energy import EnergyLedger
from repro.monitor.health import (
    CapMonitor,
    CapUsage,
    DriftDetector,
    HealthSignal,
    IdleOutlierDetector,
    StalenessDetector,
)
from repro.monitor.report import MonitorReport, NodeSummary
from repro.runner.trace import GPU_KEYS, RunResult
from repro.telemetry.sampler import SampledSeries

_GPU_COMPONENTS = frozenset(GPU_KEYS)


def node_idle_bands(
    config: "MonitorConfig", named_specs: "Iterable[tuple[str, NodeSpec]]"
) -> dict[str, tuple[float, float]]:
    """Per-node idle bands from (name, spec) pairs, for mixed pools.

    Empty when the config pins an explicit band: that band then applies
    to every node.
    """
    if config.idle_min_w is not None or config.idle_max_w is not None:
        return {}
    return {name: (spec.idle_min_w, spec.idle_max_w) for name, spec in named_specs}


@dataclass(frozen=True)
class MonitorConfig:
    """Collector tunables; defaults derive from the hardware platform."""

    #: Hardware platform whose spec supplies the idle band and cap
    #: tolerances; None means the registry default (a100-40g).
    platform: "str | Platform | None" = None
    #: Sample-gap bound (§II-B: LDMS gaps never exceeded 5 s).
    max_gap_s: float = 5.0
    #: Idle band overrides; None uses the platform node spec's band
    #: (410-510 W on the paper's a100-40g).
    idle_min_w: float | None = None
    idle_max_w: float | None = None
    #: Relative excess over the GPU cap that counts as a violation; None
    #: derives it per cap from the platform GPU's regulation-error model
    #: (floored at 2 %).
    violation_tolerance: float | None = None
    #: Relative distance below the cap still counted as throttled.
    throttle_band: float = 0.05
    #: Job-level throttle residency that warrants a signal at close.
    throttle_residency_threshold: float = 0.5
    #: |z| beyond which a node's mean power counts as fleet drift.
    drift_z_threshold: float = 2.5
    #: Minimum samples a node needs before drift is judged.
    drift_min_samples: int = 16
    #: Alert-rule overrides; None installs :func:`default_rules`.
    rules: tuple[AlertRule, ...] | None = None
    #: JSON-lines alert log path; None reads ``REPRO_MONITOR_LOG``.
    alert_log: str | Path | None = None

    def resolved_alert_log(self) -> Path | None:
        """The effective alert-log sink path."""
        return read("REPRO_MONITOR_LOG", self.alert_log)


@dataclass
class JobMonitorPartial:
    """One job's monitor observations, compact enough to cross IPC.

    Produced by :class:`JobProbe` while the job renders (in-process or
    inside a shard worker); replayed — in chronological job order —
    through :meth:`FleetMonitor.absorb_job_partial`.  Events keep the
    job's signals in observation order, so debounce/hysteresis state in
    the alert engine evolves the same way in every execution mode;
    moments and gap decisions that need cross-job state (drift,
    staleness ``_last_seen``) ship as per-chunk summaries the monitor's
    detectors fold with their own state.
    """

    job_id: str
    n_nodes: int
    cap_w: float
    start_s: float
    end_s: float
    nominal_runtime_s: float | None
    #: Ordered stream of ("sig", HealthSignal) and
    #: ("node", name, first_s, last_s, intra_gap_s, intra_gap_time_s,
    #: moment_row) entries, in observation order.
    events: list[tuple] = field(default_factory=list)
    usage: CapUsage = field(default_factory=CapUsage)
    energy_j: float = 0.0
    energy_samples: int = 0
    peak_node_w: float = 0.0
    chunks_observed: int = 0
    samples_observed: int = 0
    horizon_s: float = 0.0


class JobProbe:
    """The monitor's chunk observer for a single job.

    Every monitored chunk — fleet streams, serial or sharded, and
    ``observe_run`` replays — passes through a probe.  Instead of
    mutating shared monitor state it records a
    :class:`JobMonitorPartial` for :meth:`FleetMonitor.absorb_job_partial`
    to replay.  Detectors that are stateless within a job (cap, idle)
    run here; detectors whose state spans jobs (staleness, drift,
    alerts) are summarized per chunk and resolved by the monitor.
    ``node_bands`` holds per-node idle bands (see
    :func:`node_idle_bands`); nodes without one use the platform band.
    """

    #: The rows a probe reads, in the order retained traces replay them;
    #: chunks of any other component are ignored, so renders skip them.
    COMPONENTS: tuple[str, ...] = ("node",) + GPU_KEYS

    def __init__(
        self,
        config: MonitorConfig,
        job_id: str,
        n_nodes: int,
        cap_w: float,
        start_s: float,
        end_s: float,
        nominal_runtime_s: float | None,
        node_bands: dict[str, tuple[float, float]],
    ) -> None:
        platform = get_platform(config.platform)
        self._idle = IdleOutlierDetector(
            idle_min_w=config.idle_min_w,
            idle_max_w=config.idle_max_w,
            node_spec=platform.node,
        )
        self._caps = CapMonitor(
            violation_tolerance=config.violation_tolerance,
            throttle_band=config.throttle_band,
            gpu_spec=platform.gpu,
        )
        self._node_bands = node_bands
        self.partial = JobMonitorPartial(
            job_id=job_id,
            n_nodes=n_nodes,
            cap_w=cap_w,
            start_s=start_s,
            end_s=end_s,
            nominal_runtime_s=nominal_runtime_s,
        )

    def observe_chunk(
        self,
        node_name: str,
        component: str,
        times: np.ndarray,
        values: np.ndarray,
        interval_s: float,
    ) -> None:
        """Fold one streamed chunk into the job partial."""
        if component not in self.COMPONENTS or values.size == 0:
            return
        is_gpu = component in _GPU_COMPONENTS
        partial = self.partial
        absolute = partial.start_s + np.asarray(times, dtype=float)
        partial.chunks_observed += 1
        partial.samples_observed += int(values.size)
        horizon = float(absolute[-1]) + interval_s / 2.0
        if horizon > partial.horizon_s:
            partial.horizon_s = horizon
        if is_gpu:
            for signal in self._caps.check_chunk(
                node_name,
                partial.cap_w,
                absolute,
                np.asarray(values, dtype=float),
                interval_s,
                partial.usage,
            ):
                partial.events.append(("sig", signal))
            return
        values = np.asarray(values, dtype=float)
        partial.energy_j += float(np.sum(values, dtype=np.float64)) * interval_s
        partial.energy_samples += int(values.size)
        partial.peak_node_w = max(partial.peak_node_w, float(values.max()))
        if absolute.size > 1:
            gaps = np.diff(absolute)
            idx = int(np.argmax(gaps))
            intra_gap_s, intra_gap_time_s = float(gaps[idx]), float(absolute[idx + 1])
        else:
            intra_gap_s, intra_gap_time_s = -np.inf, float(absolute[0])
        partial.events.append(
            (
                "node",
                node_name,
                float(absolute[0]),
                float(absolute[-1]),
                intra_gap_s,
                intra_gap_time_s,
                RunningMoments.from_batch(values).state(),
            )
        )
        band = self._node_bands.get(node_name)
        for signal in self._idle.check_samples(
            node_name,
            absolute,
            values,
            idle_min_w=band[0] if band is not None else None,
            idle_max_w=band[1] if band is not None else None,
        ):
            partial.events.append(("sig", signal))

    def tap(self, interval_s: float):
        """A :meth:`PowerEngine.stream` ``on_chunk`` callback."""

        def _on_chunk(chunk) -> None:
            self.observe_chunk(
                chunk.node_name,
                chunk.component,
                chunk.times,
                chunk.values,
                interval_s,
            )

        return _on_chunk


class FleetMonitor:
    """Streaming health monitor over a fleet's power telemetry."""

    def __init__(self, config: MonitorConfig | None = None, label: str = "fleet") -> None:
        self.config = config if config is not None else MonitorConfig()
        self.label = label
        platform = get_platform(self.config.platform)
        self._idle = IdleOutlierDetector(
            idle_min_w=self.config.idle_min_w,
            idle_max_w=self.config.idle_max_w,
            node_spec=platform.node,
        )
        #: Per-node idle bands learned from the attached pool (mixed
        #: pools); empty when the config pins an explicit band.
        self._node_bands: dict[str, tuple[float, float]] = {}
        self._staleness = StalenessDetector(max_gap_s=self.config.max_gap_s)
        self._drift = DriftDetector(
            z_threshold=self.config.drift_z_threshold,
            min_samples=self.config.drift_min_samples,
        )
        self.alerts = AlertManager(
            list(self.config.rules) if self.config.rules is not None else None
        )
        # Live-stream lifecycle events to the configured alert log so an
        # observer (`repro top`) can tail them mid-run; finalize() still
        # rewrites the canonical log at the end.
        stream_path = self.config.resolved_alert_log()
        if stream_path is not None:
            self.alerts.stream_to(stream_path)
        self.ledger = EnergyLedger()
        #: Node -> time of its most recent sample; maintained by partial
        #: replay and store ingest.
        self._last_times: dict[str, float] = {}
        self.signals: list[HealthSignal] = []
        self.signal_counts: dict[str, int] = {}
        self.chunks_observed = 0
        self.samples_observed = 0
        self._horizon_s = 0.0
        self._finalized: MonitorReport | None = None

    # ------------------------------------------------------------------
    # Signal routing
    # ------------------------------------------------------------------
    def _emit(self, signals: list[HealthSignal]) -> None:
        if not signals:  # the per-chunk common case — keep it free
            return
        for signal in signals:
            self.signals.append(signal)
            self.signal_counts[signal.kind] = (
                self.signal_counts.get(signal.kind, 0) + 1
            )
            obs.inc("repro_monitor_signals_total", kind=signal.kind)
        self.alerts.process_all(signals)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def attach_pool(self, nodes: list[GpuNode], time_s: float = 0.0) -> None:
        """Run the idle-band survey over a node pool (§III-B as a check).

        Also learns each node's own idle band from its platform spec, so
        later streaming idle checks in a mixed-platform pool judge every
        node against the right envelope (an explicit config band wins).
        """
        self._node_bands.update(
            node_idle_bands(self.config, ((node.name, node.spec) for node in nodes))
        )
        with obs.span("monitor.attach_pool", nodes=len(nodes)):
            self._emit(self._idle.scan_pool(nodes, time_s=time_s))

    def absorb_job_partial(self, partial: JobMonitorPartial) -> None:
        """Replay one job's :class:`JobProbe` partial into this monitor.

        Opens the job's energy account, replays its events, then closes
        the account and judges throttle residency.  Must be called in
        chronological job order, so detectors whose state spans jobs
        (staleness ``_last_seen``, alert debounce/hysteresis, the drift
        moments) evolve through one sequence whichever process rendered
        the job — a sharded monitored run finalizes to the same report
        as a serial one.
        """
        job_id = partial.job_id
        self.ledger.open_job(
            job_id,
            n_nodes=partial.n_nodes,
            cap_w=partial.cap_w,
            start_s=partial.start_s,
            end_s=partial.end_s,
            nominal_runtime_s=partial.nominal_runtime_s,
        )
        self.chunks_observed += partial.chunks_observed
        self.samples_observed += partial.samples_observed
        if partial.chunks_observed:
            obs.inc("repro_monitor_chunks_total", partial.chunks_observed)
        if partial.horizon_s > self._horizon_s:
            self._horizon_s = partial.horizon_s
        # Job-level ledger scalars accumulate from zero in the probe, so
        # adding the totals to the fresh account once is fold-exact.
        account = self.ledger.account(job_id)
        account.energy_j += partial.energy_j
        account.samples += partial.energy_samples
        account.peak_node_w = max(account.peak_node_w, partial.peak_node_w)
        for event in partial.events:
            if event[0] == "sig":
                self._emit([event[1]])
            else:
                _, name, first_s, last_s, intra_gap_s, intra_gap_time_s, row = event
                self._drift.absorb(name, RunningMoments.from_state(row))
                self._emit(
                    self._staleness.observe_summary(
                        name, first_s, last_s, intra_gap_s, intra_gap_time_s
                    )
                )
                self._last_times[name] = last_s
        usage = partial.usage
        self.ledger.add_gpu_time(job_id, usage.gpu_seconds, usage.cap_limited_s)
        account = self.ledger.close_job(job_id)
        residency = usage.throttle_residency
        if residency >= self.config.throttle_residency_threshold:
            self._emit(
                [
                    HealthSignal(
                        kind="throttle_residency",
                        node_name=job_id,
                        time_s=account.end_s,
                        value=residency,
                        threshold=self.config.throttle_residency_threshold,
                        detail=(
                            f"{residency:.0%} of GPU time at cap "
                            f"{partial.cap_w:.0f} W "
                            f"(est. slowdown {account.cap_slowdown:.2f}x)"
                        ),
                    )
                ]
            )

    def observe_run(
        self,
        result: RunResult,
        job_id: str | None = None,
        start_s: float = 0.0,
        nominal_runtime_s: float | None = None,
        chunk_samples: int = 4096,
    ) -> None:
        """Post-hoc monitoring of a completed run's retained traces.

        Replays the rows a probe reads of every trace through a
        :class:`JobProbe` — the observer fleet streams use — and absorbs
        its partial; what ``cap-sweep --monitor`` uses, since sweeps
        retain whole traces.
        """
        label = job_id if job_id is not None else result.label
        probe = JobProbe(
            self.config,
            job_id=label,
            n_nodes=result.n_nodes,
            cap_w=result.gpu_power_cap_w,
            start_s=start_s,
            end_s=start_s + result.runtime_s,
            nominal_runtime_s=nominal_runtime_s,
            node_bands=self._node_bands,
        )
        with obs.span("monitor.observe_run", job=label, nodes=result.n_nodes):
            for trace in result.traces:
                dt = trace.sample_interval_s
                times = trace.times
                for component in JobProbe.COMPONENTS:
                    series = trace.components[component]
                    for lo in range(0, len(times), chunk_samples):
                        hi = min(lo + chunk_samples, len(times))
                        probe.observe_chunk(
                            trace.node_name,
                            component,
                            times[lo:hi],
                            series[lo:hi],
                            dt,
                        )
        self.absorb_job_partial(probe.partial)

    def ingest_series(self, series: SampledSeries) -> None:
        """OmniStore subscription hook: watch an ingested sampled series.

        Store streams carry no job attribution, so only stream-level
        health applies: staleness on every component stream, drift and
        idle checks on node power.
        """
        key = f"{series.node_name}:{series.component}"
        times = np.asarray(series.times, dtype=float)
        self._emit(self._staleness.observe(key, times, node_name=series.node_name))
        if series.component != "node" or times.size == 0:
            return
        values = np.asarray(series.values, dtype=float)
        self.chunks_observed += 1
        self.samples_observed += int(values.size)
        horizon = float(times[-1])
        if horizon > self._horizon_s:
            self._horizon_s = horizon
        self._last_times[series.node_name] = float(times[-1])
        self._drift.update(series.node_name, values)
        band = self._node_bands.get(series.node_name)
        self._emit(
            self._idle.check_samples(
                series.node_name,
                times,
                values,
                idle_min_w=band[0] if band is not None else None,
                idle_max_w=band[1] if band is not None else None,
            )
        )

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self, now_s: float | None = None) -> MonitorReport:
        """Run end-of-stream sweeps and freeze the report.

        Safe to call more than once; later calls return the first report.
        """
        if self._finalized is not None:
            return self._finalized
        now = now_s if now_s is not None else self._horizon_s
        with obs.span("monitor.finalize", label=self.label):
            self._emit(self._staleness.sweep(now))
            self._emit(self._drift.finalize(now))
            self.alerts.sweep(now + max(
                (rule.clear_quiet_s for rule in self.alerts.rules), default=0.0
            ))
            log_path = self.config.resolved_alert_log()
            if log_path is not None:
                self.alerts.write_log(log_path)
            obs.gauge_set(
                "repro_monitor_nodes_watched", float(len(self._last_times))
            )
            self._finalized = self._build_report(now)
        return self._finalized

    def _build_report(self, now_s: float) -> MonitorReport:
        nodes = []
        for name in sorted(self._drift.per_node):
            moments = self._drift.per_node[name]
            nodes.append(
                NodeSummary(
                    node_name=name,
                    samples=moments.count,
                    mean_w=moments.mean,
                    peak_w=moments.peak,
                    last_seen_s=self._last_times.get(name, -float("inf")),
                )
            )
        return MonitorReport(
            label=self.label,
            horizon_s=now_s,
            nodes_watched=len(self._last_times),
            chunks_observed=self.chunks_observed,
            samples_observed=self.samples_observed,
            signal_counts=dict(sorted(self.signal_counts.items())),
            signals=tuple(self.signals),
            alert_events=tuple(self.alerts.events),
            energy=self.ledger.to_json(),
            nodes=tuple(nodes),
        )

