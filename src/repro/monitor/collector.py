"""The live telemetry collector: streams in, health signals out.

:class:`FleetMonitor` is the OMNI/LDMS-style standing pipeline the paper's
methodology presumes.  Engine chunk streams reach it one way: a per-job
:class:`JobProbe` observes the chunks — handed each chunk by the fleet
render loop (:func:`repro.capping.shard.render_task_job`, serial or
sharded) for ``simulate_fleet_traced(run, monitor=...)``, or fed
retained traces by :meth:`FleetMonitor.observe_run` — and the monitor
replays its :class:`JobMonitorPartial` in chronological job order.  The
monitor keeps incremental :class:`~repro.hardware.system.RunningMoments`
and derives the health signals of :mod:`repro.monitor.health`.  On top
sit the alert rules (:mod:`repro.monitor.alerts`) and the per-job
energy ledger (:mod:`repro.monitor.energy`).

What the monitor checks is fixed by the paper (the thresholds are the
constants of :mod:`repro.monitor.health`); its one input is the
hardware platform, whose specs supply the idle band and the GPU's
regulation error.

The collector is strictly an observer: it reads sample values and never
writes back into the data path, so a monitored run is bit-identical to
an unmonitored one (test-enforced).  Simulation time drives everything —
staleness, debounce and hysteresis all use the sample clock, keeping
monitor output deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from repro import obs
from repro.config import read
from repro.hardware.node import GpuNode
from repro.hardware.platform import NodeSpec, Platform, get_platform
from repro.hardware.system import RunningMoments
from repro.monitor.alerts import RULES, AlertManager
from repro.monitor.energy import EnergyLedger, JobEnergyAccount
from repro.monitor.health import (
    THROTTLE_RESIDENCY_THRESHOLD,
    CapMonitor,
    CapUsage,
    DriftDetector,
    HealthSignal,
    IdleOutlierDetector,
    StalenessDetector,
)
from repro.monitor.report import MonitorReport, NodeSummary
from repro.runner.trace import GPU_KEYS, RunResult

_GPU_COMPONENTS = frozenset(GPU_KEYS)

#: Samples per slice :meth:`FleetMonitor.observe_run` replays a trace in.
OBSERVE_CHUNK = 4096


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
    ``platform`` supplies the GPU spec cap checks judge against;
    ``node_specs`` each node's idle band, with the platform's band for a
    node it does not name.
    """

    #: The rows a probe reads, in the order retained traces replay them;
    #: chunks of any other component are ignored, so renders skip them.
    COMPONENTS: tuple[str, ...] = ("node",) + GPU_KEYS

    def __init__(
        self,
        platform: Platform,
        job_id: str,
        n_nodes: int,
        cap_w: float,
        start_s: float,
        end_s: float,
        nominal_runtime_s: float | None,
        node_specs: Mapping[str, NodeSpec],
    ) -> None:
        self._idle = IdleOutlierDetector(platform.node, node_specs)
        self._caps = CapMonitor(platform.gpu)
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
        moment_row: tuple | None = None,
    ) -> None:
        """Fold one streamed chunk into the job partial.

        ``moment_row`` is a node chunk's
        ``RunningMoments.from_batch(values).state()`` when the caller
        already computed it; the probe computes it otherwise.
        """
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
        if moment_row is None:
            moment_row = RunningMoments.from_batch(values).state()
        partial.events.append(
            (
                "node",
                node_name,
                float(absolute[0]),
                float(absolute[-1]),
                intra_gap_s,
                intra_gap_time_s,
                moment_row,
            )
        )
        for signal in self._idle.check_samples(node_name, absolute, values):
            partial.events.append(("sig", signal))


class FleetMonitor:
    """Streaming health monitor over a fleet's power telemetry.

    ``platform`` (a registry id, a :class:`Platform`, or None for the
    registry default) supplies the GPU spec cap checks judge against and
    the idle band of nodes the monitor has not seen in
    :meth:`attach_pool`.  ``alert_log`` is the JSON-lines alert-log
    path; None reads ``REPRO_MONITOR_LOG``.
    """

    def __init__(
        self,
        platform: "str | Platform | None" = None,
        alert_log: "str | Path | None" = None,
        label: str = "fleet",
    ) -> None:
        self.platform = get_platform(platform)
        self.label = label
        #: Node -> spec, learned from the attached pool, so a node of a
        #: mixed pool is judged against its own idle band.
        self._node_specs: dict[str, NodeSpec] = {}
        self._staleness = StalenessDetector()
        self._drift = DriftDetector()
        self.alerts = AlertManager()
        #: The effective alert-log path (None: no log).
        self.alert_log: Path | None = read("REPRO_MONITOR_LOG", alert_log)
        # Live-stream lifecycle events to the alert log so an observer
        # (`repro top`) can tail them mid-run; the stream is the log's
        # one writer.
        if self.alert_log is not None:
            self.alerts.stream_to(self.alert_log)
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

        Also learns each node's spec, so later idle checks of
        :meth:`observe_run` in a mixed-platform pool judge every node
        against its own band.
        """
        self._node_specs.update((node.name, node.spec) for node in nodes)
        with obs.span("monitor.attach_pool", nodes=len(nodes)):
            self._emit(IdleOutlierDetector().scan_pool(nodes, time_s=time_s))

    def absorb_job_partial(self, partial: JobMonitorPartial) -> None:
        """Replay one job's :class:`JobProbe` partial into this monitor.

        Enters the job's energy account, replays its events, then judges
        throttle residency.  Must be called in chronological job order,
        so detectors whose state spans jobs (staleness ``_last_seen``,
        alert debounce/hysteresis, the drift moments) evolve through one
        sequence whichever process rendered the job — a sharded
        monitored run finalizes to the same report as a serial one.
        """
        usage = partial.usage
        account = JobEnergyAccount(
            job_id=partial.job_id,
            n_nodes=partial.n_nodes,
            cap_w=partial.cap_w,
            start_s=partial.start_s,
            end_s=partial.end_s,
            nominal_runtime_s=partial.nominal_runtime_s,
            energy_j=partial.energy_j,
            samples=partial.energy_samples,
            gpu_seconds=usage.gpu_seconds,
            cap_limited_s=usage.cap_limited_s,
            peak_node_w=partial.peak_node_w,
        )
        self.ledger.add(account)
        self.chunks_observed += partial.chunks_observed
        self.samples_observed += partial.samples_observed
        if partial.chunks_observed:
            obs.inc("repro_monitor_chunks_total", partial.chunks_observed)
        if partial.horizon_s > self._horizon_s:
            self._horizon_s = partial.horizon_s
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
        residency = usage.throttle_residency
        if residency >= THROTTLE_RESIDENCY_THRESHOLD:
            self._emit(
                [
                    HealthSignal(
                        kind="throttle_residency",
                        node_name=account.job_id,
                        time_s=account.end_s,
                        value=residency,
                        threshold=THROTTLE_RESIDENCY_THRESHOLD,
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
    ) -> None:
        """Post-hoc monitoring of a completed run's retained traces.

        Replays the rows a probe reads of every trace through a
        :class:`JobProbe` — the observer fleet streams use — in slices
        of :data:`OBSERVE_CHUNK` samples, and absorbs its partial; what
        ``cap-sweep --monitor`` uses, since sweeps retain whole traces.
        """
        label = job_id if job_id is not None else result.label
        probe = JobProbe(
            self.platform,
            job_id=label,
            n_nodes=result.n_nodes,
            cap_w=result.gpu_power_cap_w,
            start_s=start_s,
            end_s=start_s + result.runtime_s,
            nominal_runtime_s=nominal_runtime_s,
            node_specs=self._node_specs,
        )
        with obs.span("monitor.observe_run", job=label, nodes=result.n_nodes):
            for trace in result.traces:
                dt = trace.sample_interval_s
                times = trace.times
                for component in JobProbe.COMPONENTS:
                    series = trace.component(component)
                    for lo in range(0, len(times), OBSERVE_CHUNK):
                        hi = min(lo + OBSERVE_CHUNK, len(times))
                        probe.observe_chunk(
                            trace.node_name,
                            component,
                            times[lo:hi],
                            series[lo:hi],
                            dt,
                        )
        self.absorb_job_partial(probe.partial)

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
            self.alerts.sweep(now + max(rule.clear_quiet_s for rule in RULES))
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

