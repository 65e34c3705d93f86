"""Derived health signals over streaming node-power telemetry.

The paper's telemetry sections are, implicitly, a catalogue of the
things a standing monitor should watch for on a GPU fleet:

* **Idle-power outliers** — §III-B observed idle node power spread
  across 410-510 W; a node idling *outside* that band has a stuck fan,
  a mis-seated board, or a sensor fault.
* **Cap violations / throttle residency** — §V applies ``nvidia-smi``
  power caps; sustained draw above the cap means the limiter is not
  honouring the setting, while high residency *at* the cap quantifies
  how throttled a job runs (the source of Fig 12's slowdowns).
* **Sampler staleness** — §II-B's LDMS pipeline drops samples (2 s
  effective cadence, gaps bounded at 5 s); a stream whose gap exceeds
  that bound, or that stops reporting entirely, is stale.
* **Fleet drift** — §III-B's node-to-node manufacturing spread; a node
  whose power distribution walks away from the fleet (z-score on the
  per-node means) is drifting.

Detectors are pure observers: they read sample values and emit
:class:`HealthSignal` records, never touching the data path — monitored
runs stay bit-identical to unmonitored ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.hardware.node import GpuNode
from repro.hardware.platform import (
    GpuSpec,
    NodeSpec,
    default_gpu_spec,
    default_node_spec,
)
from repro.hardware.system import RunningMoments

#: §II-B: LDMS sample gaps "did not exceed five seconds".
MAX_GAP_S = 5.0
#: Relative distance below a GPU cap still counted as pinned at it: a
#: capped GPU regulates to just under its limit (§V, Fig 11).
THROTTLE_BAND = 0.05
#: Share of a job's GPU time pinned at the cap that warrants a
#: throttle signal: past half, the cap sets the pace (Fig 12).
THROTTLE_RESIDENCY_THRESHOLD = 0.5
#: |z| of a node's mean power beyond which it has walked away from the
#: fleet's node-to-node spread (§III-B).
DRIFT_Z_THRESHOLD = 2.5
#: Samples a node needs before its drift is judged.
DRIFT_MIN_SAMPLES = 16
#: Floor of the cap-violation tolerance; the GPU's regulation error
#: widens it at deep caps (§V, Fig 10).
MIN_VIOLATION_TOLERANCE = 0.02

#: The four signal kinds every collector derives (plus throttle
#: residency, reported per job at close).
SIGNAL_KINDS = (
    "idle_outlier",
    "cap_violation",
    "throttle_residency",
    "sampler_staleness",
    "fleet_drift",
)


@dataclass(frozen=True)
class HealthSignal:
    """One derived health observation about one node (or stream)."""

    kind: str
    node_name: str
    time_s: float
    #: The measured quantity (watts, seconds, z-score — kind-dependent).
    value: float
    #: The bound it was judged against.
    threshold: float
    detail: str = ""

    def to_json(self) -> dict[str, object]:
        """JSON-ready record (alert log sink, power reports)."""
        return {
            "kind": self.kind,
            "node": self.node_name,
            "time_s": round(self.time_s, 3),
            "value": round(self.value, 3),
            "threshold": round(self.threshold, 3),
            "detail": self.detail,
        }


class IdleOutlierDetector:
    """Flags nodes whose idle power falls outside their own spec's band.

    §III-B observed idle node power across 410-510 W on the paper's
    a100-40g; every platform's node spec carries its own band.
    :meth:`scan_pool` judges each node against its own spec;
    :meth:`check_samples` looks a node's spec up in ``node_specs`` and
    judges a node it does not name against ``node_spec`` (the monitor
    platform's; by default the registry default).
    """

    def __init__(
        self,
        node_spec: NodeSpec | None = None,
        node_specs: Mapping[str, NodeSpec] | None = None,
    ) -> None:
        self.node_spec = node_spec if node_spec is not None else default_node_spec()
        self.node_specs = node_specs if node_specs is not None else {}

    def band(self, node_name: str) -> tuple[float, float]:
        """The (min, max) idle watts a node is judged against."""
        spec = self.node_specs.get(node_name, self.node_spec)
        return spec.idle_min_w, spec.idle_max_w

    def scan_pool(self, nodes: list[GpuNode], time_s: float = 0.0) -> list[HealthSignal]:
        """Check every node's deterministic idle draw against the band.

        This is the §III-B survey as a health check: instead of reporting
        the spread, flag the nodes outside the expected envelope.  Each
        node is judged against its own platform spec's band.
        """
        signals = []
        for node in nodes:
            lo, hi = node.spec.idle_min_w, node.spec.idle_max_w
            idle_w = node.idle_sample().node_w
            if not (lo <= idle_w <= hi):
                bound = lo if idle_w < lo else hi
                signals.append(
                    HealthSignal(
                        kind="idle_outlier",
                        node_name=node.name,
                        time_s=time_s,
                        value=idle_w,
                        threshold=bound,
                        detail=(
                            f"idle {idle_w:.0f} W outside "
                            f"[{lo:.0f}, {hi:.0f}] W"
                        ),
                    )
                )
        return signals

    def check_samples(
        self,
        node_name: str,
        times: np.ndarray,
        values: np.ndarray,
    ) -> list[HealthSignal]:
        """Flag idle-like samples that sit outside the band.

        A sample is *idle-like* when it is below the band ceiling plus a
        margin (a busy node legitimately draws far more); idle-like
        samples below the band floor indicate a dead component or sensor
        under-read.  At most one signal per batch (the worst offender) —
        the alert engine handles persistence.  The band is the node's
        own (:meth:`band`).
        """
        if values.size == 0:
            return []
        lo, hi = self.band(node_name)
        # Batch min at or above the band floor: no sample can qualify
        # (low requires < the floor) — the busy-node common case.
        if float(values.min()) >= lo:
            return []
        idle_like = values <= hi
        low = idle_like & (values < lo)
        if not np.any(low):
            return []
        worst = int(np.argmin(np.where(low, values, np.inf)))
        return [
            HealthSignal(
                kind="idle_outlier",
                node_name=node_name,
                time_s=float(times[worst]),
                value=float(values[worst]),
                threshold=lo,
                detail=(
                    f"{int(low.sum())} idle-like sample(s) below "
                    f"{lo:.0f} W"
                ),
            )
        ]


@dataclass
class CapUsage:
    """Accumulated cap interaction of one (job, GPU-stream) pair."""

    gpu_seconds: float = 0.0
    cap_limited_s: float = 0.0
    violation_s: float = 0.0
    peak_w: float = 0.0

    @property
    def throttle_residency(self) -> float:
        """Fraction of GPU time spent pinned at (or above) the cap."""
        return self.cap_limited_s / self.gpu_seconds if self.gpu_seconds > 0 else 0.0


class CapMonitor:
    """Tracks GPU draw against the applied ``nvidia-smi`` cap.

    Draw within :data:`THROTTLE_BAND` below the cap counts as pinned at
    it; draw above the cap by more than :meth:`tolerance_for` is a
    violation.  ``gpu_spec`` (by default the registry default's GPU)
    supplies the regulation-error model the tolerance derives from.
    """

    def __init__(self, gpu_spec: GpuSpec | None = None) -> None:
        self.gpu_spec = gpu_spec if gpu_spec is not None else default_gpu_spec()

    def tolerance_for(self, cap_w: float) -> float:
        """Relative excess over ``cap_w`` that counts as a violation.

        The spec's regulation error at this cap depth, floored at
        :data:`MIN_VIOLATION_TOLERANCE`: deep caps legitimately
        overshoot more (Fig 10: ~8 % at the A100's 100 W floor), and the
        error model varies by platform.
        """
        spec = self.gpu_spec
        span = spec.cap_max_w - spec.cap_min_w
        depth = (spec.cap_max_w - cap_w) / span if span > 0 else 0.0
        depth = min(max(depth, 0.0), 1.0)
        regulation = spec.regulation_error_max * depth**spec.regulation_error_exponent
        return max(MIN_VIOLATION_TOLERANCE, regulation)

    def check_chunk(
        self,
        node_name: str,
        cap_w: float,
        times: np.ndarray,
        values: np.ndarray,
        interval_s: float,
        usage: CapUsage,
    ) -> list[HealthSignal]:
        """Fold one GPU-power chunk into ``usage``; emit violations.

        Residency and violation time accumulate sample-by-sample
        (``interval_s`` per sample); at most one violation signal per
        chunk, carrying the worst excess.
        """
        if values.size == 0:
            return []
        usage.gpu_seconds += values.size * interval_s
        vmax = float(values.max())
        if vmax > usage.peak_w:
            usage.peak_w = vmax
        # Chunk max below the throttle band: nothing pinned, nothing
        # over — skip the mask work entirely (the streaming common case).
        if vmax < cap_w * (1.0 - THROTTLE_BAND):
            return []
        pinned = values >= cap_w * (1.0 - THROTTLE_BAND)
        usage.cap_limited_s += float(pinned.sum()) * interval_s
        tolerance = self.tolerance_for(cap_w)
        limit = cap_w * (1.0 + tolerance)
        if vmax <= limit:
            return []
        over = values > limit
        n_over = int(over.sum())
        usage.violation_s += n_over * interval_s
        worst = int(np.argmax(np.where(over, values, -np.inf)))
        return [
            HealthSignal(
                kind="cap_violation",
                node_name=node_name,
                time_s=float(times[worst]),
                value=float(values[worst]),
                threshold=limit,
                detail=(
                    f"{n_over} sample(s) above cap {cap_w:.0f} W "
                    f"(+{tolerance:.0%} tolerance)"
                ),
            )
        ]


class StalenessDetector:
    """Flags streams whose sample gaps exceed the LDMS bound.

    §II-B: nominal 1 s cadence degrades to ~2 s effective with gaps that
    "did not exceed five seconds".  A gap beyond :data:`MAX_GAP_S`
    within a stream — or silence longer than that at the end of the run
    — means the sampler (or the node) stopped reporting.  The end-of-run
    :meth:`sweep` cannot tell a stopped sampler from a node that simply
    finished its jobs and sat unallocated: in a fleet run every node
    whose last job ended more than :data:`MAX_GAP_S` before the horizon
    is flagged.
    """

    def __init__(self) -> None:
        #: Stream key -> time of the last sample seen.
        self._last_seen: dict[str, float] = {}

    def observe_summary(
        self,
        key: str,
        first_s: float,
        last_s: float,
        intra_gap_s: float = -np.inf,
        intra_gap_time_s: float = 0.0,
    ) -> list[HealthSignal]:
        """Fold one batch of a stream's samples; emit a gap signal.

        A batch is summarized by its first and last sample time and its
        worst intra-batch gap.  Shard workers cannot see the
        coordinator's ``_last_seen`` state (the boundary gap spans
        jobs), so :class:`~repro.monitor.collector.JobProbe` ships these
        summaries and the coordinator checks the boundary gap against
        the previous batch here.  At most one signal per batch, for the
        largest offending gap.
        """
        last = self._last_seen.get(key)
        worst_gap = 0.0
        worst_time = first_s
        if last is not None:
            boundary = first_s - last
            if boundary > worst_gap:
                worst_gap, worst_time = boundary, first_s
        if intra_gap_s > worst_gap:
            worst_gap, worst_time = intra_gap_s, intra_gap_time_s
        self._last_seen[key] = last_s
        # Relative tolerance: timestamps are accumulated floats, so a
        # nominal exactly-at-bound gap can land epsilon above it.
        if worst_gap <= MAX_GAP_S * (1.0 + 1e-9):
            return []
        return [
            HealthSignal(
                kind="sampler_staleness",
                node_name=key,
                time_s=worst_time,
                value=worst_gap,
                threshold=MAX_GAP_S,
                detail=f"sample gap {worst_gap:.1f} s > {MAX_GAP_S:.1f} s",
            )
        ]

    def sweep(self, now_s: float) -> list[HealthSignal]:
        """Flag every stream silent for longer than the gap bound."""
        signals = []
        for key, last in sorted(self._last_seen.items()):
            age = now_s - last
            if age > MAX_GAP_S:
                signals.append(
                    HealthSignal(
                        kind="sampler_staleness",
                        node_name=key,
                        time_s=now_s,
                        value=age,
                        threshold=MAX_GAP_S,
                        detail=f"no samples for {age:.1f} s",
                    )
                )
        return signals


@dataclass
class DriftDetector:
    """Node-vs-fleet z-score drift on per-node mean power.

    Each node's busy-power samples stream into its own
    :class:`RunningMoments`; at finalize the fleet distribution is the
    set of per-node means, and any node with at least
    :data:`DRIFT_MIN_SAMPLES` samples whose mean sits more than
    :data:`DRIFT_Z_THRESHOLD` standard deviations from it is drifting.
    """

    per_node: dict[str, RunningMoments] = field(default_factory=dict)

    def update(self, node_name: str, values: np.ndarray) -> None:
        """Fold one node's power samples into its moments."""
        moments = self.per_node.get(node_name)
        if moments is None:
            moments = self.per_node[node_name] = RunningMoments()
        moments.update(values)

    def absorb(self, node_name: str, moments: RunningMoments) -> None:
        """Chan-merge a worker-computed moment set into a node's moments.

        With one moment row per chunk, merging rows in chunk order
        reproduces :meth:`update` on the raw samples bit for bit (see
        :meth:`RunningMoments.from_batch`).
        """
        existing = self.per_node.get(node_name)
        if existing is None:
            existing = self.per_node[node_name] = RunningMoments()
        existing.merge(moments)

    def finalize(self, now_s: float) -> list[HealthSignal]:
        """Judge every qualifying node's mean against the fleet spread."""
        eligible = {
            name: moments
            for name, moments in self.per_node.items()
            if moments.count >= DRIFT_MIN_SAMPLES
        }
        if len(eligible) < 3:
            return []  # no meaningful fleet distribution
        fleet = RunningMoments()
        fleet.update(np.array([m.mean for m in eligible.values()]))
        signals = []
        for name in sorted(eligible):
            z = fleet.zscore(eligible[name].mean)
            if abs(z) > DRIFT_Z_THRESHOLD:
                signals.append(
                    HealthSignal(
                        kind="fleet_drift",
                        node_name=name,
                        time_s=now_s,
                        value=z,
                        threshold=DRIFT_Z_THRESHOLD,
                        detail=(
                            f"node mean {eligible[name].mean:.0f} W, fleet "
                            f"{fleet.mean:.0f} ± {fleet.std:.0f} W (z={z:+.2f})"
                        ),
                    )
                )
        return signals
