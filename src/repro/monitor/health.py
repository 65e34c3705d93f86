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

import numpy as np

from repro.hardware.node import GpuNode
from repro.hardware.platform import (
    GpuSpec,
    NodeSpec,
    default_gpu_spec,
    default_node_spec,
)
from repro.hardware.system import RunningMoments

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
    """Flags nodes whose idle power falls outside the §III-B band.

    The default band comes from ``node_spec`` (or, when omitted, the
    registry's default platform — the paper's 410-510 W window).  An
    explicitly passed band always wins; otherwise :meth:`scan_pool`
    judges each node against *its own* spec, so a mixed-platform pool
    raises no spurious outliers.
    """

    def __init__(
        self,
        idle_min_w: float | None = None,
        idle_max_w: float | None = None,
        node_spec: NodeSpec | None = None,
    ) -> None:
        spec = node_spec if node_spec is not None else default_node_spec()
        self._explicit = idle_min_w is not None or idle_max_w is not None
        self.idle_min_w = idle_min_w if idle_min_w is not None else spec.idle_min_w
        self.idle_max_w = idle_max_w if idle_max_w is not None else spec.idle_max_w
        if self.idle_max_w <= self.idle_min_w:
            raise ValueError(
                f"idle band empty: [{self.idle_min_w}, {self.idle_max_w}] W"
            )

    def scan_pool(self, nodes: list[GpuNode], time_s: float = 0.0) -> list[HealthSignal]:
        """Check every node's deterministic idle draw against the band.

        This is the §III-B survey as a health check: instead of reporting
        the spread, flag the nodes outside the expected envelope.  Unless
        the detector was built with an explicit band, each node is judged
        against its own platform spec's band.
        """
        signals = []
        for node in nodes:
            if self._explicit:
                lo, hi = self.idle_min_w, self.idle_max_w
            else:
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
        idle_min_w: float | None = None,
        idle_max_w: float | None = None,
    ) -> list[HealthSignal]:
        """Flag idle-like samples that sit outside the band.

        A sample is *idle-like* when it is below the band ceiling plus a
        margin (a busy node legitimately draws far more); idle-like
        samples below the band floor indicate a dead component or sensor
        under-read.  At most one signal per batch (the worst offender) —
        the alert engine handles persistence.  ``idle_min_w`` /
        ``idle_max_w`` override the detector band per call (the collector
        passes the node's own band in mixed-platform pools).
        """
        if values.size == 0:
            return []
        lo = idle_min_w if idle_min_w is not None else self.idle_min_w
        hi = idle_max_w if idle_max_w is not None else self.idle_max_w
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

    ``violation_tolerance`` is the relative excess over the cap that
    counts as a violation; ``throttle_band`` the relative distance below
    the cap still counted as "pinned at the cap".  When
    ``violation_tolerance`` is None the tolerance is derived per cap from
    the GPU spec's regulation-error model (floored at 2 %) — deep caps
    legitimately overshoot more (Fig 10: ~8 % at the A100's 100 W
    floor), and the floor varies by platform.
    """

    def __init__(
        self,
        violation_tolerance: float | None = None,
        throttle_band: float = 0.05,
        gpu_spec: GpuSpec | None = None,
    ) -> None:
        if violation_tolerance is not None and violation_tolerance < 0:
            raise ValueError("violation_tolerance must be >= 0")
        if not 0.0 <= throttle_band < 1.0:
            raise ValueError("throttle_band must be in [0, 1)")
        self.violation_tolerance = violation_tolerance
        self.throttle_band = throttle_band
        self.gpu_spec = gpu_spec if gpu_spec is not None else default_gpu_spec()

    def tolerance_for(self, cap_w: float) -> float:
        """Effective violation tolerance at a cap.

        A fixed ``violation_tolerance`` wins; otherwise the spec's
        regulation error at this cap depth, floored at 2 %.
        """
        if self.violation_tolerance is not None:
            return self.violation_tolerance
        spec = self.gpu_spec
        span = spec.cap_max_w - spec.cap_min_w
        depth = (spec.cap_max_w - cap_w) / span if span > 0 else 0.0
        depth = min(max(depth, 0.0), 1.0)
        regulation = spec.regulation_error_max * depth**spec.regulation_error_exponent
        return max(0.02, regulation)

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
        if vmax < cap_w * (1.0 - self.throttle_band):
            return []
        pinned = values >= cap_w * (1.0 - self.throttle_band)
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
    "did not exceed five seconds".  A gap beyond ``max_gap_s`` within a
    stream — or silence longer than that at the end of the run — means
    the sampler (or the node) stopped reporting.
    """

    def __init__(self, max_gap_s: float = 5.0) -> None:
        if max_gap_s <= 0:
            raise ValueError(f"max_gap_s must be positive, got {max_gap_s}")
        self.max_gap_s = max_gap_s
        #: Stream key -> time of the last sample seen.
        self._last_seen: dict[str, float] = {}

    def observe_summary(
        self,
        key: str,
        first_s: float,
        last_s: float,
        intra_gap_s: float = -np.inf,
        intra_gap_time_s: float = 0.0,
        node_name: str | None = None,
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
        name = node_name if node_name is not None else key
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
        if worst_gap <= self.max_gap_s * (1.0 + 1e-9):
            return []
        return [
            HealthSignal(
                kind="sampler_staleness",
                node_name=name,
                time_s=worst_time,
                value=worst_gap,
                threshold=self.max_gap_s,
                detail=f"sample gap {worst_gap:.1f} s > {self.max_gap_s:.1f} s",
            )
        ]

    def sweep(self, now_s: float) -> list[HealthSignal]:
        """Flag every stream silent for longer than the gap bound."""
        signals = []
        for key, last in sorted(self._last_seen.items()):
            age = now_s - last
            if age > self.max_gap_s:
                signals.append(
                    HealthSignal(
                        kind="sampler_staleness",
                        node_name=key,
                        time_s=now_s,
                        value=age,
                        threshold=self.max_gap_s,
                        detail=f"no samples for {age:.1f} s",
                    )
                )
        return signals


@dataclass
class DriftDetector:
    """Node-vs-fleet z-score drift on per-node mean power.

    Each node's busy-power samples stream into its own
    :class:`RunningMoments`; at finalize the fleet distribution is the
    set of per-node means, and any node whose mean sits more than
    ``z_threshold`` standard deviations from it is drifting.
    """

    z_threshold: float = 2.5
    min_samples: int = 16
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
            if moments.count >= self.min_samples
        }
        if len(eligible) < 3:
            return []  # no meaningful fleet distribution
        fleet = RunningMoments()
        fleet.update(np.array([m.mean for m in eligible.values()]))
        signals = []
        for name in sorted(eligible):
            z = fleet.zscore(eligible[name].mean)
            if abs(z) > self.z_threshold:
                signals.append(
                    HealthSignal(
                        kind="fleet_drift",
                        node_name=name,
                        time_s=now_s,
                        value=z,
                        threshold=self.z_threshold,
                        detail=(
                            f"node mean {eligible[name].mean:.0f} W, fleet "
                            f"{fleet.mean:.0f} ± {fleet.std:.0f} W (z={z:+.2f})"
                        ),
                    )
                )
        return signals
