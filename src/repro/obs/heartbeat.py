"""Live progress telemetry for long fleet runs: the heartbeat file.

A 100k-node sharded simulation runs for a long time with nothing but a
final report at the end — inoperable mid-flight.  The fleet fold calls a
:class:`RunHeartbeat` after every folded job; the heartbeat throttles
itself (at most one emission per ``min_interval_s``) and publishes a
compact JSON snapshot — jobs folded, node-weighted progress, nodes/sec,
ETA, age of the last checkpoint — to an atomically-replaced file.
``watch -n1 cat heartbeat.json`` (or any scraper) then shows a live
view of the run; the atomic replace means a reader never sees a torn
file.

Progress is **node-weighted**: jobs vary enormously in render cost, and
cost scales with allocated nodes, so nodes-folded-per-second is a far
better rate estimate than jobs/sec.  Resumed prefixes are excluded from
the rate (they cost nothing this run) via :meth:`resume_baseline`.

Activation mirrors the checkpoint machinery: the ``--heartbeat PATH``
CLI flag or the ``REPRO_FLEET_HEARTBEAT`` environment variable.
Everything here is observation-only — a heartbeat never changes a
simulation result.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.obs.ledger import utc_now_iso
from repro.runner.cache import atomic_write_bytes

logger = logging.getLogger(__name__)

#: Path suffixes of the fleet comparison's (capped, uncapped) policies.
#: Each policy is its own simulation, so its checkpoint and heartbeat
#: files sit beside the base path under its own suffix.
POLICY_SUFFIXES = (".capped", ".uncapped")


def policy_path(base: Path | None, suffix: str) -> Path | None:
    """``base`` with one policy's suffix appended (None stays None)."""
    return base.with_name(base.name + suffix) if base is not None else None


def policy_paths(base: Path) -> list[Path]:
    """``base`` and its per-policy variants, the files a fleet run may write."""
    return [base] + [policy_path(base, suffix) for suffix in POLICY_SUFFIXES]


@dataclass(frozen=True)
class HeartbeatSnapshot:
    """One published progress reading."""

    label: str
    pid: int
    jobs_folded: int
    jobs_total: int
    nodes_folded: int
    nodes_total: int
    elapsed_s: float
    #: Fresh (non-resumed) nodes folded per wall-clock second.
    nodes_per_s: float
    #: Estimated seconds to completion; None before a rate exists.
    eta_s: float | None
    #: Seconds since the last fleet checkpoint write; None when
    #: checkpointing is off or nothing has been written yet.
    checkpoint_age_s: float | None
    done: bool
    updated_at: str

    @property
    def progress(self) -> float:
        """Node-weighted completion fraction in [0, 1]."""
        if self.nodes_total > 0:
            return min(self.nodes_folded / self.nodes_total, 1.0)
        if self.jobs_total > 0:
            return min(self.jobs_folded / self.jobs_total, 1.0)
        return 1.0 if self.done else 0.0

    def to_json(self) -> dict[str, Any]:
        """JSON-ready snapshot (what the heartbeat file contains)."""
        return {
            "label": self.label,
            "pid": self.pid,
            "jobs_folded": self.jobs_folded,
            "jobs_total": self.jobs_total,
            "nodes_folded": self.nodes_folded,
            "nodes_total": self.nodes_total,
            "progress": round(self.progress, 6),
            "elapsed_s": round(self.elapsed_s, 3),
            "nodes_per_s": round(self.nodes_per_s, 3),
            "eta_s": round(self.eta_s, 3) if self.eta_s is not None else None,
            "checkpoint_age_s": (
                round(self.checkpoint_age_s, 3)
                if self.checkpoint_age_s is not None
                else None
            ),
            "done": self.done,
            "updated_at": self.updated_at,
        }


class RunHeartbeat:
    """Throttled progress publisher for one fleet simulation.

    Parameters
    ----------
    path:
        Atomically-replaced JSON snapshot file (None: no file).
    min_interval_s:
        Emission floor; :meth:`update` calls inside the window are
        dropped (``force=True`` bypasses).  0 emits every update.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        path: "str | Path | None" = None,
        *,
        label: str = "fleet",
        jobs_total: int = 0,
        nodes_total: int = 0,
        min_interval_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.label = label
        self.jobs_total = jobs_total
        self.nodes_total = nodes_total
        self.min_interval_s = min_interval_s
        self._clock = clock
        self._t0 = clock()
        self._last_emit: float | None = None
        self._last_checkpoint: float | None = None
        self._jobs0 = 0
        self._nodes0 = 0
        #: Snapshots actually emitted (after throttling).
        self.emits = 0

    def resume_baseline(self, jobs_folded: int, nodes_folded: int) -> None:
        """Exclude a resumed prefix from the rate/ETA estimate."""
        self._jobs0 = jobs_folded
        self._nodes0 = nodes_folded

    def note_checkpoint(self) -> None:
        """Record that a fleet checkpoint was just written."""
        self._last_checkpoint = self._clock()

    def update(
        self,
        jobs_folded: int,
        nodes_folded: int,
        *,
        force: bool = False,
        done: bool = False,
    ) -> HeartbeatSnapshot | None:
        """Publish progress; returns the snapshot, or None when throttled."""
        now = self._clock()
        if (
            not force
            and self._last_emit is not None
            and (now - self._last_emit) < self.min_interval_s
        ):
            return None
        self._last_emit = now
        elapsed = max(now - self._t0, 0.0)
        fresh_nodes = max(nodes_folded - self._nodes0, 0)
        # Zero-elapsed updates (first fold lands inside clock resolution)
        # and fully-resumed runs (no fresh work this process) both have
        # no rate to report: rate stays 0 and the ETA stays null rather
        # than a ZeroDivisionError or an inf that json.dumps rejects.
        rate = fresh_nodes / elapsed if elapsed > 0 and fresh_nodes > 0 else 0.0
        if not math.isfinite(rate):
            rate = 0.0
        remaining = max(self.nodes_total - nodes_folded, 0)
        if done:
            eta: float | None = 0.0
        elif rate > 0:
            eta = remaining / rate
            if not math.isfinite(eta):
                eta = None
        else:
            eta = None
        snapshot = HeartbeatSnapshot(
            label=self.label,
            pid=os.getpid(),
            jobs_folded=jobs_folded,
            jobs_total=self.jobs_total,
            nodes_folded=nodes_folded,
            nodes_total=self.nodes_total,
            elapsed_s=elapsed,
            nodes_per_s=rate,
            eta_s=eta,
            checkpoint_age_s=(
                now - self._last_checkpoint
                if self._last_checkpoint is not None
                else None
            ),
            done=done,
            updated_at=utc_now_iso(),
        )
        if self.path is not None:
            try:
                atomic_write_bytes(
                    self.path,
                    (json.dumps(snapshot.to_json(), sort_keys=True) + "\n").encode(),
                )
            except OSError as exc:
                # A broken heartbeat must never take the run down; stop
                # writing and keep simulating.
                logger.warning(
                    "heartbeat write to %s failed (%s); disabling the file",
                    self.path,
                    exc,
                )
                self.path = None
        self.emits += 1
        return snapshot

    def finish(self, jobs_folded: int, nodes_folded: int) -> HeartbeatSnapshot:
        """Force-publish the terminal snapshot (``done: true``)."""
        snapshot = self.update(jobs_folded, nodes_folded, force=True, done=True)
        assert snapshot is not None  # force=True always emits
        return snapshot


def read_heartbeat(path: "str | Path") -> dict[str, Any]:
    """Parse a heartbeat file back to its JSON dict."""
    return json.loads(Path(path).read_text())
