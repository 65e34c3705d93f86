"""Span-based tracing with a Chrome trace-event exporter.

The paper's methodology is built on timelines — OMNI power streams
aligned to job windows — and this module gives the reproduction harness
the same view of *itself*: nested spans around the hot layers (phase
resolution, trace rendering, sweep execution, cache lookups) exported in
the Chrome trace-event JSON format, loadable in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_.

Design constraints:

* **Disabled by default, near-zero overhead.**  The module-level
  :func:`span` helper checks one global and returns a shared no-op
  context manager when no tracer is installed — no allocation, no clock
  read.  The guarded sweep benches run with observability off and must
  not regress.
* **Thread- and process-safe identity.**  Every event records the OS
  process id and thread id it was emitted from, so traces from the
  serial path and from in-process threads interleave correctly in the
  viewer.  Sweep and fleet *worker processes* capture their own spans
  into an :class:`repro.obs.merge.ObsPartial` and ship them back with
  their results; :meth:`Tracer.absorb` rebases them onto the
  coordinator's epoch, so one exported file carries per-worker ``pid``
  rows.
* **Determinism.**  Tracing only ever reads the wall clock; it never
  touches the RNG streams or the computation, so instrumented runs are
  bit-identical to uninstrumented ones.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence


@dataclass(frozen=True)
class TraceEvent:
    """One completed span (Chrome trace-event ``ph: "X"``) or instant."""

    name: str
    category: str
    #: Microseconds since the tracer's epoch.
    start_us: float
    #: Span duration in microseconds; None marks an instant event.
    duration_us: float | None
    pid: int
    tid: int
    args: dict[str, Any] = field(default_factory=dict)

    def to_chrome(self) -> dict[str, Any]:
        """The Chrome trace-event dict for this event."""
        event: dict[str, Any] = {
            "name": self.name,
            "cat": self.category,
            "ph": "X" if self.duration_us is not None else "i",
            "ts": self.start_us,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.duration_us is not None:
            event["dur"] = self.duration_us
        else:
            event["s"] = "t"  # instant scope: thread
        if self.args:
            event["args"] = self.args
        return event


class _NullSpan:
    """Shared no-op context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def annotate(self, **kwargs: Any) -> None:
        """No-op counterpart of :meth:`_LiveSpan.annotate`."""


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An open span; records the event on ``__exit__``."""

    __slots__ = ("_tracer", "name", "category", "args", "_start_us")

    def __init__(
        self, tracer: "Tracer", name: str, category: str, args: dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self._start_us = 0.0

    def __enter__(self) -> "_LiveSpan":
        self._start_us = self._tracer._now_us()
        return self

    def __exit__(self, *exc: object) -> None:
        end_us = self._tracer._now_us()
        self._tracer._record(
            TraceEvent(
                name=self.name,
                category=self.category,
                start_us=self._start_us,
                duration_us=max(end_us - self._start_us, 0.0),
                pid=os.getpid(),
                tid=threading.get_ident(),
                args=self.args,
            )
        )

    def annotate(self, **kwargs: Any) -> None:
        """Attach extra args to the span while it is open."""
        self.args = {**self.args, **kwargs}


class Tracer:
    """Collects spans and instants; exports Chrome trace-event JSON.

    All public methods are thread-safe.  Timestamps come from
    ``time.perf_counter`` relative to the tracer's construction, so a
    trace always starts near ``ts = 0``.
    """

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        #: pid -> process label (``process_name`` metadata events).
        self._process_names: dict[int, str] = {}
        #: (pid, tid) -> thread label (``thread_name`` metadata events).
        self._thread_names: dict[tuple[int, int], str] = {}

    # -- recording ------------------------------------------------------
    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def _record(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)

    def span(self, name: str, category: str = "repro", **args: Any) -> _LiveSpan:
        """A context manager recording one complete ("X") event."""
        return _LiveSpan(self, name, category, args)

    def instant(self, name: str, category: str = "repro", **args: Any) -> None:
        """Record a zero-duration instant event."""
        self._record(
            TraceEvent(
                name=name,
                category=category,
                start_us=self._now_us(),
                duration_us=None,
                pid=os.getpid(),
                tid=threading.get_ident(),
                args=args,
            )
        )

    def name_process(self, name: str, pid: int | None = None) -> None:
        """Label a process row in the trace viewer.

        Emitted as a ``process_name`` metadata event (``ph: "M"``) —
        Perfetto / ``chrome://tracing`` show the label instead of the
        bare pid.  Defaults to the calling process.
        """
        key = pid if pid is not None else os.getpid()
        with self._lock:
            self._process_names[key] = name

    def name_thread(
        self, name: str, tid: int | None = None, pid: int | None = None
    ) -> None:
        """Label a thread row in the trace viewer (``thread_name``).

        Defaults to the calling thread of the calling process.
        """
        key = (
            pid if pid is not None else os.getpid(),
            tid if tid is not None else threading.get_ident(),
        )
        with self._lock:
            self._thread_names[key] = name

    # -- cross-process merge --------------------------------------------
    @property
    def epoch_perf_s(self) -> float:
        """This tracer's epoch on the ``time.perf_counter`` clock.

        On platforms where ``perf_counter`` is a system-wide monotonic
        clock (Linux: ``CLOCK_MONOTONIC``), two processes' epochs are
        directly comparable — which is what lets :meth:`absorb` rebase a
        worker tracer's timestamps onto the coordinator's timeline.
        """
        return self._epoch

    def metadata(self) -> tuple[dict[int, str], dict[tuple[int, int], str]]:
        """Copies of the (process_names, thread_names) label maps."""
        with self._lock:
            return dict(self._process_names), dict(self._thread_names)

    def absorb(
        self,
        events: "Sequence[TraceEvent]",
        *,
        process_names: dict[int, str] | None = None,
        thread_names: dict[tuple[int, int], str] | None = None,
        offset_us: float = 0.0,
    ) -> int:
        """Merge events recorded by another tracer into this one.

        ``offset_us`` shifts the incoming timestamps onto this tracer's
        epoch (``(other.epoch_perf_s - self.epoch_perf_s) * 1e6`` when
        both epochs share a clock).  Process/thread labels merge in;
        events keep their origin pid/tid, so a merged Chrome export shows
        one row per worker process.  Returns the number of events added.
        """
        shifted = [
            replace(event, start_us=event.start_us + offset_us) for event in events
        ]
        with self._lock:
            self._events.extend(shifted)
            if process_names:
                self._process_names.update(process_names)
            if thread_names:
                self._thread_names.update(thread_names)
        return len(shifted)

    # -- inspection / export -------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """Snapshot of the recorded events (copy; safe to iterate)."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        """Drop all recorded events."""
        with self._lock:
            self._events.clear()

    def to_chrome(self) -> dict[str, Any]:
        """The full trace as a Chrome trace-event JSON object.

        Metadata (``ph: "M"`` ``process_name`` / ``thread_name``) events
        lead the event list, per the trace-event format: viewers apply
        row labels before laying out the spans.
        """
        with self._lock:
            process_names = dict(self._process_names)
            thread_names = dict(self._thread_names)
        metadata: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": name},
            }
            for pid, name in sorted(process_names.items())
        ]
        metadata += [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
            for (pid, tid), name in sorted(thread_names.items())
        ]
        return {
            "traceEvents": metadata + [e.to_chrome() for e in self.events],
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs"},
        }

    def export_chrome(self, path: str | Path) -> Path:
        """Write the Chrome trace-event JSON file; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome(), indent=None) + "\n")
        return path
