"""Cross-process observability: capture in workers, fold at the coordinator.

Sharded fleet rendering executes in worker processes (sweeps always run
in the calling process), and a per-process tracer/registry dies with its
worker.  Every shard task therefore runs under one capture and ships
what it recorded home the way the simulation itself crosses the pool
boundary: in a compact, picklable partial.

* :func:`begin_worker_capture` swaps a **fresh, in-memory** tracer and
  registry (for the layers the coordinator has on) into the worker's
  global obs state — no export paths, so a worker never writes the
  coordinator's files — and snapshots the process accounts
  (:func:`repro.obs.register_stats`).
* :func:`finish_worker_capture` restores the previous state and returns
  an :class:`ObsPartial`: spans with their origin pid/tid and labels,
  the tracer's ``perf_counter`` epoch, the metrics state and the counts
  the accounts gained.
* :func:`absorb_partial` folds it into the coordinator: spans are
  rebased by the epoch delta (``perf_counter`` is system-wide monotonic
  on Linux), metrics and account counts add — so merged totals equal a
  serial run's **exactly**, since both modes count the same events.

Like everything else in :mod:`repro.obs`, capture is observation-only:
the rendered partials a worker ships are byte-identical with capture on
or off.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro import obs
from repro.obs.metrics import MetricsRegistry, merge_stats, stats_delta
from repro.obs.trace import TraceEvent, Tracer


@dataclass(frozen=True)
class ObsPartial:
    """One worker's observability capture, ready to cross the pool boundary.

    Everything in here is plain picklable data.  ``epoch_perf_s`` is the
    worker tracer's ``time.perf_counter`` epoch — the coordinator rebases
    ``events`` by the delta against its own epoch so worker spans land at
    the right wall-clock position in the merged timeline.
    """

    pid: int
    epoch_perf_s: float
    events: tuple[TraceEvent, ...] = ()
    process_names: dict[int, str] = field(default_factory=dict)
    thread_names: dict[tuple[int, int], str] = field(default_factory=dict)
    #: ``MetricsRegistry.state()`` payload; None when metrics were off.
    metrics_state: dict | None = None
    #: Counts the process accounts gained (shipped in every mode).
    stats_delta: dict = field(default_factory=dict)

    @property
    def span_count(self) -> int:
        """Recorded trace events in this capture."""
        return len(self.events)


def capture_flags() -> tuple[bool, bool]:
    """The (trace, metrics) layers the coordinator has on.

    Shipped inside worker task payloads so workers enable exactly the
    layers the coordinator is collecting.  A coordinator profile needs
    no flag of its own: it is built from the merged worker spans.
    """
    return obs.tracing_active(), obs.metrics() is not None


def begin_worker_capture(
    trace: bool = True,
    metrics: bool = True,
    process_label: str | None = None,
):
    """Install fresh in-memory obs state in this (worker) process.

    Returns an opaque token for :func:`finish_worker_capture`.  The fresh
    state has **no export paths**: a worker's atexit flush can therefore
    never clobber the coordinator's configured trace/metrics files, even
    if the worker inherited them via fork or ``REPRO_TRACE``.
    """
    previous = obs._STATE
    fresh = obs._ObsState()
    label = (
        process_label
        if process_label is not None
        else f"repro worker {os.getpid()}"
    )
    if trace:
        fresh.tracer = Tracer()
        fresh.tracer.name_process(label)
        fresh.tracer.name_thread("render")
    if metrics:
        fresh.registry = MetricsRegistry()
    obs._STATE = fresh
    return previous, stats_delta()


def finish_worker_capture(token) -> ObsPartial | None:
    """Restore the pre-capture obs state; return what was recorded.

    Returns None when the capture collected nothing (both layers off and
    no account changed).  Safe to call in a ``finally`` — restoration
    happens even if the captured work raised.
    """
    previous, stats_before = token
    captured = obs._STATE
    obs._STATE = previous
    tracer = captured.tracer
    registry = captured.registry
    delta = stats_delta(stats_before)
    if tracer is None and registry is None and not delta:
        return None
    process_names: dict[int, str] = {}
    thread_names: dict[tuple[int, int], str] = {}
    events: tuple[TraceEvent, ...] = ()
    epoch = time.perf_counter()
    if tracer is not None:
        epoch = tracer.epoch_perf_s
        events = tuple(tracer.events)
        process_names, thread_names = tracer.metadata()
    return ObsPartial(
        pid=os.getpid(),
        epoch_perf_s=epoch,
        events=events,
        process_names=process_names,
        thread_names=thread_names,
        metrics_state=registry.state() if registry is not None else None,
        stats_delta=delta,
    )


def absorb_partial(partial: ObsPartial | None) -> None:
    """Fold one worker's capture into the coordinator's accounts and state.

    No-op for None partials and for layers the coordinator no longer has
    on.  Deliberately records no bookkeeping metrics of its own — a
    "partials absorbed" counter would break the merged-counters ==
    serial-counters contract the sharded path guarantees.
    """
    if partial is None:
        return
    merge_stats(partial.stats_delta)
    tracer = obs.tracer()
    if tracer is not None and (
        partial.events or partial.process_names or partial.thread_names
    ):
        offset_us = (partial.epoch_perf_s - tracer.epoch_perf_s) * 1e6
        tracer.absorb(
            partial.events,
            process_names=partial.process_names,
            thread_names=partial.thread_names,
            offset_us=offset_us,
        )
    registry = obs.metrics()
    if registry is not None and partial.metrics_state:
        registry.merge_state(partial.metrics_state)
