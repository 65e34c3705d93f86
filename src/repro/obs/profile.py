"""Exact span self-time profile: a view of the span trace.

Spans (:mod:`repro.obs.trace`) say *that* a phase was slow; this module
says *where the time went* across phases, without measuring anything
again.  Every completed span already carries its exact start and
duration, so a span's **self time** is its duration minus its direct
children's.  :func:`span_self_times` folds a tracer's events into
``{process label: {span path: seconds}}`` where a span path is the
open-span stack ``("span:<outer>", ..., "span:<inner>")``.

The view is exact where a sampler would be biased: coarse samples hide
short phases the same way coarse power telemetry hides peaks.  Each
process row's total weight equals the summed durations of that
process's top-level spans.  Python frames below the innermost span are
not shown; stdlib ``python -m cProfile -m repro ...`` gives exact
function rows.

A sharded run needs nothing extra: worker spans reach the coordinator's
tracer through :func:`repro.obs.merge.absorb_partial` with their origin
pid, so one merged trace gives one row per worker process.

Exports:

* :func:`to_speedscope` — the `speedscope <https://speedscope.app>`_
  JSON file format, one weighted profile per process label;
* :func:`to_collapsed` — Brendan-Gregg collapsed stacks
  (``label;span:<outer>;...;span:<inner> microseconds``) for flamegraph
  tooling;
* :func:`top_spans` — a plain-text self-time report (per span path and
  per span name).

Activation mirrors tracing: ``--profile FILE`` on the CLI or
``REPRO_PROFILE=FILE`` in the environment (``.json``/``.speedscope``
suffixes select speedscope output, ``.txt`` the report, anything else
collapsed stacks).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.obs.trace import TraceEvent

#: ``{process label: {span path: self seconds}}``.
SpanRows = dict[str, dict[tuple[str, ...], float]]


def span_self_times(
    events: Iterable[TraceEvent], process_names: dict[int, str]
) -> SpanRows:
    """Exact self time per open-span path, one row per process label.

    Spans on one ``(pid, tid)`` nest strictly, so sorting them by
    ``(start, -duration)`` puts every parent before its children and a
    stack walk finds each span's parent.  Exact ties break by recording
    order: a span is recorded when it closes, so a child is recorded
    before its parent.  Instants carry no time and are skipped.  Rows
    are labelled from ``process_names`` (falling back to ``pid N``);
    threads of one process share its row.
    """
    threads: dict[tuple[int, int], list[tuple[float, float, int, str]]] = {}
    for order, event in enumerate(events):
        if event.duration_us is not None:
            threads.setdefault((event.pid, event.tid), []).append(
                (event.start_us, -event.duration_us, -order, event.name)
            )
    rows_us: SpanRows = {}
    for (pid, _tid), spans in threads.items():
        row = rows_us.setdefault(process_names.get(pid, f"pid {pid}"), {})
        stack: list[tuple[tuple[str, ...], float]] = []  # open (path, end_us)
        for start_us, neg_duration_us, _order, name in sorted(spans):
            end_us = start_us - neg_duration_us
            while stack and end_us > stack[-1][1]:
                stack.pop()
            parent = stack[-1][0] if stack else ()
            if parent:
                row[parent] += neg_duration_us  # a child's time is not its parent's
            path = (*parent, f"span:{name}")
            row[path] = row.get(path, 0.0) - neg_duration_us
            stack.append((path, end_us))
    return {
        label: {path: us / 1e6 for path, us in row.items()}
        for label, row in rows_us.items()
    }


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def to_speedscope(rows: SpanRows, name: str = "repro profile") -> dict[str, Any]:
    """Span self times as a speedscope JSON document.

    Each process label becomes one *sampled* profile entry — speedscope
    renders them as switchable rows, so a merged sharded capture shows
    the coordinator and every worker side by side.  Each span path is
    one sample weighted by its self time in seconds.
    """
    frame_index: dict[str, int] = {}
    frames: list[dict[str, str]] = []

    def index_of(label: str) -> int:
        at = frame_index.get(label)
        if at is None:
            at = frame_index[label] = len(frames)
            frames.append({"name": label})
        return at

    profiles = []
    for label in sorted(rows):
        samples: list[list[int]] = []
        weights: list[float] = []
        for stack, seconds in sorted(rows[label].items()):
            samples.append([index_of(frame) for frame in stack])
            weights.append(seconds)
        profiles.append(
            {
                "type": "sampled",
                "name": label,
                "unit": "seconds",
                "startValue": 0,
                "endValue": round(sum(weights), 9),
                "samples": samples,
                "weights": [round(w, 9) for w in weights],
            }
        )
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": profiles,
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro.obs.profile",
    }


def to_collapsed(rows: SpanRows) -> str:
    """Collapsed-stack text: ``label;span:<s>;... microseconds`` per line."""
    lines = []
    for label in sorted(rows):
        for stack, seconds in sorted(rows[label].items()):
            lines.append(";".join([label, *stack]) + f" {round(seconds * 1e6)}")
    return "\n".join(lines) + ("\n" if lines else "")


def top_spans(rows: SpanRows, limit: int = 15) -> str:
    """Plain-text self-time report: hottest span paths, then span names."""
    path_s: dict[str, float] = {}
    name_s: dict[str, float] = {}
    for stacks in rows.values():
        for stack, seconds in stacks.items():
            path = ";".join(stack)
            path_s[path] = path_s.get(path, 0.0) + seconds
            name_s[stack[-1]] = name_s.get(stack[-1], 0.0) + seconds
    total = sum(path_s.values())
    if total <= 0.0:
        return "profile is empty (no spans)\n"
    lines = [
        f"profile: {total:.3f} s of span self time across {len(rows)} "
        "process row(s)",
        "",
        f"{'self (s)':>9}  {'share':>6}  span path",
    ]
    ranked = sorted(path_s.items(), key=lambda kv: (-kv[1], kv[0]))
    for path, seconds in ranked[:limit]:
        lines.append(f"{seconds:>9.3f}  {seconds / total:>6.1%}  {path}")
    lines += ["", f"{'self (s)':>9}  {'share':>6}  span"]
    for span, seconds in sorted(name_s.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"{seconds:>9.3f}  {seconds / total:>6.1%}  {span}")
    return "\n".join(lines) + "\n"


def export_profile(rows: SpanRows, path: "str | Path") -> str:
    """Write span self times to ``path`` in the format its suffix names.

    ``.json`` / ``.speedscope`` get the speedscope document, ``.txt``
    the plain-text :func:`top_spans` report; any other suffix gets
    collapsed stacks.  Returns the kind of file written.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in {".json", ".speedscope"}:
        path.write_text(json.dumps(to_speedscope(rows)) + "\n")
        return "speedscope-profile"
    if suffix == ".txt":
        path.write_text(top_spans(rows))
        return "profile-report"
    path.write_text(to_collapsed(rows))
    return "collapsed-profile"
