"""Counters, gauges and histograms with Prometheus/JSON exporters.

The metric model mirrors what an LDMS/OMNI-style collector would scrape
from a production deployment of this simulator: monotonic counters
(cache hits, specs executed), point-in-time gauges (worker counts) and
latency histograms (per-spec sweep latency), exposed in the Prometheus
text exposition format plus a JSON snapshot for programmatic use.

Like :mod:`repro.obs.trace`, everything here is observation-only: a
metric update never feeds back into the computation, so instrumented
runs stay bit-identical to uninstrumented ones.
"""

from __future__ import annotations

import importlib
import json
import math
import threading
from pathlib import Path
from typing import Any, Iterable

#: Default histogram bucket upper bounds, in seconds — tuned for the
#: sweep/engine latencies this harness sees (sub-millisecond cache hits
#: up to multi-second full-pipeline runs).
DEFAULT_BUCKETS_S: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format.

    Backslash, double-quote and line-feed must be escaped (in that
    order, so inserted backslashes are not re-escaped).
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape ``# HELP`` text: backslash and line-feed only."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in key
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    value = float(value)
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if math.isnan(value):
        return "NaN"
    if value.is_integer():
        return str(int(value))
    return repr(value)


class _LabelledMetric:
    """Labelled float series: the body :class:`Counter` and :class:`Gauge` share.

    Subclasses name their exposition ``kind`` and supply the update
    (``inc`` / ``set``) and the cross-process merge rule.
    """

    kind = ""

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._lock = threading.Lock()
        self._values: dict[_LabelKey, float] = {}

    def value(self, **labels: str) -> float:
        """Current value of one labelled series (0 if never updated)."""
        return self._values.get(_label_key(labels), 0.0)

    # -- export --------------------------------------------------------
    def expose(self) -> list[str]:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {_escape_help(self.help_text)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        with self._lock:
            series = sorted(self._values.items())
        if not series:
            series = [((), 0.0)]
        for key, value in series:
            lines.append(f"{self.name}{_format_labels(key)} {_format_value(value)}")
        return lines

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            series = {
                _format_labels(key) or "": value
                for key, value in sorted(self._values.items())
            }
        return {"type": self.kind, "help": self.help_text, "values": series}

    # -- cross-process merge --------------------------------------------
    def state(self) -> dict[str, Any]:
        """Picklable per-series state (for :mod:`repro.obs.merge`)."""
        with self._lock:
            return {"values": dict(self._values)}


class Counter(_LabelledMetric):
    """A monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def total(self) -> float:
        """Sum across all labelled series."""
        with self._lock:
            return sum(self._values.values())

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold another counter's :meth:`state` in (values add).

        Addition is commutative, so merging worker states in any arrival
        order yields exactly the totals a serial run would have counted.
        """
        with self._lock:
            for key, value in state["values"].items():
                self._values[key] = self._values.get(key, 0.0) + value


class Gauge(_LabelledMetric):
    """A point-in-time value that can move both ways."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Set the labelled series to ``value``."""
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold another gauge's :meth:`state` in (last writer wins).

        Gauges are point-in-time readings, so a worker's value replaces
        the local one — the merged gauge reports whatever was observed
        most recently in absorb order.
        """
        with self._lock:
            self._values.update(state["values"])


class Histogram:
    """A cumulative-bucket histogram (Prometheus semantics).

    Tracks per-bucket counts plus ``_sum`` and ``_count``; buckets are
    upper bounds with an implicit ``+Inf`` bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS_S,
    ) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.name = name
        self.help_text = help_text
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._total = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._sum += value
            self._total += 1
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        """Total observations."""
        return self._total

    @property
    def sum(self) -> float:
        """Sum of observed values."""
        return self._sum

    def expose(self) -> list[str]:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {_escape_help(self.help_text)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        with self._lock:
            counts = list(self._counts)
            total = self._total
            value_sum = self._sum
        cumulative = 0
        for bound, count in zip(self.bounds + [math.inf], counts):
            cumulative += count
            label = _format_labels((("le", _format_value(bound)),))
            lines.append(f"{self.name}_bucket{label} {cumulative}")
        lines.append(f"{self.name}_sum {_format_value(value_sum)}")
        lines.append(f"{self.name}_count {total}")
        return lines

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "type": self.kind,
                "help": self.help_text,
                "buckets": {
                    _format_value(bound): count
                    for bound, count in zip(self.bounds, self._counts)
                },
                "inf": self._counts[-1],
                "sum": self._sum,
                "count": self._total,
            }

    # -- cross-process merge --------------------------------------------
    def state(self) -> dict[str, Any]:
        """Picklable bucket state (for :mod:`repro.obs.merge`)."""
        with self._lock:
            return {
                "bounds": tuple(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._total,
            }

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold another histogram's :meth:`state` in (bucket counts add).

        Raises
        ------
        ValueError
            If the bucket bounds differ — counts cannot be re-bucketed.
        """
        if tuple(state["bounds"]) != tuple(self.bounds):
            raise ValueError(
                f"histogram {self.name}: cannot merge states with different "
                f"bucket bounds ({state['bounds']} vs {self.bounds})"
            )
        with self._lock:
            for index, count in enumerate(state["counts"]):
                self._counts[index] += count
            self._sum += state["sum"]
            self._total += state["count"]


_STATS_SOURCES: dict[str, Any] = {}


def register_stats(key: str, source: Any) -> None:
    """Register a process account: counts kept once, in a stats object.

    ``source.state()`` gives the counts by name, ``merge_state(counts)``
    adds a worker's delta and ``counters(counts)`` lists the ``(name,
    labels, value)`` series they render as.  ``key`` is ``"<module>:<name>"``
    of the registering module, imported when a worker's delta names it.
    """
    _STATS_SOURCES[key] = source


def stats_delta(before: dict | None = None) -> dict[str, dict[str, int]]:
    """Counts the accounts gained since ``before`` (an earlier result;
    None: every count so far), changed accounts only.  A count below its
    baseline was reset since, so all of it is new."""
    delta = {}
    for key, account in _STATS_SOURCES.items():
        base = (before or {}).get(key, {})
        diff = {
            name: value - base.get(name, 0) if value >= base.get(name, 0) else value
            for name, value in account.state().items()
        }
        if any(diff.values()):
            delta[key] = diff
    return delta


def merge_stats(delta: dict[str, dict[str, int]]) -> None:
    """Add a :func:`stats_delta` (shipped by a worker) to the accounts."""
    for key, counts in sorted(delta.items()):
        if key not in _STATS_SOURCES:
            importlib.import_module(key.partition(":")[0])
        _STATS_SOURCES[key].merge_state(counts)


class MetricsRegistry:
    """Get-or-create registry of named metrics with both exporters.

    Exports and lookups also render the process accounts' counts since
    the registry was created; :meth:`state` leaves them out, as workers
    ship those counts as a stats delta (shipping both would double them).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._stats_base = stats_delta()

    def _get_or_create(self, kind: type, name: str, *args: Any) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = kind(name, *args)
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create the named counter."""
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create the named gauge."""
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS_S,
    ) -> Histogram:
        """Get or create the named histogram."""
        return self._get_or_create(Histogram, name, help_text, buckets)

    def _all(self) -> dict[str, Counter | Gauge | Histogram]:
        """Registered metrics plus the accounts' counters, sorted by name."""
        metrics: dict[str, Counter | Gauge | Histogram] = {}
        for key, counts in stats_delta(self._stats_base).items():
            for name, labels, value in _STATS_SOURCES[key].counters(counts):
                if value:
                    metrics.setdefault(name, Counter(name)).inc(value, **labels)
        with self._lock:
            metrics.update(self._metrics)
        return dict(sorted(metrics.items()))

    # -- inspection ----------------------------------------------------
    def names(self) -> list[str]:
        """Metric names, sorted."""
        return list(self._all())

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The named metric, or None."""
        return self._all().get(name)

    def __len__(self) -> int:
        return len(self._all())

    # -- export --------------------------------------------------------
    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: list[str] = []
        for metric in self._all().values():
            lines.extend(metric.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict[str, Any]:
        """Snapshot of every metric as plain JSON-ready data."""
        return {name: metric.snapshot() for name, metric in self._all().items()}

    # -- cross-process merge --------------------------------------------
    def state(self) -> dict[str, Any]:
        """Picklable snapshot of every registered metric's mergeable state.

        The payload :class:`repro.obs.merge.ObsPartial` ships across the
        process-pool boundary; :meth:`merge_state` folds it back in.
        """
        with self._lock:
            metrics = list(self._metrics.items())
        return {
            name: {"kind": metric.kind, "help": metric.help_text, "state": metric.state()}
            for name, metric in metrics
        }

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold a :meth:`state` payload in (get-or-create, then merge).

        Counters add, gauges take the incoming value, histograms add
        bucket counts — so merging every worker's registry into the
        coordinator's reproduces exactly the counter totals a serial run
        accumulates in one process.
        """
        for name, entry in sorted(state.items()):
            kind, help_text = entry["kind"], entry["help"]
            if kind == "histogram":
                metric = self.histogram(name, help_text, entry["state"]["bounds"])
            elif kind in ("counter", "gauge"):
                metric = getattr(self, kind)(name, help_text)
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
            metric.merge_state(entry["state"])

    def export_prometheus(self, path: str | Path) -> Path:
        """Write the Prometheus exposition to a file; returns the path."""
        path = Path(path)
        path.write_text(self.to_prometheus())
        return path

    def export_json(self, path: str | Path) -> Path:
        """Write the JSON snapshot to a file; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path
