"""Tests for counters/gauges/histograms and both exporters."""

import json
import math
import re

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

#: A Prometheus text-exposition sample line:  name{labels} value
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[0-9.eE+-]+|\+Inf|-Inf|NaN)$"
)


def parse_exposition(text: str) -> dict[str, float]:
    """Parse-check an exposition; returns {series: value}.

    Raises AssertionError on any malformed line, so tests using this
    helper double as format validators.
    """
    series: dict[str, float] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert not line.startswith("#"), f"unknown comment line: {line!r}"
        match = _SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        key = match.group("name") + (match.group("labels") or "")
        series[key] = float(match.group("value").replace("+Inf", "inf"))
    return series


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("jobs_total")
        c.inc()
        c.inc(2.0)
        assert c.value() == 3.0
        assert c.total() == 3.0

    def test_labelled_series_are_independent(self):
        c = Counter("hits_total")
        c.inc(cache="run", layer="memory")
        c.inc(cache="run", layer="disk")
        c.inc(cache="run", layer="memory")
        assert c.value(cache="run", layer="memory") == 2.0
        assert c.value(cache="run", layer="disk") == 1.0
        assert c.total() == 3.0

    def test_label_order_does_not_matter(self):
        c = Counter("x_total")
        c.inc(a="1", b="2")
        assert c.value(b="2", a="1") == 1.0

    def test_rejects_negative_increment(self):
        c = Counter("x_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1.0)

    def test_expose_without_series_emits_zero(self):
        lines = Counter("x_total", "help me").expose()
        assert "# HELP x_total help me" in lines
        assert "# TYPE x_total counter" in lines
        assert "x_total 0" in lines


class TestGauge:
    def test_set_moves_both_ways(self):
        g = Gauge("workers")
        g.set(4.0)
        assert g.value() == 4.0
        g.set(3.0)  # gauges may decrease
        assert g.value() == 3.0

    def test_labelled_gauge(self):
        g = Gauge("depth")
        g.set(1.5, node="a")
        g.set(2.5, node="b")
        assert g.value(node="a") == 1.5
        assert g.value(node="b") == 2.5


class TestHistogram:
    def test_cumulative_buckets(self):
        h = Histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)
        series = parse_exposition("\n".join(h.expose()))
        assert series['lat_seconds_bucket{le="0.1"}'] == 1
        assert series['lat_seconds_bucket{le="1"}'] == 3
        assert series['lat_seconds_bucket{le="10"}'] == 4
        assert series['lat_seconds_bucket{le="+Inf"}'] == 5
        assert series["lat_seconds_count"] == 5

    def test_boundary_value_lands_in_its_bucket(self):
        h = Histogram("x_seconds", buckets=(1.0,))
        h.observe(1.0)  # le semantics: exactly-at-bound counts in-bucket
        series = parse_exposition("\n".join(h.expose()))
        assert series['x_seconds_bucket{le="1"}'] == 1

    def test_requires_buckets(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("x_seconds", buckets=())

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS_S) == sorted(DEFAULT_BUCKETS_S)

    def test_snapshot(self):
        h = Histogram("x_seconds", buckets=(1.0,))
        h.observe(0.5)
        h.observe(2.0)
        snap = h.snapshot()
        assert snap["type"] == "histogram"
        assert snap["buckets"] == {"1": 1}
        assert snap["inf"] == 1
        assert snap["count"] == 2
        assert snap["sum"] == pytest.approx(2.5)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert len(reg) == 1

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_names_and_get(self):
        reg = MetricsRegistry()
        reg.gauge("g")
        reg.counter("c")
        assert reg.names() == ["c", "g"]
        assert isinstance(reg.get("g"), Gauge)
        assert reg.get("missing") is None

    def test_to_prometheus_parses_and_orders_metrics(self):
        reg = MetricsRegistry()
        reg.counter("repro_b_total", "second").inc(3, kind="x")
        reg.gauge("repro_a_workers", "first").set(2)
        reg.histogram("repro_c_seconds").observe(0.02)
        text = reg.to_prometheus()
        series = parse_exposition(text)  # parse-check every line
        assert series['repro_b_total{kind="x"}'] == 3
        assert series["repro_a_workers"] == 2
        assert series["repro_c_seconds_count"] == 1
        # +Inf bucket must always equal _count.
        assert series['repro_c_seconds_bucket{le="+Inf"}'] == 1
        # Metrics are emitted in sorted-name order.
        assert text.index("repro_a_workers") < text.index("repro_b_total")

    def test_empty_registry_exposes_empty_string(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(2, cache="run")
        reg.gauge("g").set(1.5)
        data = json.loads(json.dumps(reg.to_json()))
        assert data["c_total"]["values"]['{cache="run"}'] == 2.0
        assert data["g"]["values"][""] == 1.5

    def test_file_exports(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        prom = reg.export_prometheus(tmp_path / "m.prom")
        js = reg.export_json(tmp_path / "m.json")
        assert parse_exposition(prom.read_text())["c_total"] == 1
        assert json.loads(js.read_text())["c_total"]["type"] == "counter"

    def test_inf_formatting(self):
        h = Histogram("x_seconds", buckets=(math.inf,))
        h.observe(1e12)
        lines = h.expose()
        assert any('le="+Inf"' in line for line in lines)


def parse_exposition_strict(text: str):
    """Quote-aware exposition parser that un-escapes label values.

    Returns ({(name, ((label, value), ...)): float}, {name: help_text}).
    Unlike :func:`parse_exposition`, this one handles label values
    containing ``}``, ``,``, ``=``, escaped quotes, backslashes and
    ``\\n`` sequences — so a test using it proves the escaping emitted
    by ``expose()`` is actually reversible.
    """
    samples: dict = {}
    helps: dict = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            unescaped = []
            it = iter(help_text)
            for ch in it:
                if ch == "\\":
                    nxt = next(it)
                    unescaped.append({"\\": "\\", "n": "\n"}[nxt])
                else:
                    unescaped.append(ch)
            helps[name] = "".join(unescaped)
            continue
        if line.startswith("# TYPE "):
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        # name{label="value",...} value  |  name value
        brace = line.find("{")
        labels = []
        if brace == -1:
            name, _, raw_value = line.partition(" ")
        else:
            name = line[:brace]
            i = brace + 1
            while line[i] != "}":
                eq = line.index("=", i)
                label_name = line[i:eq]
                assert line[eq + 1] == '"', f"unquoted value in {line!r}"
                j = eq + 2
                chars = []
                while line[j] != '"':
                    if line[j] == "\\":
                        nxt = line[j + 1]
                        chars.append({"\\": "\\", '"': '"', "n": "\n"}[nxt])
                        j += 2
                    else:
                        chars.append(line[j])
                        j += 1
                labels.append((label_name, "".join(chars)))
                i = j + 1
                if line[i] == ",":
                    i += 1
            raw_value = line[i + 2:]
        samples[(name, tuple(labels))] = float(raw_value)
    return samples, helps


class TestExpositionEscaping:
    def test_label_values_round_trip(self):
        reg = MetricsRegistry()
        hostile = 'a"b\\c\nd}e,f=g{h'
        reg.counter("c_total").inc(5, path=hostile, plain="ok")
        samples, _ = parse_exposition_strict(reg.to_prometheus())
        key = ("c_total", (("path", hostile), ("plain", "ok")))
        assert samples[key] == 5.0

    def test_backslash_before_quote_order(self):
        # A value ending in a backslash must not swallow the closing
        # quote: \\ then " must parse back as exactly one backslash.
        reg = MetricsRegistry()
        reg.gauge("g").set(1, path="trailing\\")
        samples, _ = parse_exposition_strict(reg.to_prometheus())
        assert samples[("g", (("path", "trailing\\"),))] == 1.0

    def test_help_text_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "line one\nline two \\ backslash").inc()
        text = reg.to_prometheus()
        assert "\n# TYPE" in text  # HELP stayed on one physical line
        _, helps = parse_exposition_strict(text)
        assert helps["c_total"] == "line one\nline two \\ backslash"

    def test_non_finite_values(self):
        reg = MetricsRegistry()
        reg.gauge("plus").set(math.inf)
        reg.gauge("minus").set(-math.inf)
        reg.gauge("nan").set(math.nan)
        samples, _ = parse_exposition_strict(reg.to_prometheus())
        assert samples[("plus", ())] == math.inf
        assert samples[("minus", ())] == -math.inf
        assert math.isnan(samples[("nan", ())])

    def test_histogram_inf_bucket_and_help(self):
        reg = MetricsRegistry()
        h = reg.histogram("h_seconds", 'duration with "quotes"', buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(50.0)
        text = reg.to_prometheus()
        samples, helps = parse_exposition_strict(text)
        assert helps["h_seconds"] == 'duration with "quotes"'
        assert samples[("h_seconds_bucket", (("le", "0.1"),))] == 1.0
        assert samples[("h_seconds_bucket", (("le", "+Inf"),))] == 2.0
        assert samples[("h_seconds_count", ())] == 2.0

    def test_every_line_has_help_and_type(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "a help").inc()
        reg.gauge("b", "b help").set(1)
        reg.histogram("c_seconds", "c help").observe(0.1)
        text = reg.to_prometheus()
        for name in ("a_total", "b", "c_seconds"):
            assert f"# HELP {name} " in text
            assert f"# TYPE {name} " in text
