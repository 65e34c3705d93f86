"""Tests for artifact I/O (CSV/JSON export and loaders)."""

import json

import numpy as np
import pytest

from repro.io import load_trace_csv, result_to_json, save_trace_csv
from repro.runner.trace import COMPONENT_KEYS, PowerTrace


@pytest.fixture
def trace():
    n = 50
    rng = np.random.default_rng(0)
    return PowerTrace.from_components(
        "nid001000",
        (np.arange(n) + 0.5) * 0.1,
        {k: 100 + rng.random(n) * 50 for k in COMPONENT_KEYS},
    )


class TestTraceCsv:
    def test_roundtrip(self, trace, tmp_path):
        path = save_trace_csv(trace, tmp_path / "trace.csv")
        loaded = load_trace_csv(path)
        assert loaded.node_name == trace.node_name
        np.testing.assert_allclose(loaded.times, trace.times, atol=1e-4)
        for key in COMPONENT_KEYS:
            np.testing.assert_allclose(
                loaded.component(key), trace.component(key), atol=1e-3
            )

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("just,some,junk\n1,2,3\n")
        with pytest.raises(ValueError):
            load_trace_csv(bad)

    def test_rejects_empty_trace(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text(
            "node_name,nid1\ntime_s," + ",".join(COMPONENT_KEYS) + "\n"
        )
        with pytest.raises(ValueError, match="no samples"):
            load_trace_csv(bad)


class TestResultJson:
    def test_experiment_result_serializes(self, tmp_path):
        from repro.experiments import fig12_cap_performance

        result = fig12_cap_performance.run()
        text = result_to_json(result, tmp_path / "fig12.json")
        parsed = json.loads(text)
        assert len(parsed["rows"]) == 7
        row = parsed["rows"][0]
        assert "normalized" in row and "400.0" in row["normalized"]
        assert (tmp_path / "fig12.json").exists()

    def test_numpy_members(self):
        from dataclasses import dataclass

        @dataclass
        class Holder:
            arr: np.ndarray
            scalar: np.float64

        parsed = json.loads(result_to_json(Holder(np.arange(3.0), np.float64(1.5))))
        assert parsed == {"arr": [0.0, 1.0, 2.0], "scalar": 1.5}

    def test_opaque_fallback(self):
        from dataclasses import dataclass

        @dataclass
        class Weird:
            thing: object

        parsed = json.loads(result_to_json(Weird(object())))
        assert parsed["thing"].startswith("<object")
