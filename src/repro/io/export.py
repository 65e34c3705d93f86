"""CSV/JSON serialization of power traces and experiment results."""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.runner.trace import COMPONENT_KEYS, PowerTrace


# ----------------------------------------------------------------------
# Power traces (ground truth, component-resolved)
# ----------------------------------------------------------------------


def save_trace_csv(trace: PowerTrace, path: str | Path) -> Path:
    """Write a node trace to CSV: time_s plus one column per component."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_name", trace.node_name])
        writer.writerow(["time_s", *COMPONENT_KEYS])
        series = [trace.component(k) for k in COMPONENT_KEYS]
        for i, t in enumerate(trace.times):
            writer.writerow([f"{t:.4f}"] + [f"{s[i]:.3f}" for s in series])
    return path


def load_trace_csv(path: str | Path) -> PowerTrace:
    """Read a node trace written by :func:`save_trace_csv`."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) != 2 or header[0] != "node_name":
            raise ValueError(f"{path}: not a trace CSV (missing node_name row)")
        node_name = header[1]
        columns = next(reader)
        if columns[0] != "time_s" or tuple(columns[1:]) != COMPONENT_KEYS:
            raise ValueError(f"{path}: unexpected column layout {columns}")
        rows = [[float(cell) for cell in row] for row in reader if row]
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise ValueError(f"{path}: trace has no samples")
    return PowerTrace.from_components(
        node_name, data[:, 0], {k: data[:, i + 1] for i, k in enumerate(COMPONENT_KEYS)}
    )


# ----------------------------------------------------------------------
# Experiment results (figure data)
# ----------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """Convert experiment result objects to JSON-compatible structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Fall back to repr for exotic members (e.g. nested runs) so export
    # never crashes a pipeline; loaders treat these as opaque.
    return repr(value)


def result_to_json(result: Any, path: str | Path | None = None, indent: int = 2) -> str:
    """Serialize an experiment result (dataclass tree) to JSON.

    Writes to ``path`` when given; always returns the JSON text.
    """
    text = json.dumps(_jsonable(result), indent=indent)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
