"""Artifact I/O: export and reload power data and experiment results.

The paper's artifact description publishes "the data and scripts used to
generate the figures".  This package provides the equivalent for the
reproduction: CSV export of power traces (the raw data) with a loader
that round-trips, and JSON export of experiment result objects (the
figure data).
"""

from repro.io.export import load_trace_csv, result_to_json, save_trace_csv

__all__ = ["load_trace_csv", "result_to_json", "save_trace_csv"]
