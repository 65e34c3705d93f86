"""Execution engine: runs a workload's phases on simulated nodes.

The engine advances through the macro-phase sequence, resolves each
phase's power on every component of every allocated node (honouring GPU
power caps and DVFS slowdowns), and emits a 0.1-second-resolution power
trace — the "ground truth" signal that the telemetry layer then samples
the way NERSC's LDMS pipeline does.

The job layer reproduces the paper's measurement protocol (Section III-B):
STREAM and DGEMM acceptance segments, an idle gap, then the VASP segment,
with five repeats and minimum-runtime selection.
"""

from repro.runner.trace import PhaseRecord, PowerTrace, RunResult
from repro.runner.engine import EngineConfig, PowerEngine
from repro.runner.cache import RunCache, fingerprint
from repro.runner.sweep import EstimateSpec, RunSpec, SweepExecutor
from repro.runner.dgemm import dgemm_phase, numpy_dgemm_gflops
from repro.runner.stream import numpy_stream_gbs, stream_phase
from repro.runner.job import JobResult, JobScript, idle_phase
from repro.runner.runlog import RunLogSummary, summarize_run

__all__ = [
    "EngineConfig",
    "EstimateSpec",
    "JobResult",
    "JobScript",
    "PhaseRecord",
    "PowerEngine",
    "PowerTrace",
    "RunCache",
    "RunLogSummary",
    "RunResult",
    "RunSpec",
    "SweepExecutor",
    "dgemm_phase",
    "fingerprint",
    "idle_phase",
    "numpy_dgemm_gflops",
    "numpy_stream_gbs",
    "stream_phase",
    "summarize_run",
]
