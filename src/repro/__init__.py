"""repro: a reproduction of "Understanding VASP Power Profiles on NVIDIA
A100 GPUs" (Zhao, Rrapaj, Austin, Wright — SC 2024).

The library simulates the paper's measurement stack — a VASP-like
workload model, an A100/Perlmutter power substrate whose GPUs take
``nvidia-smi -pl``-style power caps, 0.1 s component power traces with
LDMS-style sampling and rate conversion, the KDE/high-power-mode
analysis, and a power-aware batch scheduler — and regenerates every
table and figure of the paper's evaluation (see ``repro.experiments``).

Quickstart::

    from repro.vasp import benchmark
    from repro.hardware import GpuNode
    from repro.runner import PowerEngine
    from repro.analysis import summarize

    workload = benchmark("Si256_hse").build()
    engine = PowerEngine([GpuNode("nid001000")])
    result = engine.run(workload.phases(), seed=42)
    print(summarize(result.traces[0].node_power))
"""

__version__ = "1.0.0"

from repro import analysis, capping, hardware, perfmodel, runner, telemetry, units, vasp

__all__ = [
    "__version__",
    "analysis",
    "capping",
    "hardware",
    "perfmodel",
    "runner",
    "telemetry",
    "units",
    "vasp",
]
