#!/usr/bin/env python
"""Sampling-rate study: how telemetry cadence shapes what you can see.

The Fig 2 methodology on any benchmark: generate 0.1-second ground truth,
down-sample to coarser rates, and watch which features of the power
distribution survive.  The punchline for telemetry design: any rate up to
10 s captures the high power mode; resolving the timeline's structure
(the secondary modes) needs 5 s or finer.

Usage::

    python examples/sampling_rate_study.py [--benchmark Si256_hse]
"""

import argparse

from repro.experiments import fig02_sampling
from repro.experiments.common import run_workload
from repro.experiments.report import format_table
from repro.analysis.modes import Density
from repro.telemetry.downsample import downsample_series
from repro.vasp.benchmarks import benchmark, benchmark_names

import numpy as np


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="Si256_hse", choices=benchmark_names())
    parser.add_argument(
        "--rates", type=float, nargs="+", default=list(fig02_sampling.SAMPLING_RATES_S)
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    workload = benchmark(args.benchmark).build()
    measured = run_workload(workload, n_nodes=1, seed=args.seed)
    trace = measured.result.traces[0]
    series = trace.gpu_power(0)

    rows = []
    for rate in args.rates:
        _, values = downsample_series(trace.times, series, rate)
        density = Density.of(values)
        mode = density.high_power_mode(min_prominence=0.04)
        modes = density.modes(min_prominence=0.04)
        rows.append(
            [
                rate,
                float(np.max(values)),
                float(np.median(values)),
                mode.power_w,
                density.fwhm(mode),
                len(modes),
                " ".join(f"{m.power_w:.0f}" for m in modes),
            ]
        )
    print(
        format_table(
            headers=[
                "Rate (s)",
                "Max (W)",
                "Median (W)",
                "HPM (W)",
                "FWHM (W)",
                "Modes",
                "Mode positions (W)",
            ],
            rows=rows,
            title=f"GPU power distribution vs sampling rate: {workload.name}",
        )
    )


if __name__ == "__main__":
    main()
