"""Telemetry substrate: LDMS sampling and rate conversion.

Mirrors the measurement stack of Section II-B: node power sampled at a
nominal 1-second interval by an LDMS-like collector whose data drops
yield an effective 2-second cadence (:mod:`sampler`).
:mod:`downsample` implements the rate conversion used by the Fig 2
sampling study.
"""

from repro.telemetry.downsample import downsample_series, downsample_trace
from repro.telemetry.sampler import LdmsSampler, SampledSeries, SamplerConfig

__all__ = [
    "LdmsSampler",
    "SampledSeries",
    "SamplerConfig",
    "downsample_series",
    "downsample_trace",
]
