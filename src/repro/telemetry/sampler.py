"""LDMS-like power sampler with data drops.

Section II-B: LDMS samples node power at one-second intervals, but "the
high aggregate data rate across the system forces much of the data to be
dropped, leading to an effective sampling interval of 2 seconds", with
occasional larger gaps that "did not exceed five seconds".

The sampler reads a node's ground-truth trace through the PM interface
semantics (each report is the mean power since the previous report — the
counters integrate energy) and drops reports at a configurable rate.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.runner.trace import PowerTrace
from repro.telemetry.downsample import downsample_series


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling cadence and drop behaviour.

    With ``nominal_interval_s = 1`` and ``drop_probability = 0.5`` the
    effective cadence is ~2 s, matching the paper.  ``max_gap_s`` bounds
    consecutive drops (the pipeline retries), keeping gaps <= 5 s.
    """

    nominal_interval_s: float = 1.0
    drop_probability: float = 0.5
    max_gap_s: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nominal_interval_s <= 0:
            raise ValueError("nominal_interval_s must be positive")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if self.max_gap_s < self.nominal_interval_s:
            raise ValueError("max_gap_s must be >= nominal_interval_s")


@dataclass
class SampledSeries:
    """An irregularly sampled power series (post-drop)."""

    node_name: str
    component: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")

    @property
    def effective_interval_s(self) -> float:
        """Mean spacing between surviving samples."""
        if len(self.times) < 2:
            return 0.0
        return float(np.mean(np.diff(self.times)))

    @property
    def max_gap_s(self) -> float:
        """Largest spacing between surviving samples."""
        if len(self.times) < 2:
            return 0.0
        return float(np.max(np.diff(self.times)))

    def energy_j(self) -> float:
        """Trapezoidal energy estimate over the sampled series."""
        if len(self.times) < 2:
            return 0.0
        return float(np.trapezoid(self.values, self.times))


@dataclass
class LdmsSampler:
    """Samples node traces into irregular series with drops."""

    config: SamplerConfig = field(default_factory=SamplerConfig)

    def sample(self, trace: PowerTrace, component: str = "node") -> SampledSeries:
        """Sample one component of a node trace.

        Each nominal-interval report carries the mean power over its
        window; drops remove reports subject to the max-gap bound.
        """
        cfg = self.config
        times, values = downsample_series(
            trace.times, trace.component(component), cfg.nominal_interval_s
        )
        if len(times) == 0:
            return SampledSeries(trace.node_name, component, times, values)
        # Stable per-(node, component) stream: built-in hash() is
        # randomized per process (PYTHONHASHSEED), which would make the
        # drop pattern irreproducible across runs and across pool workers.
        stream = zlib.crc32(f"{trace.node_name}:{component}".encode("utf-8"))
        rng = np.random.default_rng(cfg.seed ^ stream & 0x7FFFFFFF)
        keep = rng.random(len(times)) >= cfg.drop_probability
        keep[0] = True
        # Enforce the gap bound: force-keep a sample whenever the gap
        # since the last kept one would exceed max_gap_s.  Between two
        # naturally kept samples j < k the sequential rule forces exactly
        # the indices j + max_skip, j + 2*max_skip, ... < k (and after the
        # last kept sample, ... <= n-1), which vectorizes per gap.
        max_skip = int(cfg.max_gap_s / cfg.nominal_interval_s)
        kept_idx = np.flatnonzero(keep)
        next_kept = np.append(kept_idx[1:], len(times))
        n_forced = (next_kept - kept_idx - 1) // max_skip
        total_forced = int(n_forced.sum())
        if total_forced:
            gap_start = np.repeat(kept_idx, n_forced)
            step = (
                np.arange(total_forced)
                - np.repeat(np.cumsum(n_forced) - n_forced, n_forced)
                + 1
            )
            keep[gap_start + max_skip * step] = True
        return SampledSeries(
            node_name=trace.node_name,
            component=component,
            times=times[keep],
            values=values[keep],
        )

    def sample_all(self, trace: PowerTrace) -> dict[str, SampledSeries]:
        """Sample every component of a trace."""
        return {key: self.sample(trace, key) for key in trace.components}
