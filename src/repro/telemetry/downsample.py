"""Down-sampling of power timelines.

The Fig 2 study measured at 0.1 s and "then down-sampled it to the rest of
the sampling rates".  Down-sampling a power sensor is *block averaging*
(each coarse sample reports the mean power over its window — power sensors
integrate), which is why coarser rates widen the high-power-mode FWHM,
clip the maximum, and eventually blur short-lived modes away.
"""

from __future__ import annotations

import numpy as np

from repro.runner.trace import PowerTrace


def downsample_series(
    times: np.ndarray, values: np.ndarray, interval_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Block-average a regularly sampled series to a coarser interval.

    Returns (window midpoints, window means).  The trailing partial window
    is kept if it holds at least one sample.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError(f"shape mismatch: {times.shape} vs {values.shape}")
    if interval_s <= 0:
        raise ValueError(f"interval_s must be positive, got {interval_s}")
    if len(times) == 0:
        return times.copy(), values.copy()
    base = float(times[1] - times[0]) if len(times) > 1 else interval_s
    if interval_s < base - 1e-12:
        raise ValueError(
            f"cannot down-sample to {interval_s} s: base interval is {base} s"
        )
    per_window = max(int(round(interval_s / base)), 1)
    n_windows = int(np.ceil(len(values) / per_window))
    out_times = np.empty(n_windows)
    out_values = np.empty(n_windows)
    # Full windows reduce as one reshaped 2-D mean (each row is the same
    # contiguous slice the per-window loop would average); only a trailing
    # partial window needs separate handling.
    n_full = len(values) // per_window
    if n_full:
        out_times[:n_full] = np.ascontiguousarray(
            times[: n_full * per_window]
        ).reshape(n_full, per_window).mean(axis=1)
        out_values[:n_full] = np.ascontiguousarray(
            values[: n_full * per_window]
        ).reshape(n_full, per_window).mean(axis=1)
    if n_full < n_windows:
        out_times[n_full] = times[n_full * per_window :].mean()
        out_values[n_full] = values[n_full * per_window :].mean()
    return out_times, out_values


def downsample_trace(trace: PowerTrace, interval_s: float) -> PowerTrace:
    """Down-sample every component of a node trace.

    Reads the trace row by row (zero-copy views) and fills one output
    matrix directly — no intermediate per-component dict — carrying
    ``interval_s`` as the result's declared grid spacing so even
    single-window results report a correct sample interval.
    """
    new_times: np.ndarray | None = None
    data: np.ndarray | None = None
    for row, key in enumerate(trace.components):
        t, v = downsample_series(trace.times, trace.component(key), interval_s)
        if data is None:
            new_times = t
            data = np.empty((len(trace.components), len(v)), dtype=v.dtype)
        data[row] = v
    assert data is not None and new_times is not None
    return PowerTrace(
        node_name=trace.node_name,
        times=new_times,
        data=data,
        components=trace.components,
        base_interval_s=interval_s,
    )
