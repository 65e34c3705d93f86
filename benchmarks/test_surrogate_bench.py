"""Bench: the two-stage surrogate fast path.

Gates the headline contract of the surrogate subsystem: a trained
prediction must beat a single exact simulation of the same point by at
least :data:`SPEEDUP_FLOOR` (the issue's >= 100x), while held-out
workload x cap accuracy stays under the MAPE ceilings.  The numbers
this bench asserts on are recorded in ``benchmark.extra_info["surrogate"]``.
"""

import time
from functools import lru_cache

import pytest

from repro.experiments.common import run_workload
from repro.prediction import build_corpus, evaluate_surrogate, fit_surrogate
from repro.vasp.benchmarks import benchmark as get_benchmark

#: The surrogate must beat single-point exact simulation by this factor.
SPEEDUP_FLOOR = 100.0
#: Held-out-workload HPM MAPE ceiling (measured ~0.15 on the seed grid).
MAPE_CEILING = 0.25
#: Held-out-cap-fraction HPM MAPE ceiling (measured ~0.13).
CAP_MAPE_CEILING = 0.25
#: Worst single held-out-workload HPM error ceiling (measured ~0.33).
WORST_APE_CEILING = 0.60

#: Predictions averaged for the latency figure (one is ~100 us).
PREDICT_REPEATS = 200
#: Exact simulations timed for the reference (one is ~5 ms); the minimum
#: is the honest cost, since scheduling noise on a loaded host only ever
#: inflates a single few-millisecond sample.
ENGINE_REPEATS = 5
#: The probed point: a production-like benchmark at the paper's 200 W cap.
PROBE_BENCHMARK = "PdO4"
PROBE_CAP_W = 200.0


@lru_cache(maxsize=1)
def trained_surrogate():
    """Default-corpus surrogate, built once per process (shared fixture)."""
    samples = build_corpus()
    t0 = time.perf_counter()
    surrogate = fit_surrogate(samples)
    train_s = time.perf_counter() - t0
    return samples, surrogate, train_s


def exact_run_s(workload) -> float:
    """Seconds of one exact simulation of the probed point.

    Cache-bypassed so the reference is a real simulation of the same
    point, never a run-cache lookup.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE", "0")
        t0 = time.perf_counter()
        run_workload(workload, n_nodes=1, gpu_cap_w=PROBE_CAP_W)
        return time.perf_counter() - t0


def measure_surrogate():
    """Speedup and held-out accuracy of the default-corpus surrogate."""
    samples, surrogate, train_s = trained_surrogate()
    workload = get_benchmark(PROBE_BENCHMARK).build()
    surrogate.predict(workload, n_nodes=1, cap_w=PROBE_CAP_W)  # warm
    t0 = time.perf_counter()
    for _ in range(PREDICT_REPEATS):
        prediction = surrogate.predict(workload, n_nodes=1, cap_w=PROBE_CAP_W)
    predict_s = (time.perf_counter() - t0) / PREDICT_REPEATS
    engine_s = min(exact_run_s(workload) for _ in range(ENGINE_REPEATS))
    evaluation = evaluate_surrogate(samples=samples)
    return {
        "corpus_size": len(samples),
        "train_s": train_s,
        "predict_s": predict_s,
        "engine_s": engine_s,
        "speedup": engine_s / predict_s,
        "in_envelope": prediction.in_envelope,
        "mape": evaluation.mape,
        "worst_ape": evaluation.worst_ape,
        "cap_mape": evaluation.cap_mape,
        "per_target_mape": evaluation.per_target_mape,
    }


def test_surrogate_predict_speedup(benchmark):
    samples, surrogate, _ = trained_surrogate()
    workload = get_benchmark(PROBE_BENCHMARK).build()
    prediction = benchmark(
        lambda: surrogate.predict(workload, n_nodes=1, cap_w=PROBE_CAP_W)
    )
    stats = measure_surrogate()
    benchmark.extra_info["surrogate"] = {
        "corpus_size": stats["corpus_size"],
        "train_s": round(stats["train_s"], 4),
        "predict_us": round(stats["predict_s"] * 1.0e6, 1),
        "engine_s": round(stats["engine_s"], 4),
        "speedup": round(stats["speedup"], 1),
        "mape": round(stats["mape"], 4),
        "worst_ape": round(stats["worst_ape"], 4),
        "cap_mape": round(stats["cap_mape"], 4),
    }
    print(
        f"\nsurrogate: {stats['corpus_size']} samples, "
        f"{stats['predict_s'] * 1e6:.0f} us/prediction vs "
        f"{stats['engine_s']:.2f} s exact -> {stats['speedup']:.0f}x"
    )
    # The issue's headline contract: >= 100x per-point speedup, and the
    # probed (in-grid) point must be served, not bounced to the engine.
    assert stats["speedup"] >= SPEEDUP_FLOOR
    assert prediction.in_envelope


def test_surrogate_heldout_accuracy(benchmark):
    samples, _, _ = trained_surrogate()
    evaluation = benchmark.pedantic(
        lambda: evaluate_surrogate(samples=samples), rounds=1, iterations=1
    )
    per_target = ", ".join(
        f"{name}={value:.3f}"
        for name, value in evaluation.per_target_mape.items()
    )
    print(
        f"\nheld-out: workload MAPE {evaluation.mape:.3f} "
        f"(worst {evaluation.worst_ape:.3f}), "
        f"cap MAPE {evaluation.cap_mape:.3f}; {per_target}"
    )
    # Accuracy gates on splits the training never saw: no training point
    # is ever scored (see evaluate_surrogate), so these are deployment
    # errors, not memorization.
    assert evaluation.mape <= MAPE_CEILING
    assert evaluation.worst_ape <= WORST_APE_CEILING
    assert evaluation.cap_mape <= CAP_MAPE_CEILING
