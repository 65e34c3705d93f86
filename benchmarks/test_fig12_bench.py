"""Bench: regenerate Fig 12 (performance under power caps)."""

from repro.capping.scheduler import estimate_cache
from repro.experiments import fig12_cap_performance
from repro.runner.sweep import reset_sweep_stats, sweep_stats


def test_fig12(experiment):
    result = experiment(fig12_cap_performance.run, fig12_cap_performance.render)
    # Shape: the headline — 300 W free, 200 W costs ~9 % only for the two
    # power-hungry benchmarks, 100 W drastic for them but <10 % for
    # GaAsBi-64 and PdO2.
    for row in result.rows:
        assert row.at(300.0) > 0.95
        assert row.at(200.0) > 0.85
    for name in ("Si256_hse", "Si128_acfdtr"):
        assert result.row(name).at(200.0) < 0.95
        assert result.row(name).at(100.0) < 0.72
    for name in ("GaAsBi-64", "PdO2"):
        assert result.row(name).at(100.0) > 0.90


def test_fig12_dedupe_and_cache(benchmark):
    """Record how much work the executor avoids on the Fig 12 grid.

    Runs the estimator sweep twice against cleared caches: the first
    pass measures within-grid dedupe (the shared 400 W baseline), the
    second the cache hit path.  Both are content-keyed and seedless, and
    sweeps run in process, so the recorded counts are machine-independent.
    """

    def run_twice():
        estimate_cache().clear()
        reset_sweep_stats()
        fig12_cap_performance.run()
        fig12_cap_performance.run()
        return sweep_stats(), estimate_cache().stats()

    sweeps, cache = benchmark.pedantic(
        run_twice, rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["efficiency"] = {
        "specs_submitted": sweeps.specs_submitted,
        "specs_executed": sweeps.specs_executed,
        "dedupe_ratio": round(sweeps.dedupe_ratio, 6),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_hit_rate": round(cache.hit_rate, 6),
    }
    # The second pass is served entirely from the estimate cache.
    assert cache.hits == cache.misses > 0
