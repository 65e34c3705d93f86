"""Tests for the two-stage surrogate fast path.

Covers the PR's contracts: the fingerprint-guarded store (round-trip,
mismatch refusal, torn-write recovery), held-out accuracy gates, the
out-of-envelope fallback path (model, scheduler admission and counters),
and exact verification parity — the surrogate-driven cap-policy search
must land on the same winner as the exhaustive engine search and report
its surrogate-vs-exact error.
"""

import numpy as np
import pytest

from repro.capping.policy import WorkloadClass, search_cap_policy
from repro.capping.scheduler import (
    Job,
    PowerAwareScheduler,
    SchedulerConfig,
)
from repro.prediction import (
    CorpusConfig,
    TwoStageSurrogate,
    build_corpus,
    evaluate_surrogate,
    fit_surrogate,
    load_or_train,
    load_surrogate,
    reset_surrogate_stats,
    save_surrogate,
    surrogate_stats,
    training_fingerprint,
)
from repro.prediction.store import STORE_VERSION, store_path
from repro.runner.cache import atomic_write_pickle, read_pickle
from repro.vasp.benchmarks import benchmark

#: A cheap corpus for store/structure tests (~40 engine runs).
SMALL_CONFIG = CorpusConfig(
    silicon_sizes=(64, 128, 256),
    silicon_methods=("dft_normal", "dft_veryfast"),
    higher_order_sizes=(128,),
    higher_order_methods=("hse",),
    benchmark_nodes=(1,),
    platforms=("a100-40g",),
    cap_fractions=(0.5, 0.75),
)


@pytest.fixture(scope="module")
def small_corpus():
    return build_corpus(SMALL_CONFIG)


@pytest.fixture(scope="module")
def small_surrogate(small_corpus):
    return fit_surrogate(small_corpus)


@pytest.fixture(scope="module")
def full_corpus():
    """The default training corpus (the one `load_or_train` builds)."""
    return build_corpus()


@pytest.fixture(scope="module")
def full_surrogate(full_corpus):
    return fit_surrogate(full_corpus)


class TestCorpus:
    def test_uncapped_anchors_slowdown(self, small_corpus):
        uncapped = [s for s in small_corpus if s.cap_w is None]
        capped = [s for s in small_corpus if s.cap_w is not None]
        assert uncapped and capped
        assert all(s.slowdown == 1.0 for s in uncapped)
        # Caps never speed a run up.
        assert all(s.slowdown >= 1.0 - 1e-9 for s in capped)

    def test_grid_covers_caps_and_workloads(self, small_corpus):
        names = {s.workload_name for s in small_corpus}
        caps = {s.cap_w for s in small_corpus}
        assert len(names) == 20  # 6 silicon + 1 higher-order + 7 benchmarks + 6 zoo
        assert len(caps) == 3  # None + two fractions
        # The zoo grid rides along on the first corpus platform.
        assert "milc_small" in names and "cloudsc_small" in names

    def test_targets_positive(self, small_corpus):
        for s in small_corpus:
            assert s.hpm_w > 0 and s.runtime_s > 0
            assert s.energy_per_node_j == pytest.approx(
                s.runtime_s * s.mean_node_power_w
            )


class TestStore:
    def test_round_trip(self, small_surrogate, tmp_path):
        fp = training_fingerprint(SMALL_CONFIG)
        save_surrogate(small_surrogate, fp, tmp_path)
        loaded = load_surrogate(fp, tmp_path)
        assert isinstance(loaded, TwoStageSurrogate)
        workload = benchmark("PdO2").build()
        a = small_surrogate.predict(workload, n_nodes=1, cap_w=300.0)
        b = loaded.predict(workload, n_nodes=1, cap_w=300.0)
        assert b.hpm_w == pytest.approx(a.hpm_w)
        assert b.runtime_s == pytest.approx(a.runtime_s)

    def test_fingerprint_mismatch_refused(self, small_surrogate, tmp_path):
        save_surrogate(small_surrogate, training_fingerprint(SMALL_CONFIG), tmp_path)
        other = training_fingerprint(CorpusConfig())
        assert load_surrogate(other, tmp_path) is None

    def test_version_mismatch_refused(self, small_surrogate, tmp_path):
        fp = training_fingerprint(SMALL_CONFIG)
        path = save_surrogate(small_surrogate, fp, tmp_path)
        payload = read_pickle(path)
        payload["version"] = STORE_VERSION + 1
        atomic_write_pickle(path, payload)
        assert load_surrogate(fp, tmp_path) is None

    def test_torn_write_recovered(self, small_surrogate, tmp_path):
        fp = training_fingerprint(SMALL_CONFIG)
        path = save_surrogate(small_surrogate, fp, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # simulated torn write
        assert load_surrogate(fp, tmp_path) is None
        # load_or_train treats the torn store as a miss: it retrains and
        # atomically rewrites a valid store.
        trained = load_or_train(SMALL_CONFIG, directory=tmp_path)
        assert isinstance(trained, TwoStageSurrogate)
        assert isinstance(load_surrogate(fp, tmp_path), TwoStageSurrogate)

    def test_garbage_file_is_a_miss(self, tmp_path):
        path = store_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")
        assert load_surrogate(training_fingerprint(SMALL_CONFIG), tmp_path) is None

    def test_load_or_train_hits_store(self, small_surrogate, tmp_path):
        save_surrogate(
            small_surrogate, training_fingerprint(SMALL_CONFIG), tmp_path
        )
        reset_surrogate_stats()
        loaded = load_or_train(SMALL_CONFIG, directory=tmp_path)
        # Served from disk: no retraining happened.
        assert surrogate_stats().trainings == 0
        assert loaded.n_samples == small_surrogate.n_samples


class TestAccuracy:
    def test_heldout_mape_gate(self, full_corpus):
        """The satellite gate: held-out workload x cap error stays bounded.

        Same splits and ceilings as benchmarks/test_surrogate_bench.py —
        no training point is ever scored.
        """
        evaluation = evaluate_surrogate(samples=full_corpus)
        assert evaluation.mape <= 0.25
        assert evaluation.worst_ape <= 0.60
        assert evaluation.cap_mape <= 0.25
        # Every workload held out exactly once.
        names = {s.workload_name for s in full_corpus}
        assert set(evaluation.per_workload_ape) == names

    def test_prediction_orders_methods(self, full_surrogate):
        """Key qualitative fact: higher-order methods draw more power."""
        hse = full_surrogate.predict(benchmark("Si256_hse").build(), n_nodes=1)
        gaas = full_surrogate.predict(benchmark("GaAsBi-64").build(), n_nodes=1)
        assert hse.hpm_w > gaas.hpm_w

    def test_cap_reduces_power_and_slows(self, full_surrogate):
        workload = benchmark("Si256_hse").build()
        free = full_surrogate.predict(workload, n_nodes=1)
        deep = full_surrogate.predict(workload, n_nodes=1, cap_w=125.0)
        assert deep.tdp_fraction < free.tdp_fraction
        assert deep.slowdown > free.slowdown


class TestFallback:
    def test_out_of_envelope_counts_fallback(self, small_corpus):
        # uncertainty_max=0 makes every prediction out-of-envelope: the
        # residual spread of any real fit is positive.
        strict = fit_surrogate(small_corpus, uncertainty_max=0.0)
        reset_surrogate_stats()
        prediction = strict.predict(benchmark("PdO2").build(), n_nodes=1)
        assert not prediction.in_envelope
        stats = surrogate_stats()
        assert stats.predictions == 1 and stats.fallbacks == 1
        assert stats.hits == 0

    def test_scheduler_falls_back_to_engine(self, small_corpus):
        """An always-out-of-envelope surrogate must not change schedules."""
        strict = fit_surrogate(small_corpus, uncertainty_max=0.0)
        workload = benchmark("PdO2").build()
        jobs = [
            Job(job_id=f"j{i}", workload=workload, n_nodes=1) for i in range(4)
        ]
        plain = PowerAwareScheduler(
            SchedulerConfig(n_nodes=4, power_budget_w=4 * 900.0)
        ).schedule(list(jobs))
        fallback = PowerAwareScheduler(
            SchedulerConfig(n_nodes=4, power_budget_w=4 * 900.0, surrogate=strict)
        ).schedule(list(jobs))
        assert fallback.makespan_s == plain.makespan_s

    def test_scheduler_admission_uses_surrogate(self, full_surrogate):
        reset_surrogate_stats()
        workload = benchmark("PdO2").build()
        jobs = [
            Job(job_id=f"j{i}", workload=workload, n_nodes=1) for i in range(6)
        ]
        config = SchedulerConfig(
            n_nodes=4, power_budget_w=4 * 900.0, surrogate=full_surrogate
        )
        result = PowerAwareScheduler(config).schedule(jobs)
        assert len(result.records) == 6
        assert result.budget_respected
        stats = surrogate_stats()
        assert stats.predictions >= 1
        # Identical admission points are memoized, not re-predicted.
        assert stats.predictions <= 2

    def test_disabled_env_bypasses_surrogate(self, full_surrogate, monkeypatch):
        monkeypatch.setenv("REPRO_SURROGATE", "0")
        reset_surrogate_stats()
        workload = benchmark("PdO2").build()
        jobs = [Job(job_id="j0", workload=workload, n_nodes=1)]
        config = SchedulerConfig(
            n_nodes=2, power_budget_w=2 * 2000.0, surrogate=full_surrogate
        )
        PowerAwareScheduler(config).schedule(jobs)
        assert surrogate_stats().predictions == 0


class TestSearchParity:
    CAPS = [125.0, 200.0, 300.0, 400.0]

    @pytest.fixture(scope="class")
    def pairs(self):
        return [
            (benchmark("PdO2").build(), 1),
            (benchmark("Si256_hse").build(), 1),
            (benchmark("GaAsBi-64").build(), 1),
        ]

    def test_surrogate_search_matches_exhaustive(self, pairs, full_surrogate):
        """The CI parity contract: same winner, bounded verification error."""
        exact = search_cap_policy(pairs, self.CAPS, slowdown_limit=1.5)
        fast = search_cap_policy(
            pairs, self.CAPS, slowdown_limit=1.5, surrogate=full_surrogate
        )
        assert not exact.used_surrogate and fast.used_surrogate
        assert exact.verification_error is None
        assert fast.best_policy.caps_w == exact.best_policy.caps_w
        assert fast.verification_error is not None
        assert fast.verification_error < 0.20
        assert fast.exact_max_slowdown is not None

    def test_candidate_grid_complete(self, pairs, full_surrogate):
        fast = search_cap_policy(
            pairs, self.CAPS, slowdown_limit=1.5, surrogate=full_surrogate
        )
        assert len(fast.outcomes) == len(self.CAPS) ** 2
        assert fast.predictions == len(self.CAPS) * len(pairs)
        assert fast.fallbacks == 0

    def test_winner_policy_shape(self, pairs, full_surrogate):
        fast = search_cap_policy(
            pairs, self.CAPS, slowdown_limit=1.5, surrogate=full_surrogate
        )
        caps = fast.best_policy.caps_w
        assert set(caps) == {WorkloadClass.HIGHER_ORDER, WorkloadClass.BASIC_DFT}
        assert all(c in self.CAPS for c in caps.values())

    def test_rejects_out_of_range_caps(self, pairs):
        with pytest.raises(ValueError, match="outside"):
            search_cap_policy(pairs, [10.0])


class TestCli:
    @pytest.fixture()
    def seeded_store(self, small_surrogate, tmp_path, monkeypatch):
        """A store the CLI's default `load_or_train` call will hit.

        The small surrogate is deliberately filed under the default
        config's fingerprint so CLI tests skip the big corpus build.
        """
        save_surrogate(small_surrogate, training_fingerprint(CorpusConfig()), tmp_path)
        monkeypatch.setenv("REPRO_SURROGATE_DIR", str(tmp_path))
        return tmp_path

    def test_predict_command(self, seeded_store, capsys):
        from repro.cli import main

        reset_surrogate_stats()
        assert main(["predict", "PdO2", "--nodes", "1", "--cap", "300"]) == 0
        out = capsys.readouterr().out
        assert "node HPM" in out and "envelope" in out
        assert "surrogate: 1 predictions" in out

    def test_cap_sweep_surrogate_command(self, seeded_store, capsys):
        from repro.cli import main

        code = main(
            ["cap-sweep", "PdO2", "--nodes", "1", "--surrogate", "--caps",
             "400", "300", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "winner:" in out
        assert "exact re-simulation" in out
        assert "surrogate off by" in out

    def test_cap_sweep_surrogate_disabled_env(
        self, seeded_store, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SURROGATE", "0")
        code = main(
            ["cap-sweep", "PdO2", "--nodes", "1", "--surrogate", "--caps",
             "400", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Fast path off: the exact sweep ran instead.
        assert "winner:" not in out
        assert "Cap (W)" in out


class TestPersistedPredictionQuality:
    def test_predictions_finite_and_positive(self, full_surrogate):
        for name in ("PdO2", "PdO4", "Si256_hse", "CuC_vdw"):
            workload = benchmark(name).build()
            for cap in (None, 150.0, 250.0, 350.0):
                p = full_surrogate.predict(workload, n_nodes=1, cap_w=cap)
                for value in (
                    p.hpm_w,
                    p.mean_node_power_w,
                    p.runtime_s,
                    p.energy_per_node_j,
                ):
                    assert np.isfinite(value) and value > 0.0
                assert p.slowdown >= 1.0
                assert 0.0 < p.tdp_fraction <= 1.5
