"""Unit tests for content-keyed run caching."""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro.config import read
from repro.runner.cache import (
    RunCache,
    atomic_write_bytes,
    atomic_write_pickle,
    content_key,
    fingerprint,
    read_pickle,
)
from repro.runner.engine import EngineConfig
from repro.runner.sweep import RunSpec
from repro.vasp.benchmarks import benchmark
from repro.workloads import get_workload_model, workload_model_ids


class TestFingerprint:
    def test_stable_across_calls(self):
        assert fingerprint("a", 1, 2.5) == fingerprint("a", 1, 2.5)

    def test_distinguishes_values(self):
        assert fingerprint(1) != fingerprint(2)
        assert fingerprint("1") != fingerprint(1)

    def test_float_bit_exactness(self):
        assert fingerprint(0.1 + 0.2) != fingerprint(0.3)

    def test_dataclasses_key_by_content(self):
        assert fingerprint(EngineConfig()) == fingerprint(EngineConfig())
        assert fingerprint(EngineConfig()) != fingerprint(
            EngineConfig(noise_rel_sigma=0.04)
        )

    def test_workloads_fingerprint(self):
        a = benchmark("PdO2").build()
        b = benchmark("PdO2").build()
        c = benchmark("PdO4").build()
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) != fingerprint(c)

    def test_arrays_key_by_bytes(self):
        x = np.arange(4.0)
        assert fingerprint(x) == fingerprint(x.copy())
        assert fingerprint(x) != fingerprint(x.astype(np.float32))

    def test_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            fingerprint(object())

    def test_containers(self):
        assert fingerprint({"b": 2, "a": 1}) == fingerprint({"a": 1, "b": 2})
        assert fingerprint([1, 2]) != fingerprint((1, 2))


def registry_workloads():
    """One default-variant instance of every registered workload model."""
    workloads = []
    for model_id in workload_model_ids():
        model = get_workload_model(model_id)
        workloads.append(model.builder(model.default_variant))
    return workloads


@dataclasses.dataclass
class AdHocWorkload:
    """A mutable workload type outside the registry."""

    name: str = "adhoc"
    duration_s: float = 10.0


class TestContentKey:
    @pytest.mark.parametrize(
        "workload", registry_workloads(), ids=lambda w: type(w).__name__
    )
    def test_registry_workloads_are_frozen(self, workload):
        with pytest.raises(dataclasses.FrozenInstanceError):
            workload.name = "renamed"

    def test_key_is_model_id_and_content(self):
        from repro.runner import cache

        workload = benchmark("PdO2").build()
        walked = repr(("vasp", cache._dataclass_fields(workload)))
        assert content_key(workload) == hashlib.sha256(walked.encode()).hexdigest()

    def test_walked_once_per_instance(self, monkeypatch):
        """Keyed directly or nested in a fingerprinted spec, a workload's
        fields are walked once."""
        from repro.runner import cache

        workload = benchmark("PdO2").build()
        walks = []
        real_fields = cache._dataclass_fields

        def dataclass_fields(obj):
            if obj is workload:
                walks.append(obj)
            return real_fields(obj)

        monkeypatch.setattr(cache, "_dataclass_fields", dataclass_fields)
        keys = {content_key(workload) for _ in range(5)}
        specs = {fingerprint(RunSpec(workload, n_nodes=n)) for n in (1, 2, 1)}
        assert len(keys) == 1
        assert len(specs) == 2
        assert len(walks) == 1

    def test_fingerprint_does_not_depend_on_keying_history(self):
        """A spec keys the same whether its workload was keyed before."""
        unkeyed = RunSpec(benchmark("PdO2").build(), n_nodes=2)
        keyed = RunSpec(benchmark("PdO2").build(), n_nodes=2)
        content_key(keyed.workload)
        first = fingerprint(unkeyed)
        assert fingerprint(keyed) == first
        content_key(unkeyed.workload)
        assert fingerprint(unkeyed) == first
        renamed = dataclasses.replace(unkeyed.workload, name="PdO2-renamed")
        assert fingerprint(dataclasses.replace(unkeyed, workload=renamed)) != first

    def test_memo_is_not_content(self):
        workload = benchmark("PdO2").build()
        before = repr(workload)
        content_key(workload)
        assert repr(workload) == before
        assert "_content_key" not in {f.name for f in dataclasses.fields(workload)}
        assert fingerprint(workload) == fingerprint(benchmark("PdO2").build())

    def test_replace_gives_a_new_key(self):
        workload = benchmark("PdO2").build()
        key = content_key(workload)
        renamed = dataclasses.replace(workload, name="PdO2-renamed")
        assert content_key(renamed) != key
        assert content_key(dataclasses.replace(renamed, name=workload.name)) == key

    def test_equal_content_shares_a_key_and_a_cache_entry(self):
        a = benchmark("PdO2").build()
        b = benchmark("PdO2").build()
        assert a is not b
        assert content_key(a) == content_key(b)
        store = RunCache(name="phases")
        store.get_or_compute((content_key(a), 2), lambda: "built")
        store.get_or_compute((content_key(b), 2), lambda: "rebuilt")
        assert (store.hits, store.misses) == (1, 1)

    @pytest.mark.parametrize("keyed_first", [False, True])
    def test_pickled_round_trip_keys_the_same(self, keyed_first):
        workload = benchmark("PdO4").build()
        # Unkeyed first: the pickle carries no memo, and the key is
        # computed from an equal instance.
        key = content_key(workload if keyed_first else benchmark("PdO4").build())
        shipped = pickle.loads(pickle.dumps(workload))
        assert shipped is not workload
        assert content_key(shipped) == key

    def test_mutable_ad_hoc_workload_rekeys_after_mutation(self):
        workload = AdHocWorkload()
        key = content_key(workload)
        workload.duration_s = 20.0
        assert content_key(workload) != key
        assert content_key(workload) == content_key(AdHocWorkload(duration_s=20.0))
        assert "_content_key" not in vars(workload)


class TestRunCache:
    def test_hit_miss_counters(self):
        cache = RunCache()
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.hits == 1
        assert cache.misses == 1

    def test_get_or_compute_runs_once(self):
        cache = RunCache()
        calls = []

        def compute():
            calls.append(1)
            return "value"

        assert cache.get_or_compute("k", compute) == "value"
        assert cache.get_or_compute("k", compute) == "value"
        assert len(calls) == 1

    def test_lru_eviction(self):
        cache = RunCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert len(cache) == 2

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            RunCache(maxsize=0)

    def test_clear(self):
        cache = RunCache()
        cache.put("k", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_disk_layer_roundtrip(self, tmp_path):
        writer = RunCache(disk_dir=tmp_path / "cache")
        writer.put("key", {"x": np.arange(3.0)})
        # A fresh cache (new process, conceptually) reads it back from disk.
        reader = RunCache(disk_dir=tmp_path / "cache")
        value = reader.get("key")
        np.testing.assert_array_equal(value["x"], np.arange(3.0))
        assert reader.hits == 1

    def test_disk_layer_tolerates_torn_writes(self, tmp_path):
        disk = tmp_path / "cache"
        disk.mkdir()
        (disk / "key.pkl").write_bytes(b"not a pickle")
        cache = RunCache(disk_dir=disk)
        assert cache.get("key") is None

    def test_clear_disk(self, tmp_path):
        cache = RunCache(disk_dir=tmp_path)
        cache.put("key", 1)
        cache.clear(disk=True)
        assert cache.get("key") is None
        assert list(tmp_path.glob("*.pkl")) == []


class TestAtomicWrites:
    def test_atomic_write_replaces_whole_file(self, tmp_path):
        path = tmp_path / "value.pkl"
        atomic_write_pickle(path, {"x": 1})
        atomic_write_pickle(path, {"x": 2})
        assert read_pickle(path) == {"x": 2}
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_crash_during_replace_leaves_old_value_intact(
        self, tmp_path, monkeypatch
    ):
        """A crash injected at the rename: no torn file, no temp litter."""
        disk = tmp_path / "cache"
        cache = RunCache(disk_dir=disk)
        cache.put("key", "old")

        def crash(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr("repro.runner.cache.os.replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            RunCache(disk_dir=disk).put("key", "new")
        monkeypatch.undo()
        assert list(disk.glob("*.tmp.*")) == []
        assert RunCache(disk_dir=disk).get("key") == "old"

    def test_crash_during_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "value.pkl"

        def crash(self, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("pathlib.Path.open", crash)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_bytes(path, b"payload")
        monkeypatch.undo()
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_torn_disk_entry_is_a_miss(self, tmp_path):
        """Even if a write *did* tear (pre-atomic files), reads degrade."""
        disk = tmp_path / "cache"
        disk.mkdir()
        cache = RunCache(disk_dir=disk)
        cache.put("key", "value")
        path = next(disk.glob("*.pkl"))
        path.write_bytes(path.read_bytes()[:10])
        assert RunCache(disk_dir=disk).get("key") is None


class TestCacheStats:
    def test_snapshot_fields(self):
        cache = RunCache(maxsize=8, name="unit")
        cache.get("missing")
        cache.put("k", 1)
        cache.get("k")
        stats = cache.stats()
        assert stats.name == "unit"
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
        assert stats.size == 1
        assert stats.maxsize == 8
        assert stats.disk_dir is None
        assert stats.disk_hits == 0

    def test_hit_rate_zero_without_lookups(self):
        stats = RunCache().stats()
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0

    def test_disk_hits_counted(self, tmp_path):
        writer = RunCache(disk_dir=tmp_path / "cache")
        writer.put("key", 42)
        reader = RunCache(disk_dir=tmp_path / "cache")
        reader.get("key")
        stats = reader.stats()
        assert stats.hits == 1
        assert stats.disk_hits == 1
        assert stats.disk_dir == str(tmp_path / "cache")

    def test_evictions_counted(self):
        cache = RunCache(maxsize=2)
        for key in ("a", "b", "c", "d"):
            cache.put(key, 0)
        assert cache.stats().evictions == 2

    def test_clear_resets_counters(self):
        cache = RunCache(maxsize=1)
        cache.get("miss")
        cache.put("a", 1)
        cache.put("b", 2)  # evicts a
        cache.clear()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.disk_hits, stats.evictions) == (
            0,
            0,
            0,
            0,
        )

    def test_summary_line(self, tmp_path):
        cache = RunCache(maxsize=4, disk_dir=tmp_path, name="run")
        cache.get("miss")
        cache.put("k", 1)
        cache.get("k")
        line = cache.stats().summary_line()
        assert line.startswith("run cache: 1 hits / 1 misses (50% hit rate)")
        assert str(tmp_path) in line

    def test_torn_disk_read_logs_warning(self, tmp_path, caplog):
        disk = tmp_path / "cache"
        disk.mkdir()
        (disk / "key.pkl").write_bytes(b"not a pickle")
        cache = RunCache(disk_dir=disk, name="unit")
        with caplog.at_level("WARNING", logger="repro.runner.cache"):
            assert cache.get("key") is None
        assert any(
            "unreadable disk entry" in record.getMessage() for record in caplog.records
        )
        assert cache.stats().misses == 1


class TestCachingDisabled:
    def test_default_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert read("REPRO_CACHE")

    @pytest.mark.parametrize("value", ["0", "off", "false", "NO"])
    def test_disable_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CACHE", value)
        assert not read("REPRO_CACHE")


class TestRunWorkloadCaching:
    def test_repeat_run_is_a_hit(self):
        from repro.experiments.common import run_cache, run_workload

        workload = benchmark("PdO2").build()
        cache = run_cache()
        cache.clear()
        first = run_workload(workload, n_nodes=1, seed=5)
        assert cache.misses == 1
        second = run_workload(workload, n_nodes=1, seed=5)
        assert cache.hits == 1
        assert second is first

    def test_engine_config_invalidates(self):
        from repro.experiments.common import run_cache, run_workload

        workload = benchmark("PdO2").build()
        cache = run_cache()
        cache.clear()
        base = run_workload(workload, n_nodes=1, engine_config=EngineConfig())
        other = run_workload(
            workload, n_nodes=1, engine_config=EngineConfig(noise_rel_sigma=0.05)
        )
        assert cache.misses == 2
        assert other is not base
        assert not np.array_equal(
            base.result.traces[0].node_power, other.result.traces[0].node_power
        )

    def test_use_cache_false_bypasses(self, monkeypatch):
        """``REPRO_CACHE=0`` bypasses the cache: each call is a fresh, equal run."""
        from repro.experiments.common import run_cache, run_workload

        monkeypatch.setenv("REPRO_CACHE", "0")
        workload = benchmark("PdO2").build()
        cache = run_cache()
        cache.clear()
        first = run_workload(workload, n_nodes=1)
        second = run_workload(workload, n_nodes=1)
        assert cache.hits == 0 and cache.misses == 0
        assert second is not first
        np.testing.assert_array_equal(
            first.result.traces[0].node_power, second.result.traces[0].node_power
        )

    def test_env_kill_switch(self, monkeypatch):
        from repro.experiments.common import run_cache, run_workload

        monkeypatch.setenv("REPRO_CACHE", "0")
        workload = benchmark("PdO2").build()
        cache = run_cache()
        cache.clear()
        run_workload(workload, n_nodes=1)
        assert cache.hits == 0 and cache.misses == 0

    @pytest.mark.parametrize("platform", [None, "h100-sxm"])
    def test_uncapped_and_tdp_cap_share_one_entry(self, platform):
        """Keys hold the cap applied: None is the platform GPU's TDP."""
        from repro.experiments.common import run_cache, run_workload
        from repro.hardware.platform import get_platform

        workload = benchmark("PdO2").build()
        tdp_w = get_platform(platform).gpu.tdp_w
        cache = run_cache()
        cache.clear()
        uncapped = run_workload(workload, gpu_cap_w=None, platform=platform)
        at_tdp = run_workload(workload, gpu_cap_w=tdp_w, platform=platform)
        as_int = run_workload(workload, gpu_cap_w=int(tdp_w), platform=platform)
        assert cache.misses == 1 and cache.hits == 2
        assert at_tdp is uncapped and as_int is uncapped
        assert uncapped.result.gpu_power_cap_w == tdp_w

    def test_uncapped_and_tdp_cap_share_one_estimate(self):
        from repro.capping.scheduler import cached_estimate_run, estimate_cache

        workload = benchmark("PdO2").build()
        cache = estimate_cache()
        cache.clear()
        uncapped = cached_estimate_run(workload, 2, None)
        at_tdp = cached_estimate_run(workload, 2, 400.0)
        assert cache.misses == 1 and cache.hits == 1
        assert at_tdp is uncapped

    def test_estimate_cache_invalidates_on_cap(self):
        from repro.capping.scheduler import cached_estimate_run, estimate_cache

        workload = benchmark("PdO2").build()
        cache = estimate_cache()
        cache.clear()
        a = cached_estimate_run(workload, 2, 200.0)
        b = cached_estimate_run(workload, 2, 100.0)
        again = cached_estimate_run(workload, 2, 200.0)
        assert cache.misses == 2 and cache.hits == 1
        assert again is a
        assert a.runtime_s < b.runtime_s
