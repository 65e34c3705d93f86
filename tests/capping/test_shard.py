"""Sharded fleet execution and checkpoint/resume.

The contract under test is bit-identity: sharded == serial at any
worker count and render chunk size, and a run resumed from *any* checkpoint ==
an uninterrupted run.  All comparisons are exact (``==``), never
approximate — every execution mode folds the same per-job partials in
the same chronological order.
"""

import dataclasses
import math
from concurrent.futures import Future

import pytest

from repro.capping import shard
from repro.capping import fleet
from repro.capping.fleet import (
    FleetRun,
    compare_fleet_policies_traced,
    job_stream,
    simulate_fleet_traced,
)
from repro.hardware.platform import get_platform
from repro.monitor import FleetMonitor
from repro.runner import cache
from repro.runner import engine as engine_module
from repro.runner.cache import RunCache, atomic_write_pickle
from repro.runner.engine import EngineConfig

#: Coarse sampling keeps a five-job fleet render fast while still
#: producing hundreds of chunks through the accumulator.
ENGINE = EngineConfig(base_interval_s=1.0)

#: Several render chunks per series, with chunk edges inside phases.
pytestmark = pytest.mark.usefixtures("small_chunks")


def _jobs():
    return job_stream(n_jobs=5, seed=7)


#: The :class:`FleetRun` fields every ``_run`` shares unless overridden.
RUN = dict(n_nodes=8, bin_s=2.0, engine_config=ENGINE, seed=7)

#: The execution-mode keywords of :func:`simulate_fleet_traced`.
MODES = ("workers", "monitor", "checkpoint", "resume", "heartbeat")


def _run(jobs=None, **kwargs):
    modes = {key: kwargs.pop(key) for key in MODES if key in kwargs}
    run = FleetRun(jobs if jobs is not None else _jobs(), **{**RUN, **kwargs})
    return simulate_fleet_traced(run, **modes)


def _compare():
    """Both policies over :func:`_jobs`, through the comparison entry point."""
    return compare_fleet_policies_traced(
        n_jobs=5, n_nodes=8, seed=7, bin_s=2.0, engine_config=ENGINE
    )


#: A value differing from :data:`RUN` (and the defaults) per FleetRun field.
OTHER_RUN = {
    "jobs": lambda: job_stream(n_jobs=5, seed=8),
    "policy": lambda: "uncapped",
    "n_nodes": lambda: 9,
    "platforms": lambda: ("a100-40g", "h100-sxm"),
    "power_budget_w": lambda: 1e6,
    "bin_s": lambda: 4.0,
    "engine_config": lambda: EngineConfig(base_interval_s=2.0),
    "seed": lambda: 8,
}


def _assert_identical(a, b):
    """Every statistic in the two reports must match bit for bit."""
    assert a.system == b.system
    assert a.node_power_mean_w == b.node_power_mean_w
    assert a.node_power_std_w == b.node_power_std_w
    assert a.node_power_peak_w == b.node_power_peak_w
    assert a.jobs_completed == b.jobs_completed
    assert a.samples_streamed == b.samples_streamed
    assert a.chunks_streamed == b.chunks_streamed
    assert a.bytes_streamed == b.bytes_streamed
    assert a.makespan_s == b.makespan_s


class TestShardedBitIdentity:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("chunk", [23, 64])
    def test_sharded_matches_serial(self, workers, chunk, monkeypatch):
        monkeypatch.setattr(engine_module, "RENDER_CHUNK", chunk)
        serial = _run()
        sharded = _run(workers=workers)
        _assert_identical(serial, sharded)

    def test_mixed_platform_pool(self):
        mixed = ["a100-40g", "h100-sxm"]
        serial = _run(platforms=mixed)
        sharded = _run(platforms=mixed, workers=2)
        _assert_identical(serial, sharded)

    def test_env_override_shards(self, monkeypatch):
        serial = _run()
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        sharded = _run()
        _assert_identical(serial, sharded)

    def test_monitored_sharded_matches_monitored_serial(self):
        live, replayed = FleetMonitor(), FleetMonitor()
        serial = _run(monitor=live)
        sharded = _run(monitor=replayed, workers=2)
        _assert_identical(serial, sharded)
        assert live.finalize() == replayed.finalize()

    def test_monitored_report_unaffected_by_monitor(self):
        bare = _run(workers=2)
        monitored = _run(monitor=FleetMonitor(), workers=2)
        _assert_identical(bare, monitored)


class _InlinePool:
    """A ``ProcessPoolExecutor`` stand-in that runs batches in-process."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


#: A minimal partial for the stub renderer below (only ``index`` is read).
_PARTIAL = shard.JobPartial(
    index=0,
    job_id="",
    start_s=0.0,
    n_nodes=1,
    runtime_s=0.0,
    power=None,
    moment_rows=[],
    chunks=0,
    nbytes=0,
)


def _job_tasks(n_jobs):
    """``n_jobs`` chronological render tasks (dispatch never reads their
    render inputs)."""
    return tuple(
        shard.ShardJobTask(
            index=i,
            job_id=f"job{i}",
            start_s=float(i),
            end_s=float(i) + 1.0,
            cap_w=400.0,
            n_nodes=1,
            node_names=("nid001000",),
            spec_indices=(0,),
            workload=None,
            seed=i,
        )
        for i in range(n_jobs)
    )


class TestBatchSplit:
    """Dispatch cuts the chronological jobs into contiguous batches and
    sizes the pool to them; any free worker takes the next batch."""

    @pytest.fixture
    def dispatch(self, monkeypatch):
        """Run :func:`shard.run_sharded` with a recording in-process pool and
        a stub renderer: ``(pool width, batches' job indices, folded indices)``."""
        seen = {}

        class RecordingPool(_InlinePool):
            def __init__(self, max_workers=None):
                seen["width"] = max_workers
                seen["batches"] = []

            def submit(self, fn, task):
                seen["batches"].append([job.index for job in task.jobs])
                return super().submit(fn, task)

        def stub_render(task):
            return shard.ShardResult(
                jobs=[dataclasses.replace(_PARTIAL, index=j.index) for j in task.jobs]
            )

        monkeypatch.setattr(shard, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(shard, "_render_shard", stub_render)

        def run(jobs, workers):
            folded = []
            schedule = shard.ShardTask(
                specs=(get_platform(None).node,),
                engine_config=ENGINE,
                bin_s=2.0,
                monitor_platform=None,
                jobs=jobs,
            )
            assert shard.run_sharded(
                schedule, workers=workers, fold=lambda p: folded.append(p.index)
            )
            return seen["width"], seen["batches"], folded

        return run

    @pytest.mark.parametrize("resumed_at", [0, 7])
    @pytest.mark.parametrize("workers", [1, 2, 3, 100])
    def test_contiguous_batches_on_a_pool_sized_to_them(
        self, dispatch, workers, resumed_at
    ):
        jobs = _job_tasks(23)[resumed_at:]
        width, batches, folded = dispatch(jobs, workers)
        indices = [job.index for job in jobs]
        # Every job lands in exactly one batch; batches are contiguous and
        # ascending, submitted in schedule order.
        assert [i for batch in batches for i in batch] == indices
        for batch in batches:
            assert batch == list(range(batch[0], batch[0] + len(batch)))
        size = math.ceil(len(jobs) / (shard.BATCHES_PER_WORKER * workers))
        assert [len(batch) for batch in batches[:-1]] == [size] * (len(batches) - 1)
        assert width == min(workers, len(batches))
        assert folded == indices

    def test_batch_count_follows_the_module_constant(self, dispatch, monkeypatch):
        monkeypatch.setattr(shard, "BATCHES_PER_WORKER", 1)
        _, batches, _ = dispatch(_job_tasks(6), 2)
        assert batches == [[0, 1, 2], [3, 4, 5]]


class TestOutOfOrderFold:
    def test_reversed_completion_folds_chronologically(self, monkeypatch):
        """One-job batches completing last-first still fold in schedule
        order, to the serial report's bits."""
        serial = _run()
        arrived, folded, batch_sizes = [], [], []

        def reversed_completion(futures):
            for future in reversed(list(futures)):
                arrived.extend(p.index for p in future.result().jobs)
                yield future

        real_run_sharded = shard.run_sharded

        def recording_run_sharded(schedule, *, workers, fold):
            def recorded(partial):
                folded.append(partial.index)
                fold(partial)

            return real_run_sharded(schedule, workers=workers, fold=recorded)

        class SizingPool(_InlinePool):
            def submit(self, fn, task):
                batch_sizes.append(len(task.jobs))
                return super().submit(fn, task)

        monkeypatch.setattr(shard, "ProcessPoolExecutor", SizingPool)
        monkeypatch.setattr(shard, "_WORKER_NODES", {})
        monkeypatch.setattr(shard, "BATCHES_PER_WORKER", 100)
        monkeypatch.setattr(shard, "as_completed", reversed_completion)
        monkeypatch.setattr(shard, "run_sharded", recording_run_sharded)
        sharded = _run(workers=2)
        chronological = list(range(serial.jobs_completed))
        assert batch_sizes == [1] * len(chronological)
        assert arrived == chronological[::-1]
        assert folded == chronological
        _assert_identical(serial, sharded)


class TestWorkerResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert shard.resolve_fleet_workers(100) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "8")
        assert shard.resolve_fleet_workers(100, workers=3) == 3

    def test_env_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        assert shard.resolve_fleet_workers(100) == 4

    def test_clamped_to_job_count(self):
        assert shard.resolve_fleet_workers(2, workers=16) == 2

    def test_never_below_one(self):
        assert shard.resolve_fleet_workers(5, workers=0) == 1


class TestCheckpointResume:
    #: The real saver, untouched by the stashing monkeypatch below.
    _real_save = staticmethod(shard.save_checkpoint)

    def _stashing_save(self, monkeypatch):
        """Capture every checkpoint the run writes, in write order."""
        stashed = []

        def save(path, checkpoint):
            stashed.append(checkpoint)
            self._real_save(path, checkpoint)

        monkeypatch.setattr(shard, "save_checkpoint", save)
        return stashed

    def test_resume_from_every_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "fleet.ckpt"
        stashed = self._stashing_save(monkeypatch)
        monkeypatch.setattr(fleet, "CHECKPOINT_EVERY", 1)
        reference = _run(checkpoint=path)
        snapshots = list(stashed)
        assert len(snapshots) == reference.jobs_completed
        for checkpoint in snapshots:
            self._real_save(path, checkpoint)
            resumed = _run(checkpoint=path, resume=True)
            _assert_identical(reference, resumed)

    def test_resume_from_every_checkpoint_sharded(self, tmp_path, monkeypatch):
        path = tmp_path / "fleet.ckpt"
        stashed = self._stashing_save(monkeypatch)
        monkeypatch.setattr(fleet, "CHECKPOINT_EVERY", 2)
        reference = _run(checkpoint=path, workers=2)
        snapshots = list(stashed)
        serial = _run()
        _assert_identical(serial, reference)
        for checkpoint in snapshots:
            self._real_save(path, checkpoint)
            resumed = _run(checkpoint=path, resume=True, workers=2)
            _assert_identical(reference, resumed)

    def test_final_checkpoint_skips_all_rendering(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        reference = _run(checkpoint=path)
        assert shard.load_checkpoint(path).jobs_done == reference.jobs_completed
        resumed = _run(checkpoint=path, resume=True)
        _assert_identical(reference, resumed)

    def test_resume_without_checkpoint_file_runs_fresh(self, tmp_path):
        path = tmp_path / "missing.ckpt"
        fresh = _run(checkpoint=path, resume=True)
        _assert_identical(_run(), fresh)
        assert path.exists()  # the fresh run checkpoints as it goes

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        _run(checkpoint=path)
        with pytest.raises(ValueError, match="different simulation"):
            _run(checkpoint=path, resume=True, seed=8)

    def test_env_checkpoint_path(self, tmp_path, monkeypatch):
        """The comparison reads the variable, one file per policy; a single
        run never does (``repro monitor`` must ignore it)."""
        path = tmp_path / "env.ckpt"
        monkeypatch.setenv("REPRO_FLEET_CHECKPOINT", str(path))
        _run()
        assert list(tmp_path.iterdir()) == []
        reference = _compare()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "env.ckpt.capped",
            "env.ckpt.uncapped",
        ]
        monkeypatch.delenv("REPRO_FLEET_CHECKPOINT")
        for a, b in zip(reference, _compare()):
            _assert_identical(a, b)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="checkpoint"):
            shard.load_checkpoint(path)

    def test_wrong_payload_rejected(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        atomic_write_pickle(path, {"version": 1})
        with pytest.raises(ValueError, match="not a version-"):
            shard.load_checkpoint(path)

    def test_missing_checkpoint_is_none(self, tmp_path):
        assert shard.load_checkpoint(tmp_path / "nope.ckpt") is None

    def test_version_3_checkpoint_refused_on_resume(self, tmp_path):
        """Checkpoints from before the FleetRun fingerprint never resume."""
        path = tmp_path / "fleet.ckpt"
        _run(checkpoint=path)
        old = shard.load_checkpoint(path)
        old.version = 3
        self._real_save(path, old)
        with pytest.raises(ValueError, match="not a version-4 fleet checkpoint"):
            _run(checkpoint=path, resume=True)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(FleetRun)])
    def test_resume_refuses_a_run_differing_in_one_field(self, tmp_path, field):
        path = tmp_path / "fleet.ckpt"
        _run(checkpoint=path)
        with pytest.raises(ValueError, match="different simulation"):
            _run(checkpoint=path, resume=True, **{field: OTHER_RUN[field]()})

    def test_older_version_rejected(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        _run(checkpoint=path)
        old = shard.load_checkpoint(path)
        old.version = shard.CHECKPOINT_VERSION - 1
        self._real_save(path, old)
        with pytest.raises(ValueError, match=f"version-{shard.CHECKPOINT_VERSION}"):
            shard.load_checkpoint(path)

    def test_fold_restore_rejects_a_different_pool(self):
        from repro.hardware.system import SystemPowerAccumulator

        saved = shard.FleetFold(SystemPowerAccumulator(n_nodes=8, bin_s=2.0))
        other = shard.FleetFold(SystemPowerAccumulator(n_nodes=9, bin_s=2.0))
        with pytest.raises(ValueError, match="n_nodes"):
            other.restore(saved.state())


class TestGuardRails:
    def test_checkpoint_rejects_monitor(self, tmp_path):
        with pytest.raises(ValueError, match="monitor"):
            _run(monitor=FleetMonitor(), checkpoint=tmp_path / "c.ckpt")

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError, match="resume"):
            _run(resume=True)



class TestLazyPool:
    def test_unmonitored_run_builds_only_touched_nodes(self):
        from repro.hardware.system import PerlmutterSystem

        pool = PerlmutterSystem(n_nodes=64)
        assert pool.nodes.built_count == 0
        names = pool.allocate_names("j", 4)
        assert pool.nodes.built_count == 0
        nodes = [pool.nodes[name] for name in names]
        assert pool.nodes.built_count == 4
        assert [node.name for node in nodes] == names

    def test_lazy_nodes_match_eager_nodes(self):
        from repro.hardware.system import PerlmutterSystem

        lazy = PerlmutterSystem(n_nodes=8)
        eager = PerlmutterSystem(n_nodes=8)
        eager.materialize()
        for name in list(lazy.nodes):
            a, b = lazy.nodes[name], eager.nodes[name]
            assert a.name == b.name
            assert a.gpus == b.gpus


class TestNodeReuse:
    """The shared per-job render builds each node once, not once per job."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        from repro.hardware.node import GpuNode

        built = []
        original = GpuNode.__post_init__

        def counting_post_init(node):
            original(node)
            built.append((node.name, node.spec))

        monkeypatch.setattr(GpuNode, "__post_init__", counting_post_init)
        return built

    @pytest.fixture
    def allocations(self, monkeypatch):
        from repro.capping import fleet
        from repro.hardware.system import PerlmutterSystem

        seen = {"names": []}

        class RecordingPool(PerlmutterSystem):
            def allocate_names(self, job_id, n_nodes):
                granted = super().allocate_names(job_id, n_nodes)
                seen["pool"] = self
                seen["names"].extend(granted)
                return granted

        monkeypatch.setattr(fleet, "PerlmutterSystem", RecordingPool)
        return seen

    def test_serial_run_builds_each_allocated_node_once(
        self, constructions, allocations
    ):
        _run()
        distinct = set(allocations["names"])
        # Jobs share nodes, so a per-job rebuild would overshoot.
        assert len(allocations["names"]) > len(distinct)
        assert allocations["pool"].nodes.built_count == len(distinct)
        assert len(constructions) == len(distinct)

    def test_worker_builds_each_name_spec_once(
        self, monkeypatch, constructions, allocations
    ):
        monkeypatch.setattr(shard, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(shard, "_WORKER_NODES", {})
        monkeypatch.setattr(cache, "_PHASE_STORE", RunCache(name="phases"))
        mixed = ["a100-40g", "h100-sxm"]
        sharded = _run(workers=2, platforms=mixed)
        distinct = set(allocations["names"])
        assert len(allocations["names"]) > len(distinct)
        # Every batch ran through the worker memo, never the pool.
        assert allocations["pool"].nodes.built_count == 0
        assert len(constructions) == len(set(constructions)) == len(distinct)
        assert set(shard._WORKER_NODES) == set(constructions)
        monkeypatch.undo()
        _assert_identical(sharded, _run(platforms=mixed))
