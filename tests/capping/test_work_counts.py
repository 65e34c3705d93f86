"""Deterministic work counts of a traced fleet run: counts, not seconds.

A fleet job's cost is its keying, its phase builds, its resolve and its
render.  Each has an exact expected count for a seeded run, so a change
that re-keys a workload on every lookup, rebuilds a phase list,
resolves a repeated kernel row twice or renders rows the fold never
reads fails here however fast or slow the host is.
"""

import pytest

from repro.capping import scheduler, shard
from repro.hardware.gpu import GpuModel
from repro.capping.fleet import compare_fleet_policies_traced, job_stream
from repro.runner import cache
from repro.runner.cache import RunCache, content_key
from repro.runner import engine
from repro.runner.engine import EngineConfig
from repro.workloads import get_workload_model, workload_model_ids

N_JOBS = 24
SEED = 0

WORKLOAD_TYPES = tuple(
    get_workload_model(model_id).workload_type for model_id in workload_model_ids()
)


@pytest.fixture
def counted(monkeypatch):
    """Run the fleet on empty process stores and count its work."""
    monkeypatch.setattr(cache, "_PHASE_STORE", RunCache(name="phases"))
    monkeypatch.setattr(
        scheduler, "_ESTIMATE_CACHE", RunCache(maxsize=1024, name="estimate")
    )
    counts = {
        "walked": [],
        "builds": [],
        # Series chunks rendered, and job renders.
        "rendered": 0,
        "renders": 0,
        # (jobs, [(grid rows, node slots) per batched resolve]) per batch.
        "batches": [],
        # (phases, scalar resolves) per admission estimate.
        "estimates": [],
    }

    real_fields = cache._dataclass_fields

    def dataclass_fields(obj):
        if isinstance(obj, WORKLOAD_TYPES):
            counts["walked"].append(obj)
        return real_fields(obj)

    monkeypatch.setattr(cache, "_dataclass_fields", dataclass_fields)

    real_layout_for = cache.layout_for

    def layout_for(workload, n_nodes):
        counts["builds"].append((content_key(workload), n_nodes))
        return real_layout_for(workload, n_nodes)

    monkeypatch.setattr(cache, "layout_for", layout_for)

    real_render_blocks = shard.render_blocks

    def render_blocks(*args, **kwargs):
        counts["renders"] += 1
        for block in real_render_blocks(*args, **kwargs):
            counts["rendered"] += len(block.series)
            yield block

    monkeypatch.setattr(shard, "render_blocks", render_blocks)

    real_resolve_batch = shard.resolve_batch

    def resolve_batch(task, nodes):
        counts["batches"].append((task.jobs, []))
        return real_resolve_batch(task, nodes)

    monkeypatch.setattr(shard, "resolve_batch", resolve_batch)

    real_batch = engine.resolve_phase_batch

    def resolve_phase_batch(demand_w, *args, **kwargs):
        counts["batches"][-1][1].append(demand_w.shape[:2])
        return real_batch(demand_w, *args, **kwargs)

    monkeypatch.setattr(engine, "resolve_phase_batch", resolve_phase_batch)

    real_estimate_run = scheduler.estimate_run

    def estimate_run(workload, n_nodes, *args, **kwargs):
        counts["estimates"].append([cache.cached_phases(workload, n_nodes), 0])
        return real_estimate_run(workload, n_nodes, *args, **kwargs)

    monkeypatch.setattr(scheduler, "estimate_run", estimate_run)

    real_resolve_phase = GpuModel.resolve_phase

    def resolve_phase(self, *args, **kwargs):
        if counts["estimates"]:
            counts["estimates"][-1][1] += 1
        return real_resolve_phase(self, *args, **kwargs)

    monkeypatch.setattr(GpuModel, "resolve_phase", resolve_phase)

    reports = compare_fleet_policies_traced(
        n_jobs=N_JOBS,
        n_nodes=48,
        seed=SEED,
        engine_config=EngineConfig(base_interval_s=1.0),
        workers=1,
    )
    return counts, reports


def test_each_workload_instance_is_walked_once(counted):
    """Both policies share one stream: one instance per benchmark."""
    counts, _ = counted
    walked = counts["walked"]
    distinct = {id(w) for w in walked}
    assert len(walked) == len(distinct)
    names = {job.job_id.split("@")[0] for job in job_stream(N_JOBS, seed=SEED)}
    assert len(distinct) == len(names)


def test_one_phase_build_per_workload_width(counted):
    counts, _ = counted
    pairs = {
        (content_key(job.workload), job.n_nodes)
        for job in job_stream(N_JOBS, seed=SEED)
    }
    assert sorted(counts["builds"]) == sorted(pairs)


def test_untapped_run_renders_only_the_chunks_it_folds(counted):
    counts, reports = counted
    assert counts["rendered"] == sum(r.chunks_streamed for r in reports)
    assert counts["rendered"] > 0


def distinct_rows(phases, active_only=False):
    """The distinct resolve-input rows of a phase list, from the phases."""
    return {
        (
            p.gpu_profile.duty_cycle,
            p.gpu_profile.compute_utilization,
            p.gpu_profile.memory_utilization,
            p.gpu_profile.compute_fraction,
            p.cpu_utilization,
            p.mem_bw_utilization,
            p.nic_utilization,
        )
        for p in phases
        if not active_only or p.gpu_profile.duty_cycle > 0.0
    }


def test_each_batch_resolves_each_phase_table_once(counted):
    """A batch makes one batched resolve per distinct (workload, width)
    among its jobs, on a grid of that table's distinct rows by all the
    node slots of the jobs sharing it; no job render resolves again."""
    counts, reports = counted
    jobs_completed = sum(r.jobs_completed for r in reports)
    assert counts["renders"] == jobs_completed
    # Serial runs render each policy's schedule as one batch.
    assert len(counts["batches"]) == len(reports)
    assert sum(len(jobs) for jobs, _ in counts["batches"]) == jobs_completed
    for jobs, grids in counts["batches"]:
        groups: dict = {}
        for job in jobs:
            groups.setdefault((content_key(job.workload), job.n_nodes), []).append(job)
        expected = [
            (
                len(distinct_rows(cache.cached_phases(members[0].workload, n_nodes))),
                sum(job.n_nodes for job in members),
            )
            for (_, n_nodes), members in groups.items()
        ]
        assert sorted(grids) == sorted(expected)
        assert len(grids) == len(groups) < len(jobs)


def test_each_estimate_resolves_its_active_rows_once(counted):
    """An admission estimate makes one scalar resolve per GPU-active row."""
    counts, _ = counted
    assert counts["estimates"]
    for phases, resolves in counts["estimates"]:
        assert resolves == len(distinct_rows(phases, active_only=True))
