"""Deterministic work counts of a traced fleet run: counts, not seconds.

A fleet job's cost is its keying, its phase builds and its render.  Each
has an exact expected count for a seeded run, so a change that re-keys a
workload on every lookup, rebuilds a phase list, or renders rows the
fold never reads fails here however fast or slow the host is.
"""

import pytest

from repro.capping import scheduler
from repro.capping.fleet import (
    FLEET_POLICIES,
    compare_fleet_policies_traced,
    job_stream,
)
from repro.runner import cache
from repro.runner.cache import RunCache, content_key
from repro.runner.engine import EngineConfig, PowerEngine
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
    counts = {"walked": [], "builds": [], "rendered": 0}

    real_canonical = cache._canonical

    def canonical(obj):
        if isinstance(obj, WORKLOAD_TYPES):
            counts["walked"].append(obj)
        return real_canonical(obj)

    monkeypatch.setattr(cache, "_canonical", canonical)

    real_layout_for = cache.layout_for

    def layout_for(workload, n_nodes):
        counts["builds"].append((content_key(workload), n_nodes))
        return real_layout_for(workload, n_nodes)

    monkeypatch.setattr(cache, "layout_for", layout_for)

    real_add_noise_chunk = PowerEngine._add_noise_chunk

    def add_noise_chunk(self, means, rng, zi):
        counts["rendered"] += 1
        return real_add_noise_chunk(self, means, rng, zi)

    monkeypatch.setattr(PowerEngine, "_add_noise_chunk", add_noise_chunk)

    reports = compare_fleet_policies_traced(
        n_jobs=N_JOBS,
        n_nodes=48,
        seed=SEED,
        engine_config=EngineConfig(base_interval_s=1.0),
        workers=1,
    )
    return counts, reports


def test_each_workload_instance_is_walked_once(counted):
    """Each policy builds its own stream: one instance per benchmark each."""
    counts, _ = counted
    walked = counts["walked"]
    distinct = {id(w) for w in walked}
    assert len(walked) == len(distinct)
    names = {job.job_id.split("@")[0] for job in job_stream(N_JOBS, seed=SEED)}
    assert len(distinct) == len(FLEET_POLICIES) * len(names)


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
