"""The memoized workload part of surrogate feature rows.

``surrogate_feature_vector`` computes the workload columns (base vector,
volume terms, cap sensitivity) once per (workload content, node count)
and the cap and platform columns per call.  Every row of the default
corpus grid must equal, bit for bit, the row computed from scratch the
way it was before the memo (:func:`row_from_scratch`).
"""

import math

import numpy as np
import pytest

from repro.hardware.platform import get_platform
from repro.prediction import CorpusConfig, feature_vector, surrogate_feature_vector
from repro.prediction import features
from repro.runner.cache import RunCache
from repro.vasp.benchmarks import benchmark
from repro.vasp.workload import VaspWorkload


def row_from_scratch(workload, n_nodes, cap_w, platform):
    """A surrogate feature row with nothing memoized."""
    spec = get_platform(platform).node
    gpu = spec.gpu
    cap = gpu.tdp_w if cap_w is None else cap_w
    depth = (gpu.cap_max_w - cap) / (gpu.cap_max_w - gpu.cap_min_w)
    if isinstance(workload, VaspWorkload):
        base = features._vasp_feature_vector(workload, n_nodes)
        volume_terms = [
            math.log10(max(workload.incar.nelm, 1)),
            math.log10(max(workload.kpoints.irreducible, 1)),
        ]
        is_hse = base[features.FEATURE_NAMES.index("is_hse")]
        is_rpa = base[features.FEATURE_NAMES.index("is_rpa")]
        cap_sensitivity = max(is_hse, is_rpa)
    else:
        base = features._generic_feature_vector(workload, n_nodes)
        stats = features._phase_statistics(workload, n_nodes)
        volume_terms = [
            math.log10(max(stats["n_phases"], 1.0)),
            math.log10(max(stats["total_s"], 1.0)),
        ]
        cap_sensitivity = stats["compute_fraction"]
    return np.concatenate(
        [
            base,
            volume_terms,
            [
                cap / gpu.tdp_w,
                depth,
                depth * depth,
                depth * cap_sensitivity,
                math.log10(gpu.tdp_w),
                math.log10(gpu.hbm_bw_gbs),
                math.log10(gpu.peak_fp64_tflops),
                spec.host_power_w / spec.tdp_w,
            ],
        ]
    )


@pytest.fixture
def fresh_memo(monkeypatch):
    memo = RunCache(maxsize=1024, name="features")
    monkeypatch.setattr(features, "_WORKLOAD_FEATURES", memo)
    return memo


def test_corpus_grid_rows_equal_rows_from_scratch(fresh_memo):
    specs = list(CorpusConfig().specs())
    for spec in specs:
        args = (spec.workload, spec.n_nodes, spec.cap_w, spec.platform_id)
        row = surrogate_feature_vector(*args)
        assert np.array_equal(row, row_from_scratch(*args)), spec
    # One computation per (workload, width); every other point is a hit.
    pairs = {(id(spec.workload), spec.n_nodes) for spec in specs}
    assert fresh_memo.misses == len(pairs)
    assert fresh_memo.hits == len(specs) - len(pairs)


def test_feature_vector_is_the_callers_copy(fresh_memo):
    workload = benchmark("PdO2").build()
    first = feature_vector(workload, 1)
    first[:] = -1.0
    again = feature_vector(workload, 1)
    assert np.array_equal(again, features._vasp_feature_vector(workload, 1))
    assert fresh_memo.hits == 1


def test_node_count_is_validated_before_the_memo(fresh_memo):
    with pytest.raises(ValueError, match="n_nodes"):
        feature_vector(benchmark("PdO2").build(), 0)
    assert fresh_memo.misses == 0
