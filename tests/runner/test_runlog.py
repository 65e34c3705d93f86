"""Tests for the run summary ``repro run`` writes to the ledger."""

import pytest

from repro.experiments.common import run_workload
from repro.runner.runlog import summarize_run
from repro.vasp.benchmarks import benchmark


@pytest.fixture(scope="module")
def run_result():
    return run_workload(benchmark("PdO2").build(), n_nodes=1, seed=2).result


class TestSummarize:
    def test_phase_times_cover_runtime(self, run_result):
        summary = summarize_run(run_result)
        assert summary.loop_time_s == pytest.approx(run_result.runtime_s, rel=1e-6)

    def test_phase_counts(self, run_result):
        summary = summarize_run(run_result)
        count, seconds = summary.phase_times["orbital_update_fft"]
        assert count == 60  # one per SCF iteration (NELM)
        assert seconds > 0

