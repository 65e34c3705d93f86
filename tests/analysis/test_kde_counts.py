"""One KDE evaluation per sample: counts, not seconds.

The modes, the high power mode and its FWHM are read from one evaluated
density, so each sample a statistic summarizes costs exactly one
``GaussianKDE.evaluate`` call.  A caller that goes back to building a
KDE per statistic fails here however fast or slow the host is.
"""

import numpy as np
import pytest

from repro.analysis.kde import GaussianKDE
from repro.analysis.stats import summarize
from repro.experiments import (
    fig02_sampling,
    fig06_system_size,
    fig07_internal_params,
    topdown,
)
from repro.prediction.clustering import profile_features


@pytest.fixture
def evaluations(monkeypatch):
    """The sizes of the samples whose KDE is evaluated, in call order."""
    calls = []
    real_evaluate = GaussianKDE.evaluate

    def evaluate(self, grid):
        calls.append(self.data.size)
        return real_evaluate(self, grid)

    monkeypatch.setattr(GaussianKDE, "evaluate", evaluate)
    return calls


@pytest.fixture
def sample():
    rng = np.random.default_rng(0)
    return np.concatenate([rng.normal(300, 10, 600), rng.normal(520, 15, 400)])


def test_summarize_evaluates_once(evaluations, sample):
    summarize(sample)
    assert evaluations == [sample.size]


def test_profile_features_evaluates_once(evaluations, sample):
    profile_features(sample)
    assert evaluations == [sample.size]


def test_fig02_evaluates_once_per_rate(evaluations):
    fig02_sampling.run()
    assert len(evaluations) == len(fig02_sampling.SAMPLING_RATES_S)


def test_fig06_evaluates_node_and_gpu_once_per_size(evaluations):
    sizes = (32, 64)
    fig06_system_size.run(sizes=sizes)
    assert len(evaluations) == 2 * len(sizes)


def test_fig07_measures_the_base_point_once(evaluations):
    """Si256_hse's own NPLWV and NBANDS are one run shared by both panels."""
    fig07_internal_params.run()
    # 5 + 5 sweep points, one of each sweep at the base's own value.
    assert len(evaluations) == 9


def test_topdown_evaluates_once_per_series(evaluations):
    result = topdown.run()
    assert len(evaluations) == len(result.assigned) == len(topdown.BOTTOM_UP_CLASSES)
