"""Training-corpus generation and predictor evaluation.

The corpus is generated the way a centre would build one: run a diverse
sweep (the silicon family across sizes/methods plus the production-like
benchmark suite at several node counts), measure each run's high power
mode through the standard telemetry/analysis pipeline, and train on the
result.  Generation goes through :class:`~repro.runner.sweep.SweepExecutor`,
so repeated grid points dedupe and ``REPRO_SWEEP_WORKERS`` parallelizes
the engine runs.

Evaluation reports mean absolute percentage error (MAPE) under held-out
splits — the realistic deployment questions are "can we predict a job we
have not profiled?" (:func:`evaluate`, leave-one-workload-out) and, for
the two-stage surrogate, "can we predict a cap we have not measured on a
job we have not profiled?" (:func:`evaluate_surrogate`, held-out
workload × cap grid).  Training-point accuracy is never reported: the
method-class features correlate perfectly with workload identity, so
in-sample error would just launder memorization into a headline number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.modes import high_power_mode_w
from repro.prediction.corpus import CorpusConfig, CorpusSample, build_corpus
from repro.prediction.model import (
    DEFAULT_K,
    PowerPredictor,
    TrainingSample,
    fit_surrogate,
)
from repro.runner.sweep import RunSpec, SweepExecutor
from repro.vasp.benchmarks import BENCHMARKS, silicon_workload
from repro.vasp.workload import VaspWorkload


def _spec_hpm(spec: RunSpec) -> float:
    """Run one spec and keep only its node HPM."""
    measured = spec.execute()
    return high_power_mode_w(measured.telemetry[0].node_power)


def training_corpus(seed: int = 13) -> list[TrainingSample]:
    """A diverse corpus: silicon sweeps plus the benchmark suite.

    The grid (and its order) is the seed repository's; execution now goes
    through the sweep executor for dedupe and run-cache reuse.
    """
    grid: list[tuple[VaspWorkload, int]] = []
    # Silicon sizes x two methods, single node.
    for n_atoms in (64, 128, 256, 512, 1024):
        for method in ("dft_normal", "dft_veryfast"):
            grid.append((silicon_workload(n_atoms, method, nelm=6), 1))
    # Higher-order silicon workloads.
    for n_atoms in (128, 256):
        for method in ("hse", "acfdtr"):
            grid.append((silicon_workload(n_atoms, method, nelm=6), 1))
    # The production-like suite at one and two nodes.
    for case in BENCHMARKS.values():
        workload = case.build()
        for n_nodes in (1, 2):
            grid.append((workload, n_nodes))

    specs = [
        RunSpec(workload=workload, n_nodes=n_nodes, seed=seed)
        for workload, n_nodes in grid
    ]
    hpms = SweepExecutor().map(_spec_hpm, specs)
    return [
        TrainingSample.from_run(workload, n_nodes, hpm)
        for (workload, n_nodes), hpm in zip(grid, hpms)
    ]


@dataclass
class EvaluationReport:
    """Prediction errors from leave-one-workload-out evaluation."""

    per_workload_ape: dict[str, float]

    @property
    def mape(self) -> float:
        """Mean absolute percentage error across held-out workloads."""
        return float(np.mean(list(self.per_workload_ape.values())))

    @property
    def worst_ape(self) -> float:
        """Worst single held-out error."""
        return float(max(self.per_workload_ape.values()))


def evaluate(
    samples: list[TrainingSample] | None = None, ridge_lambda: float = 1.0e-3
) -> EvaluationReport:
    """Leave-one-workload-out evaluation of the predictor."""
    if samples is None:
        samples = training_corpus()
    names = sorted({s.workload_name for s in samples})
    errors: dict[str, float] = {}
    for held_out in names:
        train = [s for s in samples if s.workload_name != held_out]
        test = [s for s in samples if s.workload_name == held_out]
        predictor = PowerPredictor(ridge_lambda=ridge_lambda).fit(train)
        apes = [
            abs(predictor.predict_features(s.features) - s.hpm_w) / s.hpm_w
            for s in test
        ]
        errors[held_out] = float(np.mean(apes))
    return EvaluationReport(per_workload_ape=errors)


# ---------------------------------------------------------------------------
# Two-stage surrogate evaluation (held-out workload x cap grid)
# ---------------------------------------------------------------------------


@dataclass
class SurrogateEvaluation:
    """Held-out errors of the two-stage surrogate.

    ``per_workload_ape`` comes from leave-one-workload-out splits (every
    cap/platform point of the held-out workload is scored); ``per_cap_ape``
    from leave-one-cap-out splits (that cap's points across all workloads
    are scored, training on the other caps).  Both are HPM errors;
    ``per_target_mape`` aggregates the workload split per target.
    """

    per_workload_ape: dict[str, float]
    per_cap_ape: dict[str, float]
    per_target_mape: dict[str, float] = field(default_factory=dict)

    @property
    def mape(self) -> float:
        """HPM MAPE across held-out workloads."""
        return float(np.mean(list(self.per_workload_ape.values())))

    @property
    def worst_ape(self) -> float:
        """Worst held-out-workload HPM error."""
        return float(max(self.per_workload_ape.values()))

    @property
    def cap_mape(self) -> float:
        """HPM MAPE across held-out caps (1 training cap -> 0.0 splits)."""
        if not self.per_cap_ape:
            return 0.0
        return float(np.mean(list(self.per_cap_ape.values())))


#: Targets scored as percentage errors (positive-scale targets only —
#: APE of a ratio near 1.0 is not meaningful the same way).
_APE_TARGETS: tuple[str, ...] = (
    "hpm_w",
    "mean_node_power_w",
    "runtime_s",
    "energy_per_node_j",
)


def _score(
    train: list[CorpusSample],
    test: list[CorpusSample],
    k: int,
    ridge_lambda: float,
    seed: int,
) -> dict[str, list[float]]:
    """Fit on ``train``, return per-target APE lists on ``test``."""
    surrogate = fit_surrogate(train, k=k, ridge_lambda=ridge_lambda, seed=seed)
    apes: dict[str, list[float]] = {name: [] for name in _APE_TARGETS}
    for sample in test:
        prediction = surrogate.predict_features(sample.input_features)
        for name in _APE_TARGETS:
            truth = float(getattr(sample, name))
            apes[name].append(abs(prediction.target(name) - truth) / truth)
    return apes


def evaluate_surrogate(
    samples: list[CorpusSample] | None = None,
    config: CorpusConfig | None = None,
    k: int = DEFAULT_K,
    ridge_lambda: float = 1.0e-3,
    seed: int = 0,
) -> SurrogateEvaluation:
    """Held-out workload × cap evaluation of the two-stage surrogate.

    No training point is ever scored: workload splits hold out every
    (cap, platform) grid point of one workload; cap splits hold out one
    cap fraction across every workload (``None``/uncapped always stays in
    training — it anchors the slowdown target).
    """
    if samples is None:
        samples = build_corpus(config)
    names = sorted({s.workload_name for s in samples})
    per_workload: dict[str, float] = {}
    target_apes: dict[str, list[float]] = {name: [] for name in _APE_TARGETS}
    for held_out in names:
        train = [s for s in samples if s.workload_name != held_out]
        test = [s for s in samples if s.workload_name == held_out]
        apes = _score(train, test, k, ridge_lambda, seed)
        per_workload[held_out] = float(np.mean(apes["hpm_w"]))
        for name in _APE_TARGETS:
            target_apes[name].extend(apes[name])

    # Cap splits: group capped samples by cap depth relative to their
    # platform (fraction of TDP), so "hold out half-TDP" holds it out on
    # every platform at once.
    def cap_key(sample: CorpusSample) -> str:
        from repro.hardware.platform import get_platform

        assert sample.cap_w is not None
        tdp = get_platform(sample.platform_id).gpu.tdp_w
        return f"{sample.cap_w / tdp:.3f}"

    fractions = sorted({cap_key(s) for s in samples if s.cap_w is not None})
    per_cap: dict[str, float] = {}
    if len(fractions) > 1:
        for held_out_cap in fractions:
            train = [
                s
                for s in samples
                if s.cap_w is None or cap_key(s) != held_out_cap
            ]
            test = [
                s
                for s in samples
                if s.cap_w is not None and cap_key(s) == held_out_cap
            ]
            apes = _score(train, test, k, ridge_lambda, seed)
            per_cap[held_out_cap] = float(np.mean(apes["hpm_w"]))

    return SurrogateEvaluation(
        per_workload_ape=per_workload,
        per_cap_ape=per_cap,
        per_target_mape={
            name: float(np.mean(values)) for name, values in target_apes.items()
        },
    )
