"""Learned predictors over workload features.

Two generations live here.  :class:`PowerPredictor` is the seed model: a
single ridge regression from scheduler-visible features to the high power
mode, fitted in log-power space (power drivers combine multiplicatively:
occupancy x duty x method class) and exponentiated back to watts.

:class:`TwoStageSurrogate` is the deployment-shaped successor, following
the NERSC two-stage framework: **stage 1** assigns the job to a workload
power class (k-means over engine-derived profile features, assigned at
predict time from input features — :mod:`repro.prediction.clustering`),
**stage 2** applies that class's ridge regressor mapping (workload,
nodes, cap, platform) features to the full target set — HPM, mean node
power, runtime, energy, cap-induced slowdown and GPU TDP fraction.
Positive-scale targets regress in log space; ratio targets stay linear.

Every prediction carries its own envelope verdict (stage-1 distance and
stage-2 residual spread): callers on the fast path treat out-of-envelope
predictions as "fall back to the engine", never as answers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.prediction.clustering import ProfileClassifier, fit_profile_classifier
from repro.prediction.features import (
    FEATURE_NAMES,
    SURROGATE_FEATURE_NAMES,
    feature_vector,
    surrogate_feature_vector,
)
from repro.runner.cache import Account
from repro.vasp.workload import VaspWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.prediction.corpus import CorpusSample

#: Default number of stage-1 workload classes.  Held-out evaluation on
#: the default corpus picks this: the paper's two-class taxonomy
#: (higher-order vs basic DFT) is right for *power*, but runtime and
#: energy generalize far better when the classes also separate scale and
#: phase structure — k=5 cut held-out runtime MAPE ~50x vs k=2 while
#: also improving power MAPE.
DEFAULT_K = 5

#: Targets the surrogate predicts, in column order.
TARGET_NAMES: tuple[str, ...] = (
    "hpm_w",
    "mean_node_power_w",
    "runtime_s",
    "energy_per_node_j",
    "slowdown",
    "tdp_fraction",
)

#: Targets regressed in log space (positive, multiplicative drivers).
_LOG_TARGETS: frozenset[str] = frozenset(
    {"hpm_w", "mean_node_power_w", "runtime_s", "energy_per_node_j"}
)


@dataclass(frozen=True)
class TrainingSample:
    """One observed run: features plus the measured power."""

    workload_name: str
    features: np.ndarray
    hpm_w: float

    @classmethod
    def from_run(
        cls, workload: VaspWorkload, n_nodes: int, hpm_w: float
    ) -> "TrainingSample":
        """Build a sample from a workload, node count and measured HPM."""
        if hpm_w <= 0:
            raise ValueError(f"hpm_w must be positive, got {hpm_w}")
        return cls(
            workload_name=workload.name,
            features=feature_vector(workload, n_nodes),
            hpm_w=hpm_w,
        )


class PowerPredictor:
    """Ridge regression: features -> high power mode per node."""

    def __init__(self, ridge_lambda: float = 1.0e-3) -> None:
        if ridge_lambda < 0:
            raise ValueError(f"ridge_lambda must be >= 0, got {ridge_lambda}")
        self.ridge_lambda = ridge_lambda
        self._weights: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._weights is not None

    def fit(self, samples: list[TrainingSample]) -> "PowerPredictor":
        """Fit the weights by regularized least squares."""
        if len(samples) < len(FEATURE_NAMES):
            raise ValueError(
                f"need at least {len(FEATURE_NAMES)} samples, got {len(samples)}"
            )
        x = np.stack([s.features for s in samples])
        y = np.log(np.array([s.hpm_w for s in samples]))
        n_features = x.shape[1]
        gram = x.T @ x + self.ridge_lambda * np.eye(n_features)
        self._weights = np.linalg.solve(gram, x.T @ y)
        return self

    def predict(self, workload: VaspWorkload, n_nodes: int = 1) -> float:
        """Predicted high power mode per node, in watts."""
        return self.predict_features(feature_vector(workload, n_nodes))

    def predict_features(self, features: np.ndarray) -> float:
        """Prediction from a raw feature vector."""
        if self._weights is None:
            raise RuntimeError("predictor is not fitted; call fit() first")
        return float(np.exp(features @ self._weights))

    def coefficients(self) -> dict[str, float]:
        """Feature name -> fitted log-space weight (interpretability)."""
        if self._weights is None:
            raise RuntimeError("predictor is not fitted; call fit() first")
        return dict(zip(FEATURE_NAMES, (float(w) for w in self._weights)))


# ---------------------------------------------------------------------------
# Two-stage surrogate
# ---------------------------------------------------------------------------


@dataclass
class SurrogateStats(Account):
    """Process-wide surrogate usage totals (cheap plain counters).

    Mirrors :class:`repro.runner.sweep.SweepStats`: always on, a few
    integer adds per prediction, read by CLI footers, the run ledger and
    metrics.  ``last_verification_error`` is a reading, not a count.
    """

    COUNTS = ("predictions", "hits", "fallbacks", "trainings", "verifications")

    predictions: int = 0
    hits: int = 0
    fallbacks: int = 0
    trainings: int = 0
    verifications: int = 0
    last_verification_error: float | None = None

    @property
    def hit_ratio(self) -> float:
        """In-envelope fraction of predictions (0.0 when none served)."""
        if self.predictions == 0:
            return 0.0
        return self.hits / self.predictions

    def record_verification(self, error: float) -> None:
        """Track one verify-the-winner outcome.

        Every surrogate-scored search re-simulates its winner exactly;
        the relative error of that check is the ground-truth drift signal
        the regression sentinel (:mod:`repro.obs.sentinel`) watches, so
        it is accumulated here and annotated into the run ledger by the
        callers that compute it.
        """
        self.verifications += 1
        self.last_verification_error = error
        obs.observe(
            "repro_surrogate_winner_error",
            error,
            help_text="Surrogate-vs-exact relative error on search winners",
        )

    def summary_line(self) -> str:
        """One-line human summary (for CLI footers)."""
        line = (
            f"surrogate: {self.predictions} predictions, "
            f"{self.hits} in-envelope ({self.hit_ratio:.0%}), "
            f"{self.fallbacks} engine fallbacks"
        )
        if self.verifications and self.last_verification_error is not None:
            line += (
                f", winner verified {self.last_verification_error:.1%} off"
            )
        return line

    @staticmethod
    def counters(state: dict[str, int]) -> list[tuple]:
        """The ``repro_surrogate_*_total`` series one :meth:`state` renders as."""
        return [
            ("repro_surrogate_hits_total", {}, state["hits"]),
            ("repro_surrogate_fallbacks_total", {}, state["fallbacks"]),
            ("repro_surrogate_trainings_total", {}, state["trainings"]),
        ]


_STATS = SurrogateStats()
obs.register_stats(f"{__name__}:surrogate", _STATS)


def surrogate_stats() -> SurrogateStats:
    """The process-wide :class:`SurrogateStats` accumulator."""
    return _STATS


def reset_surrogate_stats() -> None:
    """Zero the process-wide surrogate totals (tests, CLI scoping)."""
    _STATS.reset()
    _STATS.last_verification_error = None


@dataclass(frozen=True)
class SurrogatePrediction:
    """One surrogate answer plus the evidence for trusting it.

    ``in_envelope`` is the fast-path contract: when False, the caller
    must treat this object as advisory only and fall back to the engine.
    """

    workload_name: str
    n_nodes: int
    cap_w: float | None
    platform_id: str
    class_index: int
    #: Stage-1 distance to the assigned class's input centroid.
    class_distance: float
    #: Stage-2 residual spread of the log-HPM column (relative error
    #: proxy: exp(sigma)-1 is roughly the one-sigma percentage error).
    uncertainty: float
    in_envelope: bool
    hpm_w: float
    mean_node_power_w: float
    runtime_s: float
    energy_per_node_j: float
    slowdown: float
    tdp_fraction: float

    def target(self, name: str) -> float:
        """One predicted target by :data:`TARGET_NAMES` name."""
        if name not in TARGET_NAMES:
            raise KeyError(f"unknown target {name!r}")
        return float(getattr(self, name))


@dataclass(frozen=True)
class ClassRegressor:
    """Stage 2 for one workload class: multi-target ridge weights.

    ``weights`` is (n_features, n_targets) in fit space (log for the
    positive-scale targets); ``residual_std`` is the per-target residual
    spread on the training members, the stage-2 uncertainty signal.
    """

    weights: np.ndarray
    residual_std: np.ndarray
    n_samples: int

    def predict_row(self, features: np.ndarray) -> np.ndarray:
        """Predicted targets (natural units) for one feature vector."""
        raw = np.asarray(features, dtype=float) @ self.weights
        out = np.empty_like(raw)
        for column, name in enumerate(TARGET_NAMES):
            out[column] = np.exp(raw[column]) if name in _LOG_TARGETS else raw[column]
        return out


def _fit_class_regressor(
    x: np.ndarray, y_fit: np.ndarray, ridge_lambda: float
) -> ClassRegressor:
    """Ridge-solve one class's multi-target weights in fit space."""
    n_features = x.shape[1]
    gram = x.T @ x + ridge_lambda * np.eye(n_features)
    weights = np.linalg.solve(gram, x.T @ y_fit)
    residuals = x @ weights - y_fit
    return ClassRegressor(
        weights=weights,
        residual_std=residuals.std(axis=0),
        n_samples=x.shape[0],
    )


@dataclass
class TwoStageSurrogate:
    """Classify the job's power profile, then regress within the class.

    ``regressors[c]`` serves class ``c``; classes too thin to fit their
    own regression share ``global_regressor`` (which also anchors the
    uncertainty comparison).  All state is plain numpy — a prediction is
    one k-means assignment plus one matrix-vector product, which is what
    buys the >=100x fast path over full simulation.
    """

    classifier: ProfileClassifier
    regressors: list[ClassRegressor]
    global_regressor: ClassRegressor
    n_samples: int
    ridge_lambda: float
    #: Stage-1 envelope: accepted distance as a multiple of the class's
    #: training radius.
    envelope_margin: float = 1.5
    #: Stage-2 envelope: max accepted residual spread of log-HPM.
    uncertainty_max: float = 0.35
    feature_names: tuple[str, ...] = SURROGATE_FEATURE_NAMES
    target_names: tuple[str, ...] = TARGET_NAMES

    @property
    def k(self) -> int:
        """Number of workload classes."""
        return len(self.regressors)

    def predict(
        self,
        workload: VaspWorkload,
        n_nodes: int = 1,
        cap_w: float | None = None,
        platform: str | None = None,
    ) -> SurrogatePrediction:
        """Predict one (workload, nodes, cap, platform) grid point."""
        from repro.hardware.platform import get_platform

        start = time.perf_counter()
        features = surrogate_feature_vector(workload, n_nodes, cap_w, platform)
        prediction = self.predict_features(
            features,
            workload_name=workload.name,
            n_nodes=n_nodes,
            cap_w=cap_w,
            platform_id=get_platform(platform).id,
        )
        _STATS.predictions += 1
        if prediction.in_envelope:
            _STATS.hits += 1
        else:
            _STATS.fallbacks += 1
        obs.observe(
            "repro_surrogate_predict_seconds",
            time.perf_counter() - start,
            help_text="Per-prediction surrogate latency",
        )
        return prediction

    def predict_features(
        self,
        features: np.ndarray,
        workload_name: str = "?",
        n_nodes: int = 1,
        cap_w: float | None = None,
        platform_id: str = "?",
    ) -> SurrogatePrediction:
        """Prediction from a raw surrogate feature vector.

        Does not touch the usage counters or metrics — evaluation
        harnesses sweep this without polluting the fast-path stats;
        :meth:`predict` is the counted entry point.
        """
        cls, distance = self.classifier.classify(features)
        regressor = self.regressors[cls]
        uncertainty = float(regressor.residual_std[TARGET_NAMES.index("hpm_w")])
        in_envelope = (
            self.classifier.in_envelope(cls, distance, self.envelope_margin)
            and uncertainty <= self.uncertainty_max
        )
        targets = regressor.predict_row(features)
        values = dict(zip(TARGET_NAMES, (float(v) for v in targets)))
        # Ratio targets are regressed linearly and can graze their floors
        # at the grid edges; physics bounds them below.
        values["slowdown"] = max(values["slowdown"], 1.0)
        values["tdp_fraction"] = max(values["tdp_fraction"], 0.0)
        return SurrogatePrediction(
            workload_name=workload_name,
            n_nodes=n_nodes,
            cap_w=cap_w,
            platform_id=platform_id,
            class_index=cls,
            class_distance=distance,
            uncertainty=uncertainty,
            in_envelope=in_envelope,
            **values,
        )


def fit_surrogate(
    samples: "list[CorpusSample]",
    k: int = DEFAULT_K,
    ridge_lambda: float = 1.0e-3,
    seed: int = 0,
    envelope_margin: float = 1.5,
    uncertainty_max: float = 0.35,
) -> TwoStageSurrogate:
    """Fit both stages from a measured corpus.

    Stage 1 clusters the engine-derived power profiles; stage 2 fits one
    ridge regressor per class (plus a global one shared by classes with
    fewer members than features — a thin class cannot support its own
    solve).
    """
    if not samples:
        raise ValueError("cannot fit a surrogate from an empty corpus")
    x = np.stack([s.input_features for s in samples])
    profiles = np.stack([s.profile for s in samples])
    n_features = x.shape[1]
    if len(samples) < n_features:
        raise ValueError(
            f"need at least {n_features} samples, got {len(samples)}"
        )
    y_fit = np.empty((len(samples), len(TARGET_NAMES)))
    for column, name in enumerate(TARGET_NAMES):
        raw = np.array([getattr(s, name) for s in samples], dtype=float)
        if name in _LOG_TARGETS:
            if np.any(raw <= 0):
                raise ValueError(f"target {name!r} must be positive to fit")
            raw = np.log(raw)
        y_fit[:, column] = raw

    k = min(k, len(samples))
    classifier = fit_profile_classifier(profiles, x, k=k, seed=seed)
    global_regressor = _fit_class_regressor(x, y_fit, ridge_lambda)
    regressors: list[ClassRegressor] = []
    for cls in range(classifier.k):
        members = classifier.labels == cls
        # A class needs more members than features for its residuals to
        # mean anything; thin classes share the global fit.
        if members.sum() > n_features:
            regressors.append(
                _fit_class_regressor(x[members], y_fit[members], ridge_lambda)
            )
        else:
            regressors.append(global_regressor)

    _STATS.trainings += 1
    obs.gauge_set(
        "repro_surrogate_corpus_size",
        len(samples),
        help_text="Samples in the last surrogate training corpus",
    )
    return TwoStageSurrogate(
        classifier=classifier,
        regressors=regressors,
        global_regressor=global_regressor,
        n_samples=len(samples),
        ridge_lambda=ridge_lambda,
        envelope_margin=envelope_margin,
        uncertainty_max=uncertainty_max,
    )
