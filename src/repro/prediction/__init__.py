"""Power prediction from workload features (the paper's Section VI-C).

"Our in-depth study on VASP power characteristics provides the basis for
developing power prediction models.  We have identified several key
contributors to power variations, including system sizes (number of plane
waves and bands), methods, and concurrency..."

This package implements that next step — plus Section VI-B's top-down
counterpart: a feature extractor that reads only what a scheduler can see
(the input files plus the requested node count), a ridge-regression power
model trained on simulated runs, an evaluation harness, and a
telemetry-only clustering that discovers workload power classes without
any application knowledge.

On top of the seed model sits the two-stage surrogate (the NERSC
follow-on framework): stage 1 classifies the workload's power profile,
stage 2 regresses per class over (workload, nodes, cap, platform)
features — trained from a sweep-generated corpus (:mod:`.corpus`),
persisted with version/fingerprint guards (:mod:`.store`), and served as
a fast path with engine fallback by the capping layer.
"""

from repro.prediction.clustering import (
    ClusterModel,
    PROFILE_FEATURE_NAMES,
    ProfileClassifier,
    classify_jobs,
    fit_profile_classifier,
    kmeans_profiles,
    profile_features,
)
from repro.prediction.corpus import (
    CorpusConfig,
    CorpusSample,
    CorpusSpec,
    build_corpus,
)
from repro.prediction.features import (
    FEATURE_NAMES,
    SURROGATE_FEATURE_NAMES,
    feature_vector,
    surrogate_feature_vector,
)
from repro.prediction.model import (
    ClassRegressor,
    PowerPredictor,
    SurrogatePrediction,
    SurrogateStats,
    TARGET_NAMES,
    TrainingSample,
    TwoStageSurrogate,
    fit_surrogate,
    reset_surrogate_stats,
    surrogate_stats,
)
from repro.prediction.evaluate import (
    EvaluationReport,
    SurrogateEvaluation,
    evaluate,
    evaluate_surrogate,
    training_corpus,
)
from repro.prediction.store import (
    load_or_train,
    load_surrogate,
    save_surrogate,
    training_fingerprint,
)

__all__ = [
    "ClassRegressor",
    "ClusterModel",
    "CorpusConfig",
    "CorpusSample",
    "CorpusSpec",
    "EvaluationReport",
    "FEATURE_NAMES",
    "PROFILE_FEATURE_NAMES",
    "PowerPredictor",
    "ProfileClassifier",
    "SURROGATE_FEATURE_NAMES",
    "SurrogateEvaluation",
    "SurrogatePrediction",
    "SurrogateStats",
    "TARGET_NAMES",
    "TrainingSample",
    "TwoStageSurrogate",
    "build_corpus",
    "classify_jobs",
    "evaluate",
    "evaluate_surrogate",
    "feature_vector",
    "fit_profile_classifier",
    "fit_surrogate",
    "kmeans_profiles",
    "load_or_train",
    "load_surrogate",
    "profile_features",
    "reset_surrogate_stats",
    "save_surrogate",
    "surrogate_feature_vector",
    "surrogate_stats",
    "training_corpus",
    "training_fingerprint",
]
