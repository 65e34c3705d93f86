"""Versioned, fingerprint-guarded persistence for trained surrogates.

Same discipline as the run cache's disk layer (temp sibling +
``os.replace``, a checksummed pickle read back by
:func:`repro.runner.cache.read_pickle`), plus two guards the run cache
does not need:

* a **store version**, bumped whenever the serialized shape changes, so
  an old process never misreads a new file (or vice versa);
* a **training fingerprint** — digest of the corpus config, feature and
  target layouts, and fit hyperparameters — checked on load, so a model
  trained on a different grid (or by different code) is refused instead
  of silently serving stale predictions.

Any unreadable, torn, mismatched or missing store is a *miss*, never an
error: :func:`load_surrogate` returns None and :func:`load_or_train`
retrains and rewrites.  ``REPRO_SURROGATE_DIR`` moves the store away
from the default ``.repro_cache/surrogate/``.
"""

from __future__ import annotations

import logging
from pathlib import Path

from repro.config import read
from repro.prediction.corpus import CorpusConfig, build_corpus
from repro.prediction.features import SURROGATE_FEATURE_NAMES
from repro.prediction.model import (
    DEFAULT_K,
    TARGET_NAMES,
    TwoStageSurrogate,
    fit_surrogate,
)
from repro.runner.cache import atomic_write_pickle, fingerprint, read_pickle

logger = logging.getLogger(__name__)

#: Serialized payload shape; bump on any incompatible change.
STORE_VERSION = 2
#: File name inside the store directory.
STORE_FILENAME = "surrogate.pkl"


def store_path(directory: str | Path | None = None) -> Path:
    """Full path of the store file (in ``REPRO_SURROGATE_DIR`` by default)."""
    return read("REPRO_SURROGATE_DIR", directory) / STORE_FILENAME


def training_fingerprint(
    config: CorpusConfig,
    k: int = DEFAULT_K,
    ridge_lambda: float = 1.0e-3,
    seed: int = 0,
) -> str:
    """Digest identifying what a stored surrogate was trained on."""
    return fingerprint(
        "surrogate-store",
        STORE_VERSION,
        config,
        SURROGATE_FEATURE_NAMES,
        TARGET_NAMES,
        k,
        ridge_lambda,
        seed,
    )


def save_surrogate(
    surrogate: TwoStageSurrogate,
    train_fingerprint: str,
    directory: str | Path | None = None,
) -> Path:
    """Atomically persist a trained surrogate; returns the store path."""
    path = store_path(directory)
    payload = {
        "version": STORE_VERSION,
        "fingerprint": train_fingerprint,
        "surrogate": surrogate,
    }
    atomic_write_pickle(path, payload)
    logger.debug("surrogate store written: %s (%s)", path, train_fingerprint[:12])
    return path


def load_surrogate(
    train_fingerprint: str, directory: str | Path | None = None
) -> TwoStageSurrogate | None:
    """Load a stored surrogate if it matches; None on any mismatch.

    Missing file, torn/unpicklable payload, wrong store version and wrong
    training fingerprint all degrade to a miss (with a warning for the
    corrupt cases) — the caller retrains.
    """
    path = store_path(directory)
    if not path.is_file():
        return None
    try:
        payload = read_pickle(path)
    except ValueError as exc:
        logger.warning("surrogate store unreadable (%s); ignoring", exc)
        return None
    if not isinstance(payload, dict) or payload.get("version") != STORE_VERSION:
        logger.warning(
            "surrogate store at %s has version %r, expected %d; ignoring",
            path,
            payload.get("version") if isinstance(payload, dict) else None,
            STORE_VERSION,
        )
        return None
    if payload.get("fingerprint") != train_fingerprint:
        logger.warning(
            "surrogate store at %s was trained on different content; ignoring",
            path,
        )
        return None
    surrogate = payload.get("surrogate")
    if not isinstance(surrogate, TwoStageSurrogate):
        logger.warning("surrogate store at %s holds no surrogate; ignoring", path)
        return None
    return surrogate


def load_or_train(
    config: CorpusConfig | None = None,
    directory: str | Path | None = None,
    k: int = DEFAULT_K,
    ridge_lambda: float = 1.0e-3,
    seed: int = 0,
) -> TwoStageSurrogate:
    """The one-call entry point callers use to get a ready surrogate.

    Loads the store when its version and training fingerprint match the
    requested configuration; otherwise builds the corpus (through the
    sweep executor), fits, and atomically rewrites the store.
    """
    config = config or CorpusConfig()
    train_fp = training_fingerprint(config, k=k, ridge_lambda=ridge_lambda, seed=seed)
    cached = load_surrogate(train_fp, directory)
    if cached is not None:
        return cached
    samples = build_corpus(config)
    surrogate = fit_surrogate(samples, k=k, ridge_lambda=ridge_lambda, seed=seed)
    save_surrogate(surrogate, train_fp, directory)
    return surrogate
