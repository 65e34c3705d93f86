"""Path-valued environment variables: one parser, no stray files.

``REPRO_METRICS=1`` once wrote a Prometheus dump called ``1``, and
``REPRO_RUNS_DIR=1`` a ledger under ``./1``; a boolean-looking value is
a switch someone meant to flip, never a file name.  Every path variable
goes through :func:`repro.config.read`: an on-word selects the
variable's default directory when it has one, and any other switch word
warns (naming the variable) and counts as unset.  On/off variables
likewise share one set of off-words, :data:`repro.config.OFF_WORDS`.
"""

import warnings
from pathlib import Path

import pytest

from repro import obs
from repro.capping.fleet import compare_fleet_policies_traced
from repro.config import read
from repro.monitor import FleetMonitor
from repro.obs import ledger
from repro.prediction.store import save_surrogate
from repro.runner.cache import RunCache
from repro.runner.engine import EngineConfig


def _configure_obs():
    obs.disable()
    try:
        obs.configure_from_env()
        obs.flush()
    finally:
        obs.disable()


def _tiny_fleet():
    # The comparison is the one reader of the REPRO_FLEET_* paths.
    compare_fleet_policies_traced(
        n_jobs=2, n_nodes=4, seed=1, engine_config=EngineConfig(base_interval_s=1.0)
    )


def _monitor_finalize():
    FleetMonitor(label="env").finalize()


def _run_cache_put():
    # How repro.experiments.common builds the run cache at import.
    cache = RunCache(disk_dir=read("REPRO_CACHE_DIR"), name="env")
    cache.put("key", 1)
    return cache.disk_dir


def _record_run():
    ledger.begin_run("env")
    return ledger.finish_run() and ledger.RunLedger().root


def _save_surrogate():
    return save_surrogate(None, "env").parent


#: Each path variable and the code that reads it.  The directory
#: consumers return the directory they used.
CONSUMERS = {
    "REPRO_TRACE": _configure_obs,
    "REPRO_METRICS": _configure_obs,
    "REPRO_PROFILE": _configure_obs,
    "REPRO_FLEET_CHECKPOINT": _tiny_fleet,
    "REPRO_FLEET_HEARTBEAT": _tiny_fleet,
    "REPRO_MONITOR_LOG": _monitor_finalize,
    "REPRO_CACHE_DIR": _run_cache_put,
    "REPRO_RUNS_DIR": _record_run,
    "REPRO_SURROGATE_DIR": _save_surrogate,
}

#: Directory variables and the directory an on-word selects.
ON_PATHS = {
    "REPRO_CACHE_DIR": Path(".repro_cache"),
    "REPRO_RUNS_DIR": Path(".repro_runs"),
    "REPRO_SURROGATE_DIR": Path(".repro_cache/surrogate"),
}


@pytest.fixture
def clean_env(monkeypatch, tmp_path):
    for name in CONSUMERS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.chdir(tmp_path)
    return monkeypatch


@pytest.mark.parametrize("name", sorted(CONSUMERS))
def test_switch_value_is_not_a_file_name(name, clean_env, tmp_path):
    clean_env.setenv(name, "1")
    if name in ON_PATHS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert CONSUMERS[name]() == ON_PATHS[name]
    else:
        with pytest.warns(UserWarning, match=name):
            CONSUMERS[name]()
    assert sorted(p.name for p in tmp_path.glob("1*")) == []


@pytest.mark.parametrize("word", ["0", "off"])
@pytest.mark.parametrize("name", sorted(ON_PATHS))
def test_off_word_leaves_directory_unset(name, word, clean_env, tmp_path):
    clean_env.setenv(name, word)
    with pytest.warns(UserWarning, match=name):
        used = CONSUMERS[name]()
    assert not (tmp_path / word).exists()
    clean_env.delenv(name)
    assert used == CONSUMERS[name]()


@pytest.mark.parametrize(
    "raw", ["0", "1", "true", "FALSE", "yes", "No", "on", " OFF "]
)
def test_boolean_words_count_as_unset(raw, clean_env):
    clean_env.setenv("REPRO_TRACE", raw)
    with pytest.warns(UserWarning, match="REPRO_TRACE"):
        assert read("REPRO_TRACE") is None


def test_paths_and_blanks(clean_env, tmp_path):
    assert read("REPRO_TRACE") is None
    clean_env.setenv("REPRO_TRACE", "  ")
    assert read("REPRO_TRACE") is None
    clean_env.setenv("REPRO_TRACE", str(tmp_path / "t.json"))
    assert read("REPRO_TRACE") == tmp_path / "t.json"


def test_explicit_value_wins(clean_env, tmp_path):
    clean_env.setenv("REPRO_TRACE", "1")
    with warnings.catch_warnings():
        # The environment is never read when a value is given.
        warnings.simplefilter("error")
        assert read("REPRO_TRACE", "out") == Path("out")
        assert read("REPRO_TRACE", tmp_path) == tmp_path


@pytest.mark.parametrize("word", ["0", "FALSE", "no", " Off "])
@pytest.mark.parametrize("name", ["REPRO_RUNS", "REPRO_CACHE"])
def test_off_words_switch_every_variable_off(name, word, monkeypatch):
    monkeypatch.setenv(name, word)
    assert read(name) is False
    monkeypatch.setenv(name, "1")
    assert read(name) is True
