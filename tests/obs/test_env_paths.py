"""Path-valued environment variables: one parser, no stray files.

``REPRO_METRICS=1`` once wrote a Prometheus dump called ``1``; a
boolean-looking value is a switch someone meant to flip, never a file
name.  Every path variable goes through :func:`repro.obs.path_from_env`,
which warns (naming the variable) and treats such values as unset.
On/off variables likewise share one set of off-words,
:data:`repro.obs.OFF_WORDS`.
"""

import warnings
from pathlib import Path

import pytest

from repro import obs
from repro.capping.fleet import job_stream, simulate_fleet_traced
from repro.capping.policy import CapPolicy
from repro.monitor import FleetMonitor, MonitorConfig
from repro.monitor.collector import monitoring_requested
from repro.obs.ledger import ledger_enabled
from repro.prediction.store import surrogate_disabled
from repro.runner.cache import caching_disabled
from repro.runner.engine import EngineConfig


def _configure_obs():
    obs.disable()
    try:
        obs.configure_from_env()
        obs.flush()
    finally:
        obs.disable()


def _tiny_fleet():
    simulate_fleet_traced(
        job_stream(n_jobs=2, seed=1),
        CapPolicy.uncapped(),
        "uncapped",
        n_nodes=4,
        engine_config=EngineConfig(base_interval_s=1.0),
    )


def _monitor_finalize():
    FleetMonitor(MonitorConfig(), label="env").finalize()


#: Each path variable and the code that reads it.
CONSUMERS = {
    "REPRO_TRACE": _configure_obs,
    "REPRO_METRICS": _configure_obs,
    "REPRO_PROFILE": _configure_obs,
    "REPRO_FLEET_CHECKPOINT": _tiny_fleet,
    "REPRO_FLEET_HEARTBEAT": _tiny_fleet,
    "REPRO_MONITOR_LOG": _monitor_finalize,
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
    with pytest.warns(UserWarning, match=name):
        CONSUMERS[name]()
    assert sorted(p.name for p in tmp_path.glob("1*")) == []


@pytest.mark.parametrize(
    "raw", ["0", "1", "true", "FALSE", "yes", "No", "on", " OFF "]
)
def test_boolean_words_count_as_unset(raw, clean_env):
    clean_env.setenv("REPRO_TRACE", raw)
    with pytest.warns(UserWarning, match="REPRO_TRACE"):
        assert obs.path_from_env("REPRO_TRACE") is None


def test_paths_and_blanks(clean_env, tmp_path):
    assert obs.path_from_env("REPRO_TRACE") is None
    clean_env.setenv("REPRO_TRACE", "  ")
    assert obs.path_from_env("REPRO_TRACE") is None
    clean_env.setenv("REPRO_TRACE", str(tmp_path / "t.json"))
    assert obs.path_from_env("REPRO_TRACE") == tmp_path / "t.json"


def test_explicit_value_wins(clean_env, tmp_path):
    clean_env.setenv("REPRO_TRACE", "1")
    with warnings.catch_warnings():
        # The environment is never read when a value is given.
        warnings.simplefilter("error")
        assert obs.path_from_env("REPRO_TRACE", "out") == Path("out")
        assert obs.path_from_env("REPRO_TRACE", tmp_path) == tmp_path


#: (variable, predicate that is True when the variable reads as "off").
OFF_SWITCHES = [
    ("REPRO_MONITOR", lambda: not monitoring_requested()),
    ("REPRO_RUNS", lambda: not ledger_enabled()),
    ("REPRO_SURROGATE", surrogate_disabled),
    ("REPRO_CACHE", caching_disabled),
]


@pytest.mark.parametrize("word", ["0", "FALSE", "no", " Off "])
@pytest.mark.parametrize(
    "name, switched_off", OFF_SWITCHES, ids=[name for name, _ in OFF_SWITCHES]
)
def test_off_words_switch_every_variable_off(name, switched_off, word, monkeypatch):
    monkeypatch.setenv(name, word)
    assert switched_off()
    monkeypatch.setenv(name, "1")
    assert not switched_off()
