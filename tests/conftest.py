"""Repo-wide fixtures: keep durable side-channels out of the source tree.

The run ledger (:mod:`repro.obs.ledger`) appends to ``.repro_runs/`` in
the working directory by default.  Tests exercise the CLI from the repo
root, so without redirection every test run would litter (and mutate) a
real ledger; point it at a session-temporary directory instead.  Tests
that need their own ledger location simply set ``REPRO_RUNS_DIR``
themselves (monkeypatch wins over this session-scoped default).
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_run_ledger(tmp_path_factory):
    """Redirect the run ledger to a temp dir for the whole test session."""
    patcher = pytest.MonkeyPatch()
    patcher.setenv(
        "REPRO_RUNS_DIR", str(tmp_path_factory.mktemp("repro_runs"))
    )
    yield
    patcher.undo()


@pytest.fixture(scope="session", autouse=True)
def _isolated_surrogate_store(tmp_path_factory):
    """Keep the surrogate store (``.repro_cache/surrogate``) out of the tree."""
    patcher = pytest.MonkeyPatch()
    patcher.setenv(
        "REPRO_SURROGATE_DIR", str(tmp_path_factory.mktemp("repro_surrogate"))
    )
    yield
    patcher.undo()


@pytest.fixture(scope="module")
def small_chunks():
    """Render in 23-sample chunks for a whole test module.

    The engine renders every trace in ``RENDER_CHUNK``-sample chunks;
    23 crosses many chunk edges, inside phases, on short schedules.
    Shard workers are forked from the test process, so they render with
    the same chunk size.
    """
    from repro.runner import engine

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "RENDER_CHUNK", 23)
        yield
