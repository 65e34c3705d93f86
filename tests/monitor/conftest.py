"""Shared fixtures: test-local observability state."""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends with obs off."""
    obs.disable()
    obs.reset_logging()
    yield
    obs.disable()
    obs.reset_logging()
