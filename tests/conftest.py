"""Fixtures shared across the test packages."""

import gc

import pytest


@pytest.fixture
def collector_off():
    """Automatic collection off: only an explicit pass frees a cycle, so
    what survives is exactly what is still referenced or not yet
    collected."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
