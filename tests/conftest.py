"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_report_header(config):
    """Name the array-api-strict namespace the backend-parity suite runs on."""
    # Imported here, not at module top, so repro loads after coverage starts.
    from repro.mc.backend import BACKENDS

    strict = BACKENDS["array-api-strict"]
    return [f"array-api-strict backend: {strict.description}{' (simulated)' if strict.simulated else ''}"]


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(2016)
