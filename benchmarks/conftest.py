"""Fixtures shared by the benchmark modules."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def midsize_bundle():
    """A 2000-peer TS deployment shared by the micro-benchmarks."""
    from repro.experiments.config import SimConfig
    from repro.experiments.runner import build_bundle

    return build_bundle(SimConfig(n_peers=2000, seed=42))
