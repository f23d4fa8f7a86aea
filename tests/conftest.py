"""Shared fixtures: small clusters and contexts for fast tests."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.cluster import paper_cluster, uniform_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.engine.costmodel import CostModelConfig

# Tier-1 is a function of the commit: every @given test draws the same
# examples on every run (seeded from the test itself) and no example
# database carries failures from one checkout to the next. Per-test
# @settings (max_examples, deadline, health checks) still apply on top.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def quiet_cost() -> CostModelConfig:
    """Cost model without stochastic jitter or dispatch stagger.

    Unit tests compare exact durations and start times; the production
    defaults keep both effects on.
    """
    return CostModelConfig(jitter_sigma=0.0, driver_dispatch_interval=0.0)


@pytest.fixture
def small_cluster():
    """4 homogeneous workers x 4 cores: fast and easy to reason about."""
    return uniform_cluster(n_workers=4, cores=4)


@pytest.fixture
def ctx(small_cluster):
    """A context with small default parallelism for unit tests."""
    return AnalyticsContext(
        small_cluster, EngineConf(default_parallelism=8, cost=quiet_cost())
    )


@pytest.fixture
def paper_ctx():
    """The paper's heterogeneous 6-node testbed."""
    return AnalyticsContext(paper_cluster(), EngineConf(default_parallelism=300))


@pytest.fixture
def force_pool(monkeypatch):
    """Make ``jobs > 1`` sweeps really fork, however small the host or run.

    The pool declines single-core hosts and sweeps under
    ``SMALL_RUN_RECORDS``; tests of the pool path lift both guards.
    """
    from repro.chopper import parallel

    monkeypatch.setattr(parallel, "_usable_cores", lambda: 4)
    monkeypatch.setattr(parallel, "SMALL_RUN_RECORDS", 0)
