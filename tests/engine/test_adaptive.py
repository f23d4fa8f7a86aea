"""Unit tests for the AQE decision logic on synthetic histograms.

The pure functions in :mod:`repro.engine.adaptive` decide what the DAG
scheduler does at runtime; these tests pin their behavior on hand-built
size histograms, independent of any engine execution. The end-to-end
bit-identity properties live in ``test_aqe_oracle.py``.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.engine import EngineConf
from repro.engine.adaptive import plan_partitions

MB = 1024.0 * 1024.0


class TestPlanPartitions:
    def test_no_change_returns_none(self):
        # partitions already near target: nothing to coalesce
        assert plan_partitions([60.0 * MB] * 8, target_bytes=64 * MB) is None

    def test_single_partition_returns_none(self):
        assert plan_partitions([1.0], target_bytes=64 * MB) is None

    def test_tiny_partitions_coalesced_toward_target(self):
        sizes = [1.0 * MB] * 16
        plan = plan_partitions(sizes, target_bytes=4 * MB)
        assert plan is not None
        assert plan.n_coalesced == 16
        assert plan.specs == [tuple(range(i, i + 4)) for i in range(0, 16, 4)]
        # coalesced runs must cover every original partition exactly once
        covered = [p for splits in plan.specs for p in splits]
        assert covered == list(range(16))
        assert plan.after_sizes == [4.0 * MB] * 4

    def test_coalesce_respects_target_boundary(self):
        sizes = [3.0 * MB, 3.0 * MB, 3.0 * MB]
        plan = plan_partitions(sizes, target_bytes=6 * MB)
        assert plan is not None
        assert plan.specs == [(0, 1), (2,)]

    def test_plan_is_deterministic(self):
        sizes = [3.0 * MB, 1.0 * MB, 50.0 * MB, 2.0 * MB, 1.0 * MB]
        a = plan_partitions(sizes, target_bytes=5 * MB)
        b = plan_partitions(sizes, target_bytes=5 * MB)
        assert a is not None
        assert a.specs == b.specs
        assert a.after_sizes == b.after_sizes


class TestConfValidation:
    def test_target_bytes_positive(self):
        with pytest.raises(ConfigurationError):
            EngineConf(aqe_target_partition_bytes=0)
