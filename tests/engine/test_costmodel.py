"""Tests for the task cost model's individual terms."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import NodeSpec
from repro.cluster.cluster import GBPS
from repro.common.errors import ConfigurationError
from repro.common.units import GB, MB
from repro.engine.costmodel import CostModel, CostModelConfig


@pytest.fixture
def node():
    return NodeSpec("n", cores=4, speed=1.0, memory=8 * GB, net_bw=GBPS,
                    disk_bw=100 * MB, executor_memory=4 * GB)


@pytest.fixture
def model():
    return CostModel(CostModelConfig(partition_knee=64 * MB))


class TestConfig:
    def test_negative_constants_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModelConfig(task_overhead=-1.0)
        with pytest.raises(ConfigurationError):
            CostModelConfig(task_overhead=float("nan"))

    def test_zero_knee_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModelConfig(partition_knee=0.0)
        with pytest.raises(ConfigurationError):
            CostModelConfig(partition_knee=float("nan"))


class TestOversizeFactor:
    def test_small_partitions_no_penalty(self, model):
        assert model.oversize_factor(10 * MB) == 1.0
        assert model.oversize_factor(64 * MB) == 1.0

    def test_penalty_grows_superlinearly(self, model):
        f2 = model.oversize_factor(128 * MB)
        f4 = model.oversize_factor(256 * MB)
        assert f4 - 1.0 > 2 * (f2 - 1.0)

    @given(st.floats(min_value=0, max_value=1e12))
    def test_factor_at_least_one(self, nbytes):
        assert CostModel().oversize_factor(nbytes) >= 1.0

    def test_monotone(self, model):
        sizes = [MB, 32 * MB, 64 * MB, 100 * MB, 1 * GB]
        factors = [model.oversize_factor(s) for s in sizes]
        assert factors == sorted(factors)


class TestComputeTime:
    def test_scales_with_bytes(self, model, node):
        t1 = model.compute_time(node, 1e6, 0, 1e6)
        t2 = model.compute_time(node, 2e6, 0, 2e6)
        assert t2 > t1

    def test_divides_by_speed(self, model, node):
        fast = NodeSpec("f", cores=4, speed=2.0, memory=8 * GB, net_bw=GBPS,
                        executor_memory=4 * GB)
        assert model.compute_time(fast, 1e6, 0, 1e6) == pytest.approx(
            model.compute_time(node, 1e6, 0, 1e6) / 2
        )

    def test_records_contribute(self, model, node):
        assert model.compute_time(node, 0, 1000, 0) > 0


class TestIoTerms:
    def test_input_io(self, model, node):
        assert model.input_io_time(node, 100 * MB) == pytest.approx(1.0)
        assert model.input_io_time(node, 0) == 0.0

    def test_shuffle_write(self, model, node):
        assert model.shuffle_write_time(node, 100 * MB) == pytest.approx(1.0)

    def test_shuffle_fetch_block_latency(self, model, node):
        t = model.shuffle_fetch_time(node, 0.0, {}, 1000, lambda s, d: GBPS)
        assert t == pytest.approx(1000 * model.config.shuffle_block_latency)

    def test_shuffle_fetch_remote_bandwidth(self, model, node):
        t = model.shuffle_fetch_time(
            node, 0.0, {"other": GBPS}, 0, lambda s, d: GBPS
        )
        assert t == pytest.approx(1.0)

    def test_shuffle_fetch_local_uses_disk(self, model, node):
        t = model.shuffle_fetch_time(node, 100 * MB, {}, 0, lambda s, d: GBPS)
        assert t == pytest.approx(1.0)


class TestDiskTransactions:
    def test_minimum_one(self, model):
        assert model.disk_transactions(1.0) == 1.0
        assert model.disk_transactions(0.0) == 0.0

    def test_scales(self, model):
        per = model.config.disk_transaction_bytes
        assert model.disk_transactions(10 * per) == pytest.approx(10.0)


class TestSpillFactor:
    def test_no_spill_within_budget(self, node, model):
        assert model.spill_factor(node, 10 * MB) == 1.0

    def test_spill_grows_with_excess(self, node, model):
        budget = node.executor_memory * model.config.memory_fraction / node.cores
        f2 = model.spill_factor(node, 2 * budget)
        f4 = model.spill_factor(node, 4 * budget)
        assert f2 == pytest.approx(2.0)
        assert f4 > f2

    def test_spill_slows_compute(self, model):
        from repro.common.units import GB as _GB

        tiny = NodeSpec("tiny", cores=4, speed=1.0, memory=1 * _GB,
                        net_bw=GBPS, executor_memory=0.5 * _GB)
        big_partition = 1 * _GB
        slow = model.compute_time(tiny, big_partition, 0, big_partition)
        # Same bytes but a comfortable working set: strictly faster.
        fast = model.compute_time(tiny, big_partition, 0, 10 * MB)
        assert slow > fast
