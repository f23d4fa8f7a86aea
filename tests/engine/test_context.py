"""Tests for AnalyticsContext configuration and driver-side helpers."""

import pytest

from repro.cluster import uniform_cluster
from repro.common.errors import ConfigurationError
from repro.engine import AnalyticsContext, Broadcast, EngineConf


class TestEngineConf:
    def test_defaults_match_paper(self):
        conf = EngineConf()
        assert conf.default_parallelism == 300
        assert not conf.copartition_scheduling
        assert not conf.speculation

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConf(default_parallelism=0)
        with pytest.raises(ConfigurationError):
            EngineConf(task_failure_rate=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("node_failure_times", {"B": float("nan")}),
        ("node_recovery_delay", float("nan")),
        ("aqe_target_partition_bytes", float("nan")),
        ("memory_budget", float("nan")),
    ])
    def test_nan_is_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            EngineConf(**{field: value})
        # inf stays legal: a node that never fails.
        EngineConf(node_failure_times={"B": float("inf")})

    @pytest.mark.parametrize("field, value", [
        ("default_parallelism", float("nan")),
        ("default_parallelism", 2.5),
        ("default_parallelism", True),
        ("physical_parallelism", float("nan")),
        ("physical_parallelism", 2.5),
        ("physical_parallelism", True),
        ("max_task_attempts", float("nan")),
        ("max_task_attempts", 0),
        ("max_task_attempts", True),
    ])
    def test_counts_must_be_positive_ints(self, field, value):
        # A count is an int >= 1, not a bool: NaN and 2.5 used to pass and
        # die later ("'float' object cannot be interpreted as an integer").
        with pytest.raises(ConfigurationError, match=field):
            EngineConf(**{field: value})


class TestContext:
    def test_default_cluster_is_paper_testbed(self):
        ctx = AnalyticsContext()
        assert [w.name for w in ctx.cluster.workers] == ["A", "B", "C", "D", "E"]

    def test_counters_are_unique(self, ctx):
        ids = {ctx.next_rdd_id() for _ in range(10)}
        assert len(ids) == 10

    def test_parallelize_defaults(self, ctx):
        rdd = ctx.parallelize(range(3))
        assert rdd.num_partitions == 3  # min(parallelism, len)
        big = ctx.parallelize(range(100))
        assert big.num_partitions == ctx.default_parallelism

    def test_union_helper(self, ctx):
        a = ctx.parallelize([1], 1)
        b = ctx.parallelize([2], 1)
        assert sorted(ctx.union([a, b]).collect()) == [1, 2]

    def test_broadcast_returns_value_and_records_traffic(self, ctx):
        bc = ctx.broadcast([1, 2, 3])
        assert isinstance(bc, Broadcast)
        assert bc.value == [1, 2, 3]
        series = ctx.metrics.bucketize("net_bytes", 1.0)
        assert series.values.sum() > 0

    def test_sample_keys_runs_a_job(self, ctx):
        pairs = ctx.parallelize([(i, i) for i in range(100)], 4)
        keys = ctx.sample_keys(pairs)
        assert keys
        assert set(keys) <= set(range(100))
        assert len(ctx.job_stats) == 1  # the sampling pass was a real job

    def test_now_tracks_simulated_time(self, ctx):
        before = ctx.now
        ctx.parallelize(range(10), 2).count()
        assert ctx.now > before

    def test_cache_capacity_follows_executor_memory(self):
        from repro.common.units import GB

        cluster = uniform_cluster(n_workers=2, cores=2, memory=8 * GB,
                                  executor_memory=4 * GB)
        ctx = AnalyticsContext(cluster, EngineConf(default_parallelism=4))
        # A block of half the executor memory (CACHE_MEMORY_FRACTION)
        # fits; a larger one does not.
        assert ctx.block_store.put(1, 0, [], 1.9 * GB, "w0")
        assert not ctx.block_store.put(1, 1, [], 2.5 * GB, "w0")
