"""Correctness tests for RDD actions and caching."""

import pytest

from repro.common.errors import WorkloadError


class TestActions:
    def test_count(self, ctx):
        assert ctx.parallelize(range(17), 4).count() == 17

    def test_reduce(self, ctx):
        assert ctx.parallelize(range(1, 11), 3).reduce(lambda a, b: a + b) == 55

    def test_reduce_with_empty_partitions(self, ctx):
        assert ctx.parallelize([7], 4).reduce(lambda a, b: a + b) == 7

    def test_reduce_empty_raises(self, ctx):
        with pytest.raises(WorkloadError):
            ctx.parallelize([], 2).reduce(lambda a, b: a + b)

    def test_sum(self, ctx):
        assert ctx.parallelize([1.0, 2.0, 3.0], 2).sum() == pytest.approx(6.0)

    def test_collect_as_map(self, ctx):
        assert ctx.parallelize([(1, 2)], 1).collect_as_map() == {1: 2}

    def test_take_sample(self, ctx):
        rdd = ctx.parallelize(range(100), 4)
        sample = rdd.take_sample(10, seed=1)
        assert len(sample) == 10
        assert len(set(sample)) == 10
        assert rdd.take_sample(10, seed=1) == sample

    def test_take_sample_larger_than_data(self, ctx):
        assert sorted(ctx.parallelize([1, 2], 1).take_sample(10)) == [1, 2]


class TestCaching:
    def test_cache_returns_same_records(self, ctx):
        rdd = ctx.parallelize(range(10), 2).map(lambda x: x + 1).cache()
        first = sorted(rdd.collect())
        second = sorted(rdd.collect())
        assert first == second == list(range(1, 11))

    def test_cache_populates_block_store(self, ctx):
        rdd = ctx.parallelize(range(10), 3).cache()
        rdd.count()
        assert all(ctx.block_store.peek(rdd.id, i) is not None for i in range(3))

    def test_second_pass_is_cheaper(self, ctx):
        rdd = ctx.parallelize(list(range(5000)), 4).map(lambda x: x * 2).cache()
        rdd.count()
        first_duration = ctx.job_stats[-1].duration
        rdd.count()
        second_duration = ctx.job_stats[-1].duration
        assert second_duration < first_duration

    def test_cached_shuffle_output(self, ctx):
        pairs = ctx.parallelize([(i % 3, 1) for i in range(30)], 4)
        reduced = pairs.reduce_by_key(lambda a, b: a + b, 2).cache()
        assert reduced.collect_as_map() == reduced.collect_as_map()


class TestShuffleReuse:
    def test_shuffle_skipped_on_second_action(self, ctx):
        pairs = ctx.parallelize([(i % 3, 1) for i in range(30)], 4)
        reduced = pairs.reduce_by_key(lambda a, b: a + b, 2)
        reduced.count()
        stages_first = len(ctx.stage_stats)
        reduced.count()
        stages_second = len(ctx.stage_stats) - stages_first
        # Second job re-runs only the result stage; the map stage is skipped.
        assert stages_second == 1


class TestDeterminism:
    def test_same_workload_same_simulated_time(self, small_cluster):
        from repro.engine import AnalyticsContext, EngineConf

        def run():
            c = AnalyticsContext(small_cluster, EngineConf(default_parallelism=8))
            pairs = c.parallelize([(i % 7, i) for i in range(500)], 6)
            pairs.reduce_by_key(lambda a, b: a + b, 4).collect()
            return c.now

        assert run() == run()
