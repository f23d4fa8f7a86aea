"""Tests for the extended RDD API (set ops, ordering, stats)."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import uniform_cluster
from repro.common.errors import WorkloadError
from repro.engine import AnalyticsContext, EngineConf


def make_ctx():
    return AnalyticsContext(
        uniform_cluster(n_workers=2, cores=2), EngineConf(default_parallelism=4)
    )


class TestZipWithIndex:
    def test_indexes_are_global_and_ordered(self, ctx):
        rdd = ctx.parallelize(list("abcdefgh"), 3).zip_with_index()
        out = rdd.collect()
        assert [i for _r, i in out] == list(range(8))
        assert [r for r, _i in out] == list("abcdefgh")

    def test_empty_partitions_ok(self, ctx):
        out = ctx.parallelize([1, 2], 5).zip_with_index().collect()
        assert sorted(i for _r, i in out) == [0, 1]


class TestSetOps:
    def test_subtract(self, ctx):
        a = ctx.parallelize(range(10), 3)
        b = ctx.parallelize(range(5), 2)
        assert sorted(a.subtract(b, 4).collect()) == [5, 6, 7, 8, 9]

    def test_subtract_removes_duplicates_of_present_keys(self, ctx):
        a = ctx.parallelize([1, 1, 2, 3], 2)
        b = ctx.parallelize([1], 1)
        assert sorted(a.subtract(b, 2).collect()) == [2, 3]

    def test_intersection_is_distinct(self, ctx):
        a = ctx.parallelize([1, 1, 2, 3, 4], 2)
        b = ctx.parallelize([1, 2, 2, 5], 2)
        assert sorted(a.intersection(b, 2).collect()) == [1, 2]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.integers(0, 20), max_size=30),
           st.lists(st.integers(0, 20), max_size=30))
    def test_set_ops_match_python_sets(self, xs, ys):
        ctx = make_ctx()
        a = ctx.parallelize(xs, 2)
        b = ctx.parallelize(ys, 2)
        assert set(a.subtract(b, 2).collect()) == set(xs) - set(ys)
        assert set(a.intersection(b, 2).collect()) == set(xs) & set(ys)


class TestOrderingActions:
    def test_take_ordered(self, ctx):
        rdd = ctx.parallelize([5, 3, 9, 1, 7, 2], 3)
        assert rdd.take_ordered(3) == [1, 2, 3]

    def test_take_ordered_with_key(self, ctx):
        rdd = ctx.parallelize([(1, "b"), (2, "a"), (3, "c")], 2)
        assert rdd.take_ordered(2, key=lambda kv: kv[1]) == [(2, "a"), (1, "b")]

    def test_top(self, ctx):
        rdd = ctx.parallelize([5, 3, 9, 1, 7], 3)
        assert rdd.top(2) == [9, 7]

    def test_take_more_than_data(self, ctx):
        assert ctx.parallelize([2, 1], 2).take_ordered(10) == [1, 2]


class TestNumericActions:
    def test_fold(self, ctx):
        assert ctx.parallelize(range(5), 3).fold(0, lambda a, b: a + b) == 10

    def test_max_min(self, ctx):
        rdd = ctx.parallelize([3, -1, 7, 2], 3)
        assert rdd.max() == 7
        assert rdd.min() == -1

    def test_stats(self, ctx):
        rdd = ctx.parallelize([1.0, 2.0, 3.0, 4.0], 3)
        stats = rdd.stats()
        assert stats["count"] == 4
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["stdev"] == pytest.approx(1.1180, rel=1e-3)

    def test_stats_empty_raises(self, ctx):
        with pytest.raises(WorkloadError):
            ctx.parallelize([], 2).stats()

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
    # E[x^2] - mean^2 returned a stdev of 1.32e-05 here (numpy: 1.1e-13).
    @example([683.4349449060699] * 3)
    def test_stats_match_numpy(self, xs):
        import numpy as np

        ctx = make_ctx()
        stats = ctx.parallelize(xs, 3).stats()
        assert stats["mean"] == pytest.approx(float(np.mean(xs)), abs=1e-6)
        assert stats["stdev"] == pytest.approx(float(np.std(xs)), abs=1e-5)

    @pytest.mark.parametrize("value", [683.4349449060699, -0.1, 1e9 / 3])
    @pytest.mark.parametrize("n, parts", [(3, 3), (40, 3), (7, 1)])
    def test_stats_of_a_constant_list_has_no_spread(self, value, n, parts):
        stats = make_ctx().parallelize([value] * n, parts).stats()
        assert stats["stdev"] <= 1e-9 * abs(value)
        assert stats["mean"] == pytest.approx(value, rel=1e-12)

    def test_stats_survive_a_large_offset(self):
        import numpy as np

        xs = [1e9 + i for i in range(40)]
        stats = make_ctx().parallelize(xs, 3).stats()
        # E[x^2] - mean^2 returned 11.31 for a spread of 11.54 here.
        assert stats["stdev"] == pytest.approx(float(np.std(xs)), rel=1e-9)
        assert stats["mean"] == pytest.approx(float(np.mean(xs)), rel=1e-12)
