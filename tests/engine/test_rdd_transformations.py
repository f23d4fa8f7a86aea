"""Correctness tests for RDD transformations (values, not timing)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf, HashPartitioner


def make_ctx():
    return AnalyticsContext(
        uniform_cluster(n_workers=2, cores=2), EngineConf(default_parallelism=4)
    )


class TestNarrowOps:
    def test_map(self, ctx):
        assert sorted(ctx.parallelize([1, 2, 3]).map(lambda x: x * 2).collect()) == [
            2, 4, 6,
        ]

    def test_filter(self, ctx):
        out = ctx.parallelize(range(10)).filter(lambda x: x % 2 == 0).collect()
        assert sorted(out) == [0, 2, 4, 6, 8]

    def test_flat_map(self, ctx):
        out = ctx.parallelize([1, 2]).flat_map(lambda x: [x] * x).collect()
        assert sorted(out) == [1, 2, 2]

    def test_map_partitions_receives_split(self, ctx):
        rdd = ctx.parallelize(range(8), num_partitions=4)
        out = rdd.map_partitions(lambda s, recs: [s]).collect()
        assert sorted(out) == [0, 1, 2, 3]

    def test_glom(self, ctx):
        rdd = ctx.parallelize(range(6), num_partitions=3)
        assert len(rdd.glom().collect()) == 3

    def test_key_by_keys_values(self, ctx):
        rdd = ctx.parallelize([1, 2, 3]).key_by(lambda x: x % 2)
        assert sorted(rdd.keys().collect()) == [0, 1, 1]
        assert sorted(rdd.values().collect()) == [1, 2, 3]

    def test_map_values_preserves_partitioner(self, ctx):
        rdd = ctx.parallelize([(1, 1), (2, 2)]).partition_by(HashPartitioner(2))
        mapped = rdd.map_values(lambda v: v + 1)
        assert mapped.partitioner == HashPartitioner(2)
        assert sorted(mapped.collect()) == [(1, 2), (2, 3)]

    def test_flat_map_values(self, ctx):
        out = ctx.parallelize([(1, 2)]).flat_map_values(lambda v: [v, v]).collect()
        assert sorted(out) == [(1, 2), (1, 2)]

    def test_plain_map_drops_partitioner(self, ctx):
        rdd = ctx.parallelize([(1, 1)]).partition_by(HashPartitioner(2))
        assert rdd.map(lambda kv: kv).partitioner is None

    def test_union(self, ctx):
        a = ctx.parallelize([1, 2], num_partitions=2)
        b = ctx.parallelize([3], num_partitions=1)
        unioned = a.union(b)
        assert unioned.num_partitions == 3
        assert sorted(unioned.collect()) == [1, 2, 3]

    def test_repartition_changes_count_and_keeps_data(self, ctx):
        rdd = ctx.parallelize(range(20), num_partitions=2).repartition(5)
        assert rdd.num_partitions == 5
        assert sorted(rdd.collect()) == list(range(20))


class TestShuffleOps:
    def test_reduce_by_key(self, ctx):
        pairs = ctx.parallelize([(i % 3, 1) for i in range(30)], num_partitions=5)
        out = pairs.reduce_by_key(lambda a, b: a + b, num_partitions=2)
        assert out.collect_as_map() == {0: 10, 1: 10, 2: 10}

    def test_group_by_key(self, ctx):
        pairs = ctx.parallelize([(1, "a"), (1, "b"), (2, "c")], num_partitions=2)
        grouped = pairs.group_by_key(num_partitions=2).collect_as_map()
        assert sorted(grouped[1]) == ["a", "b"]
        assert grouped[2] == ["c"]

    def test_combine_by_key_with_list_combiners(self, ctx):
        pairs = ctx.parallelize([(1, 1), (1, 2), (2, 3)], num_partitions=2)
        out = pairs.combine_by_key(
            lambda v: [v],
            lambda c, v: c + [v],
            lambda c1, c2: c1 + c2,
            num_partitions=2,
        ).collect_as_map()
        assert sorted(out[1]) == [1, 2]

    def test_group_by(self, ctx):
        out = ctx.parallelize(range(10)).group_by(lambda x: x % 2, 2).collect_as_map()
        assert sorted(out[0]) == [0, 2, 4, 6, 8]

    def test_distinct(self, ctx):
        out = ctx.parallelize([1, 1, 2, 2, 3]).distinct(2).collect()
        assert sorted(out) == [1, 2, 3]

    def test_partition_by_places_keys_correctly(self, ctx):
        part = HashPartitioner(3)
        rdd = ctx.parallelize([(i, i) for i in range(30)], num_partitions=4)
        by_part = rdd.partition_by(part).glom().collect()
        for pid, records in enumerate(by_part):
            for k, _v in records:
                assert part.partition(k) == pid

    def test_partition_by_already_partitioned_is_noop(self, ctx):
        part = HashPartitioner(3)
        rdd = ctx.parallelize([(1, 1)], num_partitions=2).partition_by(part)
        assert rdd.partition_by(HashPartitioner(3)) is rdd

    def test_sort_by_key_global_order(self, ctx):
        data = [(i % 17, i) for i in range(100)]
        out = ctx.parallelize(data, num_partitions=4).sort_by_key(3).collect()
        assert [k for k, _ in out] == sorted(k for k, _ in data)

    def test_reduce_by_key_reuses_parent_partitioner(self, ctx):
        part = HashPartitioner(3)
        rdd = ctx.parallelize([(1, 1), (2, 2)], 2).partition_by(part)
        reduced = rdd.reduce_by_key(lambda a, b: a + b)
        # No new shuffle: the dependency is narrow.
        assert not reduced.shuffle_deps()
        assert reduced.collect_as_map() == {1: 1, 2: 2}


class TestJoins:
    def test_join(self, ctx):
        a = ctx.parallelize([(1, "a"), (2, "b")], 2)
        b = ctx.parallelize([(1, "x"), (3, "y")], 2)
        assert a.join(b, 2).collect() == [(1, ("a", "x"))]

    def test_join_duplicate_keys_cross_product(self, ctx):
        a = ctx.parallelize([(1, "a1"), (1, "a2")], 1)
        b = ctx.parallelize([(1, "b1"), (1, "b2")], 1)
        out = a.join(b, 2).collect()
        assert len(out) == 4

    def test_cogroup(self, ctx):
        a = ctx.parallelize([(1, "a")], 1)
        b = ctx.parallelize([(1, "x"), (2, "y")], 1)
        out = dict(a.cogroup(b, 2).collect())
        assert out[1] == (["a"], ["x"])
        assert out[2] == ([], ["y"])

    def test_join_on_copartitioned_parents_is_narrow(self, ctx):
        part = HashPartitioner(4)
        a = ctx.parallelize([(i, i) for i in range(10)], 2).reduce_by_key(
            lambda x, y: x + y, partitioner=part
        )
        b = ctx.parallelize([(i, -i) for i in range(10)], 2).reduce_by_key(
            lambda x, y: x + y, partitioner=part
        )
        joined = a.join(b)
        cogroup = joined.deps[0].parent
        # Both cogroup dependencies are narrow: no third shuffle.
        assert not cogroup.shuffle_deps()
        assert len(joined.collect()) == 10


class TestProperties:
    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=60),
           st.integers(1, 6))
    def test_collect_is_identity(self, data, n):
        ctx = make_ctx()
        assert sorted(ctx.parallelize(data, n).collect()) == sorted(data)

    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(-10, 10)),
                    min_size=1, max_size=60),
           st.integers(1, 5))
    def test_reduce_by_key_matches_python(self, pairs, n):
        ctx = make_ctx()
        expected = {}
        for k, v in pairs:
            expected[k] = expected.get(k, 0) + v
        out = ctx.parallelize(pairs, 3).reduce_by_key(
            lambda a, b: a + b, num_partitions=n
        ).collect_as_map()
        assert out == expected

    @settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=50))
    def test_distinct_matches_set(self, data):
        ctx = make_ctx()
        assert sorted(ctx.parallelize(data, 3).distinct(2).collect()) == sorted(
            set(data)
        )
