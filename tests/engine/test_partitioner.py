"""Tests for hash/range partitioners and the stable hash."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.engine import HashPartitioner, RangePartitioner
from repro.engine.partitioner import stable_hash


class TestStableHash:
    @given(st.one_of(st.integers(), st.text(), st.floats(allow_nan=False)))
    def test_deterministic(self, key):
        assert stable_hash(key) == stable_hash(key)

    def test_handles_tuples(self):
        assert stable_hash((1, "a")) != stable_hash((1, "b"))
        assert stable_hash(("a", 1)) != stable_hash((1, "a"))

    def test_handles_bytes_and_objects(self):
        assert isinstance(stable_hash(b"xy"), int)
        assert isinstance(stable_hash(object), int)

    @given(st.integers())
    def test_nonnegative(self, key):
        assert stable_hash(key) >= 0


class TestHashPartitioner:
    def test_range_of_outputs(self):
        part = HashPartitioner(7)
        for key in range(1000):
            assert 0 <= part.partition(key) < 7

    def test_identical_keys_same_partition(self):
        part = HashPartitioner(10)
        assert part.partition("hot") == part.partition("hot")

    def test_equality_structural(self):
        assert HashPartitioner(5) == HashPartitioner(5)
        assert HashPartitioner(5) != HashPartitioner(6)

    def test_not_equal_to_range(self):
        assert HashPartitioner(5) != RangePartitioner(5, [1, 2, 3, 4])

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(0)

    def test_roughly_uniform_on_distinct_keys(self):
        part = HashPartitioner(4)
        counts = [0] * 4
        for key in range(10_000):
            counts[part.partition(key)] += 1
        # Distinct integer keys spread within ~15% of perfectly even.
        assert max(counts) < 1.15 * 2500
        assert min(counts) > 0.85 * 2500


class TestRangePartitioner:
    def test_bounds_routing(self):
        part = RangePartitioner(3, [10, 20])
        assert part.partition(5) == 0
        assert part.partition(15) == 1
        assert part.partition(25) == 2

    def test_from_sample_balances_uniform_keys(self):
        keys = list(range(1000))
        part = RangePartitioner.from_sample(keys, 4, seed=1)
        counts = [0] * 4
        for key in keys:
            counts[part.partition(key)] += 1
        assert max(counts) < 2 * min(counts) + 50

    def test_from_sample_isolates_hot_key(self):
        # 80% of records share one key: range bounds learned by count
        # quantiles concentrate the hot key into few partitions.
        keys = [500] * 800 + list(range(200))
        part = RangePartitioner.from_sample(keys, 4, seed=1)
        hot = part.partition(500)
        assert 0 <= hot < 4

    def test_empty_sample(self):
        part = RangePartitioner.from_sample([], 4)
        assert part.bounds == []
        assert part.num_partitions == 4  # task count preserved
        assert part.partition(123) == 0

    def test_duplicate_bounds_deduped_on_construction(self):
        part = RangePartitioner(5, [1, 1, 2, 2])
        assert part.bounds == [1, 2]
        assert part.num_partitions == 5
        # Routing is well-defined and monotone after the dedupe.
        assert part.partition(0) == 0
        assert part.partition(1) == 0
        assert part.partition(2) == 1
        assert part.partition(3) == 2

    def test_dedupe_makes_equivalent_schemes_equal(self):
        # Co-partitioning compares partitioners structurally; duplicated
        # split points used to make equivalent schemes look different.
        assert RangePartitioner(4, [1, 1, 2]) == RangePartitioner(4, [1, 2, 2])

    def test_from_sample_few_distinct_keys(self):
        # One distinct key can produce at most one bound: trailing
        # partitions stay empty but every key routes in range.
        part = RangePartitioner.from_sample([7] * 100, 4, seed=0)
        assert len(part.bounds) <= 1
        assert part.num_partitions == 4
        assert 0 <= part.partition(7) < 4

    def test_from_sample_bounds_strictly_increasing(self):
        keys = [1] * 50 + [2] * 50 + [3] * 2
        part = RangePartitioner.from_sample(keys, 8, seed=0)
        assert all(
            a < b for a, b in zip(part.bounds, part.bounds[1:])
        )
        seen = {part.partition(k) for k in keys}
        assert len(seen) == len(part.bounds) + 1

    def test_too_many_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner(2, [1, 2, 3])

    def test_too_many_bounds_counted_after_dedupe(self):
        # Three duplicated bounds collapse to one -> fits 2 partitions.
        part = RangePartitioner(2, [5, 5, 5])
        assert part.bounds == [5]

    def test_descending_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner(3, [5, 1])

    def test_equality_includes_bounds(self):
        assert RangePartitioner(3, [1, 2]) == RangePartitioner(3, [1, 2])
        assert RangePartitioner(3, [1, 2]) != RangePartitioner(3, [1, 3])

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=200),
           st.integers(1, 10))
    def test_partition_always_in_range(self, keys, n):
        part = RangePartitioner.from_sample(keys, n, seed=0)
        for key in keys:
            assert 0 <= part.partition(key) < n

    @given(st.lists(st.integers(), min_size=2, max_size=100), st.integers(2, 8))
    def test_ordering_preserved(self, keys, n):
        """Keys in a lower range never land in a higher partition."""
        part = RangePartitioner.from_sample(keys, n, seed=0)
        ordered = sorted(keys)
        partitions = [part.partition(k) for k in ordered]
        assert partitions == sorted(partitions)

