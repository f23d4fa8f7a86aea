"""Vectorized kernels must be bit-identical to the scalar hot paths.

``stable_hash_many`` / ``partition_many`` / ``estimate_sizes`` are pure
speedups: every test here pins them against the per-record scalar
functions, including the ugly corners (int64 edges, overflow fallback,
NaN, ragged tuples, unicode) where a numpy reimplementation could
silently diverge.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.common.sizing import estimate_partition_size, estimate_size, estimate_sizes
from repro.engine import HashPartitioner, RangePartitioner
from repro.engine.partitioner import stable_hash, stable_hash_many

any_key = st.one_of(
    st.integers(),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.floats(allow_nan=False),
    st.booleans(),
    st.tuples(st.integers(), st.text(max_size=5)),
)


class TestStableHashMany:
    @given(st.lists(any_key, max_size=30))
    def test_matches_scalar(self, keys):
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]

    def test_int_edges(self):
        keys = [
            0, 1, -1, 127, 128, -128, -129, 255, 256,
            2**31 - 1, -(2**31), 2**53, -(2**53) - 1,
            2**63 - 1, -(2**63), 2**64, -(2**70),  # last two: overflow fallback
        ]
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]

    def test_string_and_bytes_edges(self):
        keys = ["", "a", "éclair 中文", "x" * 300]
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]
        bkeys = [b"", b"\x00\xff", b"y" * 300]
        assert stable_hash_many(bkeys) == [stable_hash(k) for k in bkeys]

    @given(st.lists(st.text(max_size=8), min_size=1, max_size=30))
    def test_unicode_array_column_matches_scalar(self, keys):
        """Array key columns (batch storage) hash like their elements, in
        either byte order, ASCII-only or not."""
        column = np.array(keys)
        expected = [stable_hash(k) for k in column.tolist()]
        assert stable_hash_many(column) == expected
        swapped = column.astype(column.dtype.newbyteorder())
        assert stable_hash_many(swapped) == expected

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=30))
    def test_int64_array_column_matches_scalar(self, keys):
        column = np.array(keys, dtype=np.int64)
        assert stable_hash_many(column) == [stable_hash(k) for k in keys]

    def test_numpy_scalars(self):
        keys = [np.int64(5), np.int64(-3), np.int32(7)]
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]


class TestPartitionMany:
    @given(st.lists(any_key, max_size=30), st.integers(min_value=1, max_value=16))
    def test_hash_matches_scalar(self, keys, n):
        p = HashPartitioner(n)
        assert p.partition_many(keys) == [p.partition(k) for k in keys]

    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=40),
        st.lists(st.integers(-1000, 1000), max_size=30),
    )
    def test_range_int_matches_scalar(self, sample, keys):
        p = RangePartitioner.from_sample(sample, 4)
        assert p.partition_many(keys) == [p.partition(k) for k in keys]

    @given(
        st.lists(st.text(max_size=6), min_size=1, max_size=40),
        st.lists(st.text(max_size=6), max_size=30),
    )
    def test_range_text_matches_scalar(self, sample, keys):
        p = RangePartitioner.from_sample(sample, 3)
        assert p.partition_many(keys) == [p.partition(k) for k in keys]

    def test_range_float_edges_match_scalar(self):
        p = RangePartitioner.from_sample([0.0, 1.5, 3.25, 10.0], 3)
        keys = [-1.0, 0.0, 1.5, 2.0, math.inf, -math.inf, math.nan, 1e300]
        assert p.partition_many(keys) == [p.partition(k) for k in keys]

    def test_range_huge_ints_match_scalar(self):
        # Beyond 2**53 a float64 searchsorted would round; the kernel
        # must detect this and fall back to exact bisection.
        p = RangePartitioner.from_sample([2**53, 2**53 + 1, 2**60], 3)
        keys = [2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, 2**60, -(2**60)]
        assert p.partition_many(keys) == [p.partition(k) for k in keys]

    def test_empty(self):
        assert HashPartitioner(4).partition_many([]) == []
        p = RangePartitioner.from_sample([1, 2, 3], 4)
        assert p.partition_many([]) == []


records = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=30),
    st.none(),
    st.booleans(),
    st.tuples(st.integers(), st.floats(allow_nan=False)),
    st.tuples(st.text(max_size=8), st.integers()),
    st.lists(st.integers(), max_size=5),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=4),
)


class TestEstimateSizes:
    @given(st.lists(records, max_size=30))
    def test_matches_scalar(self, recs):
        assert estimate_sizes(recs) == [estimate_size(r) for r in recs]

    def test_numpy_records(self):
        recs = [np.arange(10), np.zeros((3, 4)), np.arange(2)]
        assert estimate_sizes(recs) == [estimate_size(r) for r in recs]
        scalars = [np.float64(1.5), np.float64(-2.0)]
        assert estimate_sizes(scalars) == [estimate_size(r) for r in scalars]

    def test_ragged_tuples(self):
        recs = [(1, 2), (1, 2, 3), (4,)]
        assert estimate_sizes(recs) == [estimate_size(r) for r in recs]

    def test_partition_size_matches_scalar_sum(self):
        recs = [("word-%d" % (i % 7), i * 1.5) for i in range(500)]
        assert estimate_partition_size(recs) == float(
            sum(estimate_size(r) for r in recs)
        )
