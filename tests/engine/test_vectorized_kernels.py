"""Vectorized kernels must be bit-identical to the scalar hot paths.

``stable_hash_many`` / ``partition_many`` / ``estimate_sizes`` /
``estimate_partition_size`` are pure speedups: every test here pins them
against the per-record scalar functions, including the ugly corners
(int64 edges, overflow fallback, NaN, ragged tuples, unicode, totals
past 2**53) where a numpy or integer reimplementation could silently
diverge, and on both sides of each batch-size crossover below which the
batched form hands over to the scalar one.
"""

import math
import struct
from collections import namedtuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.sizing import (
    SCALAR_SIZES_BELOW,
    Sized,
    estimate_partition_size,
    estimate_size,
    estimate_sizes,
)
from repro.engine import HashPartitioner, RangePartitioner
from repro.engine.partitioner import (
    SCALAR_HASH_BELOW,
    stable_hash,
    stable_hash_many,
)


def around(*crossovers):
    """Batch sizes on both sides of each crossover, plus the edges."""
    sizes = {0, 1, 2}
    for c in crossovers:
        sizes |= {c - 1, c, c + 1, 3 * c}
    return st.sampled_from(sorted(sizes))


def cycled(pools, sizes):
    """A batch of ``n`` keys drawn from a small pool (cheap to generate at
    any size, and duplicate keys are the common case anyway)."""
    return st.tuples(pools, sizes).map(
        lambda pn: [pn[0][i % len(pn[0])] for i in range(pn[1])] if pn[0] else []
    )

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
        # Beyond 2**53 a float64 comparison would round; bisection on
        # Python ints must not.
        p = RangePartitioner.from_sample([2**53, 2**53 + 1, 2**60], 3)
        keys = [2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, 2**60, -(2**60)]
        assert p.partition_many(keys) == [p.partition(k) for k in keys]

    def test_empty(self):
        assert HashPartitioner(4).partition_many([]) == []
        p = RangePartitioner.from_sample([1, 2, 3], 4)
        assert p.partition_many([]) == []


# Keys whose per-key hash or comparison a kernel could get wrong.
edge_key = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),  # beyond int64 too
    st.booleans(),
    st.text(max_size=6),  # non-ASCII included
    st.binary(max_size=6),
    st.floats(),  # NaN, -0.0, inf
    st.sampled_from([-0.0, 0.0, math.nan]),
    st.tuples(st.integers(-3, 3), st.text(max_size=3)),
)


ascii_text = st.text(st.characters(max_codepoint=127), max_size=6)


class TestPartitionManyAcrossCrossovers:
    """Both sides of SCALAR_HASH_BELOW, lists and array columns,
    homogeneous and mixed; range partitioning on small and large batches."""

    @settings(max_examples=60)
    @given(
        cycled(st.lists(edge_key, max_size=8), around(SCALAR_HASH_BELOW)),
        st.integers(1, 16),
    )
    def test_hash_list(self, keys, n):
        p = HashPartitioner(n)
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]
        assert p.partition_many(keys) == [p.partition(k) for k in keys]

    @settings(max_examples=60)
    @given(
        cycled(
            st.one_of(
                st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8),
                st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=8),
                st.lists(st.booleans(), min_size=1, max_size=4),
            ),
            around(SCALAR_HASH_BELOW),
        ),
    )
    def test_hash_homogeneous_int_list(self, keys):
        assert stable_hash_many(keys) == [stable_hash(k) for k in keys]

    @settings(max_examples=80)
    @given(
        st.one_of(
            cycled(st.lists(ascii_text, min_size=1, max_size=8),
                   around(SCALAR_HASH_BELOW)).map(np.array),
            cycled(st.lists(st.text(max_size=6), min_size=1, max_size=8),
                   around(SCALAR_HASH_BELOW)).map(np.array),
            cycled(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8),
                   around(SCALAR_HASH_BELOW)).map(lambda ks: np.array(ks, np.int64)),
            cycled(st.lists(st.floats(), min_size=1, max_size=8),
                   around(SCALAR_HASH_BELOW)).map(lambda ks: np.array(ks, np.float64)),
        ),
        st.integers(1, 16),
    )
    def test_hash_array_column(self, column, n):
        p = HashPartitioner(n)
        expected = [p.partition(k) for k in column.tolist()]
        assert stable_hash_many(column) == [stable_hash(k) for k in column.tolist()]
        assert p.partition_many(column) == expected

    @settings(max_examples=80)
    @given(
        st.one_of(
            st.lists(st.integers(-(2**60), 2**60), min_size=1, max_size=12),
            st.lists(st.floats(), min_size=1, max_size=12),
            st.lists(ascii_text, min_size=1, max_size=12),
            st.lists(st.text(max_size=4), min_size=1, max_size=12),
        ),
        st.sampled_from([0, 1, 2, 63, 64, 300]),
        st.booleans(),
    )
    def test_range(self, pool, n, as_array):
        # Keys come from the pool the bounds are sampled from, so many
        # keys sit exactly on a bound.
        keys = [pool[i % len(pool)] for i in range(n)]
        p = RangePartitioner.from_sample(sorted(k for k in pool if k == k), 5)
        if as_array and keys:
            keys = np.array(keys)
            expected = [p.partition(k) for k in keys.tolist()]
        else:
            expected = [p.partition(k) for k in keys]
        assert p.partition_many(keys) == expected


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


Pair = namedtuple("Pair", "key value")


class Virtual(Sized):
    """A record that reports its own (fractional) virtual size."""

    def __init__(self, size):
        self.size = size

    def nbytes_virtual(self):
        return self.size


def huge_array(nbytes_per_row, rows):
    """An ndarray with an enormous ``nbytes`` and one real element."""
    return np.lib.stride_tricks.as_strided(
        np.zeros(1, dtype=np.uint8), shape=(rows, nbytes_per_row), strides=(0, 0)
    )


leaf = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.sampled_from([0, 1, 3, (2, 2)]).map(np.zeros),
    st.floats(0, 1e6).map(Virtual),
)
record = st.recursive(
    leaf,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.tuples(inner, inner, inner),
        st.lists(inner, max_size=3),
        st.builds(Pair, inner, inner),
        st.dictionaries(st.text(max_size=3), inner, max_size=2),
    ),
    max_leaves=8,
)


SIZE_BATCHES = around(SCALAR_SIZES_BELOW)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestEstimatePartitionSize:
    """``estimate_partition_size`` is the scalar left fold, bit for bit."""

    def check(self, recs):
        reference = float(sum(estimate_size(r) for r in recs))
        assert bits(estimate_partition_size(recs)) == bits(reference)
        assert estimate_sizes(recs) == [estimate_size(r) for r in recs]

    @settings(max_examples=150)
    @given(cycled(st.lists(record, max_size=6), SIZE_BATCHES))
    def test_mixed_batches(self, recs):
        self.check(recs)

    @settings(max_examples=150)
    @given(cycled(record.map(lambda r: [r]), SIZE_BATCHES))
    def test_homogeneous_batches(self, recs):
        # One record shape repeated: the numpy total's input.
        self.check(recs)

    @settings(max_examples=80)
    @given(
        cycled(
            st.lists(
                st.one_of(
                    st.tuples(st.floats(), st.tuples(*[st.floats()] * 3)),
                    st.tuples(st.integers(), st.floats()).map(lambda kv: Pair(*kv)),
                    st.tuples(st.floats(), st.floats()).map(list),
                    st.tuples(st.integers(), st.integers(), st.integers()),
                ),
                min_size=1, max_size=8,
            ),
            SIZE_BATCHES,
        )
    )
    def test_tuple_columns_with_ragged_and_mixed_containers(self, recs):
        self.check(recs)

    def test_numpy_scalars_next_to_python_ones(self):
        n = SCALAR_SIZES_BELOW + 1
        for recs in (
            [np.float32(1.0)] * n + [1.0],
            [np.float64(1.0)] * n + [1.0],
            [np.bool_(True)] * n + [True],
            [(np.float32(1.0), 1.0)] * n + [(1.0, np.float32(1.0))],
        ):
            self.check(recs)

    def test_fractional_sized_records(self):
        self.check([Virtual(0.1)] * (2 * SCALAR_SIZES_BELOW))
        self.check([(1, Virtual(0.1))] * (2 * SCALAR_SIZES_BELOW))

    def test_total_beyond_2_53_keeps_the_left_fold(self):
        # Each record is 2**52 + 18 bytes: past 2**54 partial sums of the
        # left fold round, so the exact integer total is a different float
        # and the batch must take the fold.
        recs = [huge_array(2**51 + 1, 2)] * (SCALAR_SIZES_BELOW + 4)
        exact = sum(int(estimate_size(r)) for r in recs)
        reference = float(sum(estimate_size(r) for r in recs))
        assert float(exact) != reference
        self.check(recs)
