"""Zone-map statistics and conservative predicate evaluation."""

import json
import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import col, lit
from repro.relational.stats import (
    ColumnStats,
    RangeLayout,
    can_match,
    collect_column_stats,
)


def stats_of(values, column="x"):
    rows = [(v,) for v in values]
    return collect_column_stats(rows, [column])[column]


class TestCollectColumnStats:
    def test_numeric_min_max(self):
        s = stats_of([3, 1, 2])
        assert (s.low, s.high) == (1, 3)
        assert s.count == 3
        assert s.null_count == 0

    def test_vectorized_matches_scalar(self):
        values = list(np.arange(1000)[::-1])
        s = stats_of(values)
        assert (s.low, s.high) == (0, 999)

    def test_nulls_counted_and_excluded_from_bounds(self):
        s = stats_of([None, 5, None, 7])
        assert s.null_count == 2
        assert (s.low, s.high) == (5, 7)

    def test_all_null_column(self):
        s = stats_of([None, None, None])
        assert s.null_count == 3
        assert s.low is None and s.high is None

    def test_empty_partition(self):
        s = stats_of([])
        assert s.count == 0

    def test_incomparable_values_leave_bounds_open(self):
        s = stats_of([1, "a", 2.5])
        assert s.low is None and s.high is None
        assert s.count == 3

    def test_nan_excluded_from_bounds(self):
        # NaN compares False against everything, so np.min/min would
        # return order-dependent garbage; bounds come from the finite
        # values and the NaN rows are counted separately.
        s = stats_of([float("nan"), 5.0])
        assert (s.low, s.high) == (5.0, 5.0)
        assert s.nan_count == 1
        assert s.null_count == 0

    def test_all_nan_column_unbounded(self):
        s = stats_of([float("nan"), np.nan])
        assert s.low is None and s.high is None
        assert s.nan_count == 2

    def test_distinct_estimate(self):
        s = stats_of([1, 1, 2, 2, 3])
        assert s.distinct == 3

    def test_multiple_columns(self):
        rows = [(1, "a"), (2, "b")]
        by_col = collect_column_stats(rows, ["id", "name"])
        assert by_col["id"].high == 2
        assert by_col["name"].low == "a"


class TestCanMatch:
    def test_prunes_outside_range(self):
        maps = {"x": stats_of([10, 20])}
        assert not can_match(col("x") < lit(10), maps)
        assert not can_match(col("x") > lit(20), maps)
        assert can_match(col("x") <= lit(10), maps)
        assert can_match(col("x") >= lit(20), maps)
        assert can_match(col("x") == lit(15), maps)
        assert not can_match(col("x") == lit(5), maps)

    def test_flipped_operands(self):
        maps = {"x": stats_of([10, 20])}
        assert not can_match(lit(30) < col("x"), maps)
        assert can_match(lit(15) < col("x"), maps)

    def test_empty_partition_never_matches(self):
        maps = {"x": stats_of([])}
        assert not can_match(col("x") == lit(1), maps)
        assert not can_match(col("x") != lit(1), maps)

    def test_all_null_partition(self):
        maps = {"x": stats_of([None, None])}
        # NULL == anything is no-match, and != is True in Python. An
        # ordered comparison against None *raises* at runtime, so the
        # partition must be kept — pruning would silence the TypeError.
        assert not can_match(col("x") == lit(1), maps)
        assert can_match(col("x") < lit(1), maps)
        assert can_match(col("x") != lit(1), maps)

    def test_nulls_with_ordered_predicate_kept(self):
        # An ordered comparison against None raises at runtime; the
        # pruner must never claim such a partition is skippable.
        maps = {"x": stats_of([None, 5])}
        assert can_match(col("x") < lit(3), maps)

    def test_not_equal_all_same_value(self):
        maps = {"x": stats_of([7, 7, 7])}
        assert not can_match(col("x") != lit(7), maps)
        assert can_match(col("x") != lit(8), maps)

    def test_nan_rows_never_unsound(self):
        # The REVIEW.md repro: [nan, 5.0] under x < 100 must keep the
        # partition — the 5.0 row matches. With NaN folded into the
        # bounds every comparison against nan is False and the
        # partition would be pruned, silently dropping the row.
        maps = {"x": stats_of([float("nan"), 5.0])}
        assert can_match(col("x") < lit(100.0), maps)
        assert can_match(col("x") == lit(5.0), maps)
        # nan != x is True, so != survives even when the finite bounds
        # alone would refute it.
        assert can_match(col("x") != lit(5.0), maps)
        # The finite bounds still prune what they soundly can: a NaN
        # row itself can never satisfy an ordered/== predicate.
        assert not can_match(col("x") > lit(100.0), maps)
        assert not can_match(col("x") == lit(6.0), maps)

    def test_all_nan_partition_conservative(self):
        maps = {"x": stats_of([float("nan"), float("nan")])}
        # Unbounded: ordered/== read as "cannot tell", != as True.
        assert can_match(col("x") < lit(1.0), maps)
        assert can_match(col("x") != lit(1.0), maps)

    def test_and_or_composition(self):
        maps = {"x": stats_of([10, 20]), "y": stats_of([1, 2])}
        both = (col("x") > lit(5)) & (col("y") > lit(5))
        either = (col("x") > lit(5)) | (col("y") > lit(5))
        assert not can_match(both, maps)
        assert can_match(either, maps)

    def test_unknown_column_conservative(self):
        maps = {"x": stats_of([1, 2])}
        assert can_match(col("z") == lit(99), maps)

    def test_incomparable_literal_conservative(self):
        maps = {"x": stats_of([1, 2])}
        assert can_match(col("x") < lit("zebra"), maps)

    def test_unknown_expression_shape_conservative(self):
        maps = {"x": stats_of([1, 2])}
        assert can_match(col("x") == col("x"), maps)


class TestRangeLayout:
    def layout(self):
        # bounds [10, 20] -> partitions (-inf,10], (10,20], (20,+inf)
        return RangeLayout(column="x", bounds=(10, 20))

    def test_num_partitions(self):
        assert self.layout().num_partitions == 3

    def test_kept_partitions_point_lookup(self):
        assert self.layout().kept_partitions(col("x") == lit(5), 3) == {0}
        assert self.layout().kept_partitions(col("x") == lit(15), 3) == {1}
        assert self.layout().kept_partitions(col("x") == lit(25), 3) == {2}

    def test_kept_partitions_range(self):
        kept = self.layout().kept_partitions(col("x") < lit(12), 3)
        assert kept == {0, 1}

    def test_boundary_value_on_bound_keeps_both_neighbors(self):
        # Half-open (lo, hi] intervals are widened to closed [lo, hi]
        # before evaluation (a sound superset), so a point exactly on a
        # bound conservatively keeps the buckets on both sides — and
        # nothing else.
        assert self.layout().kept_partitions(col("x") == lit(10), 3) == {0, 1}

    def test_duplicate_bounds(self):
        layout = RangeLayout(column="x", bounds=(10, 10, 20))
        assert layout.num_partitions == 4
        # The middle (10, 10] interval is empty but must never break
        # pruning; a point at 10 keeps only buckets that can touch 10.
        kept = layout.kept_partitions(col("x") == lit(10), 4)
        assert 0 in kept
        assert kept == {0, 1, 2}
        # And a point past every duplicate still prunes the low buckets.
        assert layout.kept_partitions(col("x") == lit(15), 4) == {2}

    def test_single_partition_table(self):
        layout = RangeLayout(column="x", bounds=())
        assert layout.num_partitions == 1
        assert layout.kept_partitions(col("x") == lit(42), 1) == {0}

    def test_partition_count_mismatch_keeps_all(self):
        kept = self.layout().kept_partitions(col("x") == lit(5), 7)
        assert kept == set(range(7))

    def test_unrelated_column_keeps_all(self):
        kept = self.layout().kept_partitions(col("y") == lit(5), 3)
        assert kept == {0, 1, 2}


class TestColumnStatsDict:
    def test_round_trip_fields(self):
        s = ColumnStats(count=3, null_count=1, low=1, high=5, distinct=2)
        d = s.to_dict()
        assert d["count"] == 3 and d["high"] == 5


def _column(values):
    return st.lists(values, max_size=8)


# Every column kind a split may hold, one kind per column.
COLUMNS = st.one_of(
    _column(st.integers(min_value=-(2**70), max_value=2**70)),
    _column(st.floats() | st.sampled_from([-0.0, float("nan"), float("inf")])),
    _column(st.none() | st.integers(-5, 5)),
    _column(st.booleans()),
    _column(st.text(max_size=3)),  # non-ASCII included
    _column(st.integers(-5, 5) | st.floats(-5, 5) | st.text(max_size=2)),
    _column(st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
)
LITERALS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.booleans(),
    st.text(max_size=3),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
COMPARISONS = (
    operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne,
)


class TestStoredStatsAreStaleWide:
    """A zone map read back from JSON may prune less, never more."""

    @settings(max_examples=300, deadline=None)
    @given(
        splits=st.lists(COLUMNS, min_size=1, max_size=3),
        literals=st.lists(LITERALS, min_size=1, max_size=3),
    )
    def test_loaded_stats_keep_every_split_the_originals_keep(
        self, splits, literals
    ):
        simple = [cmp(col("x"), lit(v)) for v in literals for cmp in COMPARISONS]
        grid = simple + [a & b for a in simple for b in simple[:6]]
        grid += [a | b for a in simple for b in simple[:6]]
        for values in splits:
            original = {"x": stats_of(values)}
            text = json.dumps({c: s.to_dict() for c, s in original.items()})
            loaded = {
                c: ColumnStats.from_dict(d) for c, d in json.loads(text).items()
            }
            for pred in grid:
                if can_match(pred, original):
                    assert can_match(pred, loaded), (values, pred)
