"""Tests for relational column expressions."""

import pytest

from repro.common.errors import WorkloadError
from repro.relational.expr import avg, col, count_, lit, max_, min_, sum_

SCHEMA = ["a", "b", "c"]
ROW = (10, 3, "x")


def ev(expr, row=ROW, schema=SCHEMA):
    return expr.bind(schema)(row)


class TestColAndLit:
    def test_col_lookup(self):
        assert ev(col("a")) == 10
        assert ev(col("c")) == "x"

    def test_missing_column(self):
        with pytest.raises(KeyError):
            col("zz").bind(SCHEMA)

    def test_lit(self):
        assert ev(lit(42)) == 42


class TestArithmetic:
    def test_operators(self):
        assert ev(col("a") + col("b")) == 13
        assert ev(col("a") - 1) == 9
        assert ev(col("a") * 2) == 20
        assert ev(col("a") / 4) == 2.5
        assert ev(col("a") % 3) == 1

    def test_reflected(self):
        assert ev(1 + col("b")) == 4
        assert ev(20 - col("a")) == 10
        assert ev(3 * col("b")) == 9


class TestComparisonsAndLogic:
    def test_comparisons(self):
        assert ev(col("a") > 5) is True
        assert ev(col("a") <= 9) is False
        assert ev(col("c") == "x") is True
        assert ev(col("b") != 3) is False

    def test_boolean_logic(self):
        assert ev((col("a") > 5) & (col("b") < 10)) is True
        assert ev((col("a") > 50) | (col("b") == 3)) is True
        assert ev(~(col("a") > 5)) is False


class TestMeta:
    def test_references(self):
        expr = (col("a") + col("b")) > lit(0)
        assert expr.references() == {"a", "b"}

    def test_alias_label(self):
        assert (col("a") * 2).alias("double").label == "double"
        assert col("a").label == "a"


class TestAggregates:
    def run_agg(self, agg, values):
        acc = None
        for v in values:
            acc = agg.create(v) if acc is None else agg.merge_value(acc, v)
        return agg.finish(acc)

    def test_sum(self):
        assert self.run_agg(sum_(col("a")), [1, 2, 3]) == 6

    def test_count(self):
        assert self.run_agg(count_(), [0, 0, 0, 0]) == 4

    def test_min_max(self):
        assert self.run_agg(min_(col("a")), [5, 2, 9]) == 2
        assert self.run_agg(max_(col("a")), [5, 2, 9]) == 9

    def test_avg(self):
        assert self.run_agg(avg(col("a")), [2, 4, 6]) == pytest.approx(4.0)

    def test_merge_combiners(self):
        agg = avg(col("a"))
        left = agg.create(2)
        right = agg.merge_value(agg.create(4), 6)
        assert agg.finish(agg.merge(left, right)) == pytest.approx(4.0)


class TestNullSemantics:
    """SQL NULL handling: COUNT(col) skips NULLs, COUNT(*) does not,
    and sum/min/max/avg ignore NULL inputs."""

    run_agg = TestAggregates.run_agg

    def test_count_col_skips_nulls(self):
        assert self.run_agg(count_(col("a")), [1, None, 3, None]) == 2
        assert self.run_agg(count_(col("a")), [None, None]) == 0

    def test_count_star_counts_every_row(self):
        assert self.run_agg(count_(), [1, None, 3, None]) == 4

    def test_sum_skips_nulls(self):
        assert self.run_agg(sum_(col("a")), [1, None, 3]) == 4
        assert self.run_agg(sum_(col("a")), [None, None]) is None

    def test_min_max_skip_nulls(self):
        assert self.run_agg(min_(col("a")), [None, 5, None, 2]) == 2
        assert self.run_agg(max_(col("a")), [None, 5, None, 2]) == 5
        assert self.run_agg(min_(col("a")), [None]) is None

    def test_avg_skips_nulls(self):
        assert self.run_agg(avg(col("a")), [2, None, 4]) == pytest.approx(3.0)
        assert self.run_agg(avg(col("a")), [None, None]) is None

    def test_merge_combiners_with_null_side(self):
        agg = sum_(col("a"))
        assert agg.finish(agg.merge(agg.create(None), agg.create(3))) == 3


class TestStructuralEquality:
    """``==`` builds a predicate, so Python equality protocols (``in``,
    ``list.index``) must fail loudly; ``same_as`` is the identity check."""

    def test_membership_check_raises(self):
        with pytest.raises(WorkloadError, match="same_as"):
            col("a") in [col("a"), col("b")]

    def test_bool_coercion_raises(self):
        with pytest.raises(WorkloadError):
            bool(col("a") == col("a"))

    def test_same_as_compares_structure(self):
        assert col("a").same_as(col("a"))
        assert not col("a").same_as(col("b"))
        assert (col("a") + 1).same_as(col("a") + 1)
        assert not (col("a") + 1).same_as(col("a") + 2)
        assert not (col("a") + 1).same_as(col("a") - 1)

    def test_same_as_sees_alias_and_literal_type(self):
        assert not col("a").alias("x").same_as(col("a").alias("y"))
        assert not lit(1).same_as(lit(True))

    def test_substitution(self):
        expr = (col("a") + col("b")) > lit(0)
        sub = expr.substitute({"a": col("x") * 2})
        assert sub.references() == {"x", "b"}
        assert expr.references() == {"a", "b"}  # original untouched
