"""Tests for the relational Table layer."""

import pytest

from repro.common.errors import WorkloadError
from repro.relational import Table, avg, col, count_, lit, sum_

ORDERS = [
    (1, "ann", "widget", 10.0),
    (2, "bob", "widget", 20.0),
    (3, "ann", "gizmo", 5.0),
    (4, "cho", "gizmo", 2.5),
    (5, "ann", "widget", 7.5),
]
ORDER_SCHEMA = ["order_id", "cust", "product", "amount"]

CUSTOMERS = [("ann", "east"), ("bob", "west"), ("cho", "east")]
CUSTOMER_SCHEMA = ["cust", "region"]


@pytest.fixture
def orders(ctx):
    return Table.from_rows(ctx, ORDERS, ORDER_SCHEMA, 3, name="orders")


@pytest.fixture
def customers(ctx):
    return Table.from_rows(ctx, CUSTOMERS, CUSTOMER_SCHEMA, 2, name="customers")


class TestConstruction:
    def test_arity_checked(self, ctx):
        with pytest.raises(WorkloadError):
            Table.from_rows(ctx, [(1, 2)], ["a"], 1)

    def test_duplicate_columns_rejected(self, ctx):
        with pytest.raises(WorkloadError):
            Table.from_rows(ctx, [(1, 2)], ["a", "a"], 1)

    def test_count_and_collect(self, orders):
        assert orders.count() == 5
        assert sorted(orders.collect()) == sorted(ORDERS)


class TestRowOps:
    def test_select_names(self, orders):
        out = orders.select("cust", "amount").collect()
        assert sorted(out) == sorted((r[1], r[3]) for r in ORDERS)

    def test_select_expressions(self, orders):
        out = orders.select(
            col("order_id"), (col("amount") * 2).alias("double")
        )
        assert out.schema == ("order_id", "double")
        assert dict(out.collect())[1] == 20.0

    def test_where(self, orders):
        out = orders.where(col("amount") >= 7.5).count()
        assert out == 3

    def test_where_compound(self, orders):
        out = orders.where(
            (col("product") == "widget") & (col("amount") > 10)
        ).collect()
        assert out == [(2, "bob", "widget", 20.0)]

    def test_with_column_appends(self, orders):
        out = orders.with_column("tax", col("amount") * 0.1)
        assert out.schema[-1] == "tax"
        rows = {r[0]: r[-1] for r in out.collect()}
        assert rows[2] == pytest.approx(2.0)

    def test_with_column_replaces(self, orders):
        out = orders.with_column("amount", col("amount") + 1)
        assert out.schema == orders.schema
        amounts = {r[0]: r[3] for r in out.collect()}
        assert amounts[1] == 11.0


class TestGroupBy:
    def test_sum_per_key(self, orders):
        out = (
            orders.group_by("cust")
            .agg(sum_(col("amount")).alias("revenue"))
            .collect()
        )
        assert dict((k, v) for k, v in out) == {
            "ann": 22.5, "bob": 20.0, "cho": 2.5,
        }

    def test_multiple_aggregates(self, orders):
        out = orders.group_by("product").agg(
            count_(), sum_(col("amount")), avg(col("amount"))
        )
        assert out.schema == ("product", "count(lit(1))", "sum(amount)", "avg(amount)")
        rows = {r[0]: r[1:] for r in out.collect()}
        assert rows["widget"] == (3, 37.5, pytest.approx(12.5))

    def test_group_by_expression(self, orders):
        out = (
            orders.group_by((col("order_id") % 2).alias("parity"))
            .agg(count_())
            .collect()
        )
        assert dict(out) == {0: 2, 1: 3}

    def test_empty_args_rejected(self, orders):
        with pytest.raises(WorkloadError):
            orders.group_by()
        with pytest.raises(WorkloadError):
            orders.group_by("cust").agg()


class TestJoin:
    def test_inner_join(self, orders, customers):
        out = orders.join(customers, on="cust")
        assert out.schema == (
            "cust", "order_id", "product", "amount", "region"
        )
        regions = {r[1]: r[4] for r in out.collect()}
        assert regions[1] == "east" and regions[2] == "west"

    def test_join_then_aggregate(self, orders, customers):
        revenue = (
            orders.join(customers, on="cust")
            .group_by("region")
            .agg(sum_(col("amount")).alias("revenue"))
            .collect()
        )
        assert dict(revenue) == {"east": 25.0, "west": 20.0}

    def test_missing_key_rejected(self, orders, customers):
        with pytest.raises(WorkloadError):
            orders.join(customers, on="region")


class TestOrderingAndDisplay:
    def test_order_by(self, orders):
        out = orders.order_by("amount").collect()
        amounts = [r[3] for r in out]
        assert amounts == sorted(amounts)

    def test_order_by_expression(self, orders):
        out = orders.order_by((lit(0) - col("amount")).alias("neg")).collect()
        amounts = [r[3] for r in out]
        assert amounts == sorted(amounts, reverse=True)


class TestJoinCollisions:
    def test_right_columns_gain_suffix(self, ctx):
        left = Table.from_rows(
            ctx, [(1, "lv", "lx")], ["k", "v", "x"], 1, name="left"
        )
        right = Table.from_rows(
            ctx, [(1, "rv", "rx")], ["k", "v", "x"], 1, name="right"
        )
        out = left.join(right, on="k")
        assert out.schema == ("k", "v", "x", "v_r", "x_r")
        assert out.collect() == [(1, "lv", "lx", "rv", "rx")]

    def test_suffix_itself_collides(self, ctx):
        """A pre-existing `v_r` column forces a second suffix round."""
        left = Table.from_rows(
            ctx, [(1, "lv", "old")], ["k", "v", "v_r"], 1, name="left"
        )
        right = Table.from_rows(ctx, [(1, "rv")], ["k", "v"], 1, name="right")
        out = left.join(right, on="k")
        assert out.schema == ("k", "v", "v_r", "v_r_r")
        assert out.collect() == [(1, "lv", "old", "rv")]

    def test_rename_is_deterministic(self, ctx):
        left = Table.from_rows(ctx, [(1, "a")], ["k", "v"], 1)
        right = Table.from_rows(ctx, [(1, "b")], ["k", "v"], 1)
        first = left.join(right, on="k").schema
        second = left.join(right, on="k").schema
        assert first == second == ("k", "v", "v_r")

    def test_pushdown_filter_on_renamed_column(self, ctx):
        """Predicates on `v_r` must translate back to the right's `v`."""
        left = Table.from_rows(
            ctx, [(1, "a"), (2, "b")], ["k", "v"], 1, name="left"
        )
        right = Table.from_rows(
            ctx, [(1, "x"), (2, "y")], ["k", "v"], 1, name="right"
        )
        out = left.join(right, on="k").where(col("v_r") == "y")
        assert out.collect() == [(2, "b", "y")]


class TestNullRows:
    ROWS = [("a", 1.0), ("a", None), ("b", None), ("b", None), ("c", 3.0)]

    def test_count_column_vs_star(self, ctx):
        t = Table.from_rows(ctx, self.ROWS, ["k", "v"], 2)
        out = t.group_by("k").agg(count_(), count_(col("v"))).collect()
        assert sorted(out) == [("a", 2, 1), ("b", 2, 0), ("c", 1, 1)]

    def test_sum_and_avg_skip_nulls(self, ctx):
        t = Table.from_rows(ctx, self.ROWS, ["k", "v"], 2)
        out = t.group_by("k").agg(
            sum_(col("v")), avg(col("v"))
        ).collect()
        assert sorted(out) == [
            ("a", 1.0, 1.0), ("b", None, None), ("c", 3.0, 3.0),
        ]


class TestPartitioningPreservation:
    def test_key_preserving_select_keeps_partitioner(self, ctx, orders):
        agged = orders.group_by("cust").agg(sum_(col("amount")).alias("rev"))
        narrowed = agged.select("cust", "rev")
        assert narrowed.rdd.partitioner is not None

    def test_with_column_replace_keeps_partitioner(self, ctx, orders):
        agged = orders.group_by("cust").agg(sum_(col("amount")).alias("rev"))
        taxed = agged.with_column("rev", col("rev") * 0.9)
        assert taxed.rdd.partitioner is not None

    def test_key_dropping_select_forgets_partitioner(self, ctx, orders):
        agged = orders.group_by("cust").agg(sum_(col("amount")).alias("rev"))
        assert agged.select("rev").rdd.partitioner is None

    def test_key_rewriting_select_forgets_partitioner(self, ctx, orders):
        agged = orders.group_by("cust").agg(sum_(col("amount")).alias("rev"))
        rewritten = agged.select(
            (col("cust") + "!").alias("cust"), col("rev")
        )
        assert rewritten.rdd.partitioner is None

    @pytest.mark.parametrize("optimize", [True, False])
    def test_reaggregation_after_replace_is_narrow(self, ctx, optimize):
        """agg -> with_column(replace) -> agg must stay 2 stages: the
        second shuffle aligns with the first's partitioner."""
        rows = [(i % 4, float(i)) for i in range(20)]
        t = Table.from_rows(ctx, rows, ["k", "v"], 3, optimize=optimize)
        out = (
            t.group_by("k").agg(sum_(col("v")).alias("v"))
            .with_column("v", col("v") * 2)
            .group_by("k").agg(sum_(col("v")).alias("vv"))
        )
        result = out.collect()
        assert len(ctx.job_stats[-1].stages) == 2
        expected = {k: sum(v for kk, v in rows if kk == k) * 2
                    for k in range(4)}
        assert dict(result) == expected


class TestEngineIntegration:
    def test_query_is_ordinary_lineage(self, ctx, orders, customers):
        """The compiled query runs as normal stages CHOPPER could tune."""
        query = (
            orders.where(col("amount") > 1)
            .join(customers, on="cust")
            .group_by("region")
            .agg(sum_(col("amount")))
        )
        query.collect()
        kinds = [s.kind for s in ctx.job_stats[-1].stages]
        assert "shuffle_map" in kinds and kinds[-1] == "result"

    def test_aggregation_is_map_side_combined(self, ctx, orders):
        orders.group_by("cust").agg(sum_(col("amount"))).collect()
        map_stage = ctx.job_stats[-1].stages[0]
        # Combined output: at most one record per (map task, key).
        assert map_stage.shuffle_write_bytes > 0
