"""Logical-plan and rewrite-rule tests (golden explain() snapshots)."""

import textwrap

import pytest

from repro.common.errors import WorkloadError
from repro.relational import Table, col, count_, sum_
from repro.relational.plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    Project,
    Repartition,
    Scan,
    Sort,
    count_nodes,
    render_plan,
)
from repro.relational.rules import default_rule_runner

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


# optimize=True pins the behavior under test: these tests inspect the
# rewritten plans regardless of EngineConf.logical_optimizer.
@pytest.fixture
def orders(ctx):
    return Table.from_rows(
        ctx, ORDERS, ORDER_SCHEMA, 3, name="orders", optimize=True
    )


@pytest.fixture
def customers(ctx):
    return Table.from_rows(
        ctx, CUSTOMERS, CUSTOMER_SCHEMA, 2, name="customers", optimize=True
    )


def optimized(table):
    plan, stats = default_rule_runner().optimize(table.plan)
    return plan, stats


def golden(text):
    return textwrap.dedent(text).strip()


class TestExplainSnapshots:
    def test_sql_shaped_query(self, orders):
        query = (
            orders.select("cust", "product", "amount")
            .where(col("amount") > 5)
            .group_by("cust")
            .agg(sum_(col("amount")).alias("rev"))
            .order_by("rev")
        )
        assert query.explain() == golden("""
            == Logical plan ==
            Sort [rev]
              Aggregate [cust] aggs=[sum(amount) AS rev]
                Filter (col('amount') > lit(5))
                  Project [cust, product, amount]
                    Scan orders [order_id, cust, product, amount]

            == Optimized plan ==
            Sort [rev]
              Aggregate [cust] aggs=[sum(amount) AS rev]
                Project [cust, amount]
                  Filter (col('amount') > lit(5))
                    Scan orders [order_id, cust, product, amount]

            rules applied: PruneColumns: 1, PushDownPredicates: 1
        """)

    def test_explain_off_shows_logical_only(self, orders):
        query = Table(orders.plan, optimize=False).where(col("amount") > 5)
        text = query.explain()
        assert "== Logical plan ==" in text
        assert "== Optimized plan ==" not in text

    def test_no_op_query_reports_no_rules(self, orders):
        text = orders.where(col("amount") > 5).explain()
        assert "rules applied: none" in text


class TestPushDownPredicates:
    def test_through_project_substitutes(self, orders):
        query = orders.select(
            "cust", (col("amount") * 2).alias("double")
        ).where(col("double") > 10)
        plan, stats = optimized(query)
        assert stats.rule_hits["PushDownPredicates"] == 1
        assert render_plan(plan) == golden("""
            Project [cust, (col('amount') * lit(2)) AS double]
              Filter ((col('amount') * lit(2)) > lit(10))
                Scan orders [order_id, cust, product, amount]
        """)

    def test_below_sort(self, orders):
        query = orders.order_by("amount").where(col("amount") > 5)
        plan, _ = optimized(query)
        assert isinstance(plan, Sort)
        assert isinstance(plan.child, Filter)

    def test_into_aggregate_keys(self, orders):
        query = (
            orders.group_by("cust")
            .agg(sum_(col("amount")))
            .where(col("cust") != "bob")
        )
        plan, _ = optimized(query)
        assert isinstance(plan, Aggregate)
        assert isinstance(plan.child, Filter)

    def test_aggregate_output_predicate_stays_put(self, orders):
        query = (
            orders.group_by("cust")
            .agg(sum_(col("amount")).alias("rev"))
            .where(col("rev") > 10)
        )
        plan, _ = optimized(query)
        assert isinstance(plan, Filter)
        assert isinstance(plan.child, Aggregate)

    def test_key_predicate_filters_both_join_sides(self, orders, customers):
        query = orders.join(customers, on="cust").where(col("cust") != "bob")
        plan, _ = optimized(query)
        assert isinstance(plan, Join)
        assert isinstance(plan.left, Filter)
        assert isinstance(plan.right, Filter)

    def test_side_predicate_filters_one_side(self, orders, customers):
        query = orders.join(customers, on="cust").where(
            col("region") == "east"
        )
        plan, _ = optimized(query)
        assert isinstance(plan, Join)
        assert not isinstance(plan.left, Filter)
        assert isinstance(plan.right, Filter)

    def test_pushdown_preserves_rows(self, orders, customers):
        query = orders.join(customers, on="cust").where(
            (col("region") == "east") & (col("amount") > 3)
        )
        raw = Table(query.plan, optimize=False).collect()
        assert sorted(query.collect()) == sorted(raw)


class TestStructuralRules:
    def test_fold_projections(self, orders):
        query = orders.select("cust", "product", "amount").select(
            "cust", "amount"
        )
        plan, stats = optimized(query)
        assert stats.rule_hits["FoldProjections"] >= 1
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Scan)

    def test_identity_projection_dropped(self, orders):
        query = orders.select(*ORDER_SCHEMA)
        plan, _ = optimized(query)
        assert isinstance(plan, Scan)

    def test_repartition_before_aggregate_elided(self, orders):
        query = (
            orders.repartition(6).group_by("cust").agg(sum_(col("amount")))
        )
        plan, stats = optimized(query)
        assert stats.rule_hits["DropRepartition"] == 1
        assert isinstance(plan, Aggregate)
        assert not isinstance(plan.child, Repartition)

    def test_repartition_on_join_side_elided(self, orders, customers):
        query = orders.join(customers.repartition(4), on="cust")
        plan, stats = optimized(query)
        assert stats.rule_hits["DropRepartition"] == 1
        assert isinstance(plan.right, Scan)

    def test_back_to_back_repartitions_merge(self, orders):
        query = orders.repartition(4).repartition(2)
        plan, _ = optimized(query)
        assert isinstance(plan, Repartition)
        assert plan.n == 2
        assert isinstance(plan.child, Scan)

    def test_duplicate_sorts_collapse(self, orders):
        query = orders.order_by("amount").order_by("amount")
        plan, stats = optimized(query)
        assert stats.rule_hits["CollapseSorts"] == 1
        assert isinstance(plan, Sort)
        assert isinstance(plan.child, Scan)

    def test_different_sorts_kept(self, orders):
        query = orders.order_by("amount").order_by("cust")
        plan, _ = optimized(query)
        assert isinstance(plan, Sort) and isinstance(plan.child, Sort)

    def test_limit_pushes_below_project(self, orders):
        plan = Limit(orders.select("cust", "amount").plan, 2)
        out, stats = default_rule_runner().optimize(plan)
        assert stats.rule_hits["PushDownLimit"] == 1
        assert isinstance(out, Project)
        assert isinstance(out.child, Limit)

    def test_adjacent_limits_merge(self, orders):
        plan = Limit(Limit(orders.plan, 2), 5)
        out, _ = default_rule_runner().optimize(plan)
        assert isinstance(out, Limit) and out.n == 2
        assert isinstance(out.child, Scan)


class TestPruneColumns:
    def test_join_side_narrowed(self, ctx):
        wide = Table.from_rows(
            ctx,
            [(1, "a", "x", 9)],
            ["k", "a", "b", "c"],
            1,
            name="wide",
        )
        keys = Table.from_rows(ctx, [(1, "u")], ["k", "u"], 1, name="keys")
        query = keys.join(wide, on="k").select("k", "u", "a")
        plan, stats = optimized(query)
        assert stats.rule_hits["PruneColumns"] >= 1
        # The wide side enters the join as Project [k, a]: b and c never
        # cross the shuffle.
        join = plan.child if isinstance(plan, Project) else plan
        assert isinstance(join.right, Project)
        assert join.right.schema() == ("k", "a")
        assert query.collect() == [(1, "u", "a")]

    def test_root_schema_never_narrowed(self, orders):
        plan, _ = optimized(orders)
        assert plan.schema() == tuple(ORDER_SCHEMA)


class TestPlanNodes:
    def test_duplicate_output_names_rejected(self, orders):
        with pytest.raises(WorkloadError, match="duplicate column"):
            orders.select(col("cust"), col("amount").alias("cust"))

    def test_unknown_column_fails_at_build_time(self, orders):
        with pytest.raises(KeyError, match="zz"):
            orders.select("zz")
        with pytest.raises(KeyError, match="zz"):
            orders.where(col("zz") > 0)

    def test_same_as_is_structural(self, orders):
        a = orders.where(col("amount") > 5).plan
        b = orders.where(col("amount") > 5).plan
        c = orders.where(col("amount") > 6).plan
        assert a.same_as(b)
        assert not a.same_as(c)

    def test_count_nodes(self, orders):
        plan = orders.where(col("amount") > 5).select("cust").plan
        assert count_nodes(plan) == 3

    def test_negative_limit_rejected(self, orders):
        with pytest.raises(WorkloadError):
            Limit(orders.plan, -1)

    def test_fixed_partitions_survive_optimization(self, orders):
        query = orders.repartition(6).group_by("cust").agg(
            count_(), num_partitions=5
        )
        plan, _ = optimized(query)
        assert isinstance(plan, Aggregate)
        assert plan.num_partitions == 5
