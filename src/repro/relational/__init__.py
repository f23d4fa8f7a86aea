"""A schema'd relational layer over the RDD engine.

The DataFrame-flavored API the paper's SQL workload presumes: tables of
tuple rows with column expressions, compiled down to the same RDD
lineage CHOPPER profiles and retunes. See :mod:`repro.relational.table`.

Quick taste::

    from repro.relational import Table, col, sum_

    t = Table.from_rows(ctx, rows, ["cust", "amount"])
    revenue = (
        t.where(col("amount") > 0)
         .group_by("cust")
         .agg(sum_(col("amount")).alias("revenue"))
         .order_by("revenue")
    )
"""

from repro.relational.expr import (
    Agg,
    Col,
    Expr,
    Lit,
    avg,
    col,
    count_,
    lit,
    max_,
    min_,
    sum_,
)
from repro.relational.plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Repartition,
    Scan,
    Sort,
    render_plan,
)
from repro.relational.cache import (
    CacheEntry,
    ResultCacheManager,
    SQLiteCacheBackend,
    query_signature,
)
from repro.relational.rules import (
    RuleBatch,
    RuleRunner,
    default_rule_runner,
)
from repro.relational.stats import (
    ColumnStats,
    RangeLayout,
    ZoneMapSpec,
    can_match,
    collect_column_stats,
)
from repro.relational.table import GroupedTable, Table, lower_plan

__all__ = [
    "Table",
    "GroupedTable",
    "Expr",
    "Col",
    "Lit",
    "Agg",
    "col",
    "lit",
    "sum_",
    "count_",
    "min_",
    "max_",
    "avg",
    "LogicalPlan",
    "Scan",
    "Project",
    "Filter",
    "Aggregate",
    "Join",
    "Sort",
    "Limit",
    "Repartition",
    "render_plan",
    "RuleBatch",
    "RuleRunner",
    "default_rule_runner",
    "lower_plan",
    "CacheEntry",
    "ResultCacheManager",
    "SQLiteCacheBackend",
    "query_signature",
    "ColumnStats",
    "RangeLayout",
    "ZoneMapSpec",
    "can_match",
    "collect_column_stats",
]
