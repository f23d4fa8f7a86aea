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

The package exports what a query is written with. The plan, rules and
statistics are imported from their modules, and so is the zone-map cache
(:mod:`repro.relational.cache`), which loads ``sqlite3`` and is only
needed by a context that configures one.
"""

from repro.relational.expr import avg, col, count_, lit, max_, min_, sum_
from repro.relational.stats import RangeLayout
from repro.relational.table import Table

__all__ = [
    "Table",
    "col",
    "lit",
    "sum_",
    "count_",
    "min_",
    "max_",
    "avg",
    "RangeLayout",
]
