"""SQL workload: scan, aggregate, join, aggregate, sort (§IV).

"SQL is a workload that performs typical query operations that count,
aggregate, and join the data sets ... compute intensive for count and
aggregation operations and shuffle intensive in the join phase."

The query, in SQL terms::

    SELECT c.region, SUM(o.amount) AS revenue
    FROM   (SELECT cust_id, SUM(amount) AS amount
            FROM orders GROUP BY cust_id) o
    JOIN   customers c ON o.cust_id = c.cust_id
    GROUP BY c.region
    ORDER BY c.region

Since PR 7 the query goes through the relational layer
(:meth:`build_query` returns the :class:`~repro.relational.table.Table`),
so the logical-plan rewrite batches run before lowering. The driver
hand-tunes a ``repartition(default_parallelism)`` onto the customers
(build) side of the join — a common "spread the small table" reflex —
which the optimizer recognizes as pure cost (the join reshuffles anyway)
and elides, so the optimized plan executes strictly fewer stages than
``optimize=False`` while collecting bit-identical rows.

Stage layout with the optimizer on (6 stage executions across the
sort-sampling and collect jobs; the paper's run shows ids 0-4 — their
query shape differs slightly, ours adds the sort-sampling pass):

* stage 0 — scan customers, write its join-side shuffle;
* stage 1 — scan+project orders with map-side combine, write the
  per-customer aggregation shuffle;
* stage 2 — fused [per-customer reduce -> cogroup -> join -> flatten],
  writing the region-aggregation shuffle (the paper's "sub-stages
  combined for shuffle write"; the reduce fuses in because the
  aggregation's hash partitioner on ``cust_id`` aligns with the join's);
* stage 3 — region reduce feeding the sort's sampling job;
* stage 4 — region reduce again, writing the range-repartition shuffle;
* stage 5 — the final sorted result.

Unoptimized it is 7: the customers scan writes a round-robin exchange
and an identity pass-through stage rewrites the join-side shuffle. The
orders table's Zipf-hot customer keys are what make the hash/range
partitioner choice matter for the join.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.units import GB
from repro.engine.context import AnalyticsContext
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.datagen import SQLTableGen

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational import Table

ORDERS_SCHEMA = ["order_id", "cust_id", "product_id", "amount"]
CUSTOMERS_SCHEMA = ["cust_id", "region"]


class SQLWorkload(Workload):
    """Aggregate-join-aggregate-sort query over generated tables."""

    name = "sql"

    def __init__(
        self,
        virtual_gb: float = 34.5,
        n_customers: int = 500,
        n_regions: int = 8,
        physical_records: int = 30_000,
        physical_scale: float = 1.0,
        seed: int = 7,
        fixed_agg_partitions: Optional[int] = None,
        sort_output: bool = True,
        optimize: Optional[bool] = None,
        skew: Optional[float] = None,
        max_order: Optional[int] = None,
        orders_layout: str = "range",
    ) -> None:
        super().__init__(physical_scale=physical_scale, seed=seed)
        self.input_bytes = virtual_gb * GB
        self.n_customers = n_customers
        self.n_regions = n_regions
        # Zipf exponent override for the orders' customer-key
        # distribution (None = the generator's default 1.4).
        self.skew = skew
        records = self.check_physical_records(physical_records)
        self.physical_records = max(256, int(records * physical_scale))
        # When set, the driver pins the per-customer aggregation to an
        # explicit partition count (a user-fixed scheme) — the setup for
        # CHOPPER's gamma-gated repartition insertion (§III-C).
        self.fixed_agg_partitions = fixed_agg_partitions
        self.sort_output = sort_output
        # None defers to EngineConf.logical_optimizer; False forces the
        # raw (unoptimized) lowering — results are bit-identical.
        self.optimize = optimize
        # When set, the query filters orders to order_id < max_order — a
        # selective scan predicate zone maps can prune (`--max-order`).
        self.max_order = max_order
        # Placement of order ids across partitions: "range" (contiguous,
        # prunable) or "hash" (scrambled, unprunable). See SQLTableGen.
        self.orders_layout = orders_layout

    def build_query(self, ctx: AnalyticsContext, scale: float = 1.0) -> Table:
        """The query as a relational plan (what ``repro explain`` shows)."""
        # The relational layer: only SQL runs build a query.
        from repro.relational import Table, col, sum_

        gen_kwargs = {}
        if self.skew is not None:
            gen_kwargs["zipf_a"] = self.skew
        gen = SQLTableGen(
            virtual_bytes=self.virtual_bytes(scale),
            physical_records=self.physical_records,
            n_customers=self.n_customers,
            n_regions=self.n_regions,
            seed=self.seed,
            orders_layout=self.orders_layout,
            **gen_kwargs,
        )
        orders = Table.from_rdd(
            gen.orders_rdd(ctx, ctx.default_parallelism),
            ORDERS_SCHEMA,
            optimize=self.optimize,
        )
        if self.max_order is not None:
            orders = orders.where(col("order_id") < self.max_order)
        customers = Table.from_rdd(
            gen.customers_rdd(ctx, ctx.default_parallelism),
            CUSTOMERS_SCHEMA,
            optimize=self.optimize,
        )
        per_customer = (
            orders.select("cust_id", "amount")
            .group_by("cust_id")
            .agg(
                sum_(col("amount")).alias("amount"),
                num_partitions=self.fixed_agg_partitions,
            )
        )
        # The hand-tuned spread of the build side the optimizer elides.
        joined = per_customer.join(
            customers.repartition(ctx.default_parallelism), on="cust_id"
        )
        revenue = joined.group_by("region").agg(
            sum_(col("amount")).alias("revenue")
        )
        if self.sort_output:
            return revenue.order_by("region")
        return revenue

    def run(self, ctx: AnalyticsContext, scale: float = 1.0) -> WorkloadResult:
        query = self.build_query(ctx, scale)
        if self.sort_output:
            result = query.collect()
        else:
            result = sorted(query.collect())
        return WorkloadResult(
            value=result,
            details={"regions": len(result)},
        )
