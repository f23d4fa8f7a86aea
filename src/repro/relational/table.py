"""Tables: a schema'd relational layer compiled onto the RDD engine.

The thin DataFrame-like API the paper's SQL workload presumes: rows are
plain tuples and a :class:`Table` wraps a :class:`LogicalPlan` over RDDs
of rows. Operators build plan nodes lazily; the first action optimizes
the plan (:func:`repro.relational.rules.default_rule_runner`, unless
``optimize=False`` or the engine conf disables it) and lowers it to
engine primitives —

* ``Project`` / ``Filter``            → narrow map/filter, keeping the
  parent's partitioner whenever the key-producing columns pass through
  untouched;
* ``Aggregate``                       → ``combine_by_key`` (one shuffle,
  map-side combined — CHOPPER-tunable, and elided into a narrow
  dependency when the input is already partitioned by the group key);
* ``Join``                            → key-by + RDD ``join`` (cogroup;
  co-partition-alignable the same way);
* ``Sort``                            → ``sort_by_key`` (range
  partitioner).

Because it bottoms out in ordinary RDD lineage, CHOPPER profiles, models,
and retunes relational queries exactly like hand-written drivers —
``Table.explain()`` shows the plan before and after the rewrite batches.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.common.errors import WorkloadError
from repro.engine.context import AnalyticsContext
from repro.engine.rdd import RDD, PartitionSubsetRDD, RecordOp
from repro.relational.expr import Agg, Col, Expr, col
from repro.relational.plan import (
    Aggregate,
    Filter,
    Join,
    LogicalPlan,
    Project,
    Repartition,
    Scan,
    Sort,
    render_plan,
)
from repro.relational.rules import default_rule_runner
from repro.relational.stats import RangeLayout, ZoneMapSpec


# ----------------------------------------------------------------------
# Lowering: LogicalPlan -> RDD lineage
# ----------------------------------------------------------------------


def lower_plan(plan: LogicalPlan, memo: Optional[Dict[int, RDD]] = None) -> RDD:
    """Compile a plan to RDD lineage.

    ``memo`` shares the lowering of node objects that appear on both
    sides of a join (self-joins reuse one shuffle, like shared RDDs).
    """
    if memo is None:
        memo = {}
    cached = memo.get(id(plan))
    if cached is not None:
        return cached
    rdd = _lower_node(plan, memo)
    memo[id(plan)] = rdd
    return rdd


def _aligned(child: LogicalPlan, child_rdd: RDD, key_col: str) -> bool:
    """Is the lowered child already partitioned by ``key_col``?"""
    return (
        child.partitioning() == (key_col,)
        and child_rdd.partitioner is not None
    )


def _lower_node(plan: LogicalPlan, memo: Dict[int, RDD]) -> RDD:
    if isinstance(plan, Scan):
        if plan.partitions is not None:
            # Pruned scan: the subset is part of the lineage, so skipped
            # partitions never become tasks (and resubmissions re-derive
            # the identical subset).
            return PartitionSubsetRDD(plan.rdd, plan.partitions)
        return plan.rdd

    if isinstance(plan, Project):
        child = lower_plan(plan.child, memo)
        fns = [e.bind(plan.child.schema()) for e in plan.exprs]

        def _project_row(row, _fns=fns):
            return tuple(fn(row) for fn in _fns)

        return child.map_partitions(
            lambda _s, rows: [tuple(fn(row) for fn in fns) for row in rows],
            op_name=f"select[{','.join(plan.schema())}]",
            preserves_partitioning=plan.partitioning() is not None,
            record_op=RecordOp("map", _project_row),
        )

    if isinstance(plan, Filter):
        child = lower_plan(plan.child, memo)
        fn = plan.predicate.bind(plan.child.schema())
        return child.map_partitions(
            lambda _s, rows: [row for row in rows if fn(row)],
            op_name=f"where[{plan.predicate!r}]",
            preserves_partitioning=True,
            record_op=RecordOp("filter", fn),
        )

    if isinstance(plan, Aggregate):
        return _lower_aggregate(plan, memo)

    if isinstance(plan, Join):
        return _lower_join(plan, memo)

    if isinstance(plan, Sort):
        child = lower_plan(plan.child, memo)
        fn = plan.expr.bind(plan.child.schema())
        keyed = child.map_partitions(
            lambda _s, rows: [(fn(row), row) for row in rows],
            op_name="orderKey",
        )
        return keyed.sort_by_key(plan.num_partitions).values()

    if isinstance(plan, Repartition):
        return lower_plan(plan.child, memo).repartition(plan.n)

    raise WorkloadError(f"cannot lower plan node {plan!r}")


def _lower_aggregate(plan: Aggregate, memo: Dict[int, RDD]) -> RDD:
    child_rdd = lower_plan(plan.child, memo)
    schema = plan.child.schema()
    value_fns = [a.expr.bind(schema) for a in plan.aggs]
    creates = [a.create for a in plan.aggs]
    merge_values = [a.merge_value for a in plan.aggs]
    merges = [a.merge for a in plan.aggs]
    finishes = [a.finish for a in plan.aggs]

    (key,) = plan.keys
    key_fn = key.bind(schema)

    def to_pairs(_s, rows):
        return [
            (key_fn(row), tuple(fn(row) for fn in value_fns))
            for row in rows
        ]

    aligned = isinstance(key, Col) and _aligned(plan.child, child_rdd, key.name)
    pairs = child_rdd.map_partitions(
        to_pairs, op_name="groupKey", preserves_partitioning=aligned
    )
    combined = pairs.combine_by_key(
        lambda vs: tuple(c(v) for c, v in zip(creates, vs)),
        lambda acc, vs: tuple(
            m(a, v) for m, a, v in zip(merge_values, acc, vs)
        ),
        lambda a, b: tuple(m(x, y) for m, x, y in zip(merges, a, b)),
        num_partitions=plan.num_partitions,
        op_name="groupAgg",
    )

    def finish(_s, rows):
        return [
            (k,) + tuple(f(a) for f, a in zip(finishes, acc))
            for k, acc in rows
        ]

    # The finished row still leads with the key, so the combine's
    # partitioner remains valid for downstream alignment.
    return combined.map_partitions(
        finish, op_name="groupFinish", preserves_partitioning=True
    )


def _lower_join(plan: Join, memo: Dict[int, RDD]) -> RDD:
    (key,) = plan.keys

    def keyed(side: LogicalPlan, tag: str) -> RDD:
        side_rdd = lower_plan(side, memo)
        schema = side.schema()
        rest = [i for i, c in enumerate(schema) if c != key]
        ki = list(schema).index(key)

        def kv(_s, rows):
            return [(row[ki], tuple(row[i] for i in rest)) for row in rows]

        aligned = _aligned(side, side_rdd, key)
        return side_rdd.map_partitions(
            kv, op_name=f"joinKey[{tag}]", preserves_partitioning=aligned
        )

    joined = keyed(plan.left, "left").join(
        keyed(plan.right, "right"), plan.num_partitions
    )
    def flatten(_s, rows):
        return [(k,) + l + r for k, (l, r) in rows]

    return joined.map_partitions(
        flatten, op_name="joinFlatten", preserves_partitioning=True
    )


# ----------------------------------------------------------------------
# Table
# ----------------------------------------------------------------------


def _attach_zone_map_spec(scan: Scan) -> None:
    """Mark a versioned source for zone-map collection at scan time.

    Only source RDDs with a dataset version can be described (the
    version is what keys the statistics and invalidates them when the
    data changes); collection is skipped entirely when pruning, the
    only consumer of the maps, is off.
    """
    rdd = scan.rdd
    version = getattr(rdd, "dataset_version", None)
    if version is None or not hasattr(rdd, "zone_map_spec"):
        return
    if not rdd.ctx.conf.partition_pruning:
        return
    rdd.zone_map_spec = ZoneMapSpec(
        table=rdd.op_name, version=version, columns=scan.schema()
    )


def _collect_scans(plan: LogicalPlan, out: List[Scan]) -> None:
    for child in plan.children:
        _collect_scans(child, out)
    if isinstance(plan, Scan):
        out.append(plan)


class Table:
    """A logical plan over RDDs of tuple rows, plus its column names."""

    def __init__(
        self,
        plan: Union[LogicalPlan, RDD],
        schema: Optional[Sequence[str]] = None,
        optimize: Optional[bool] = None,
        layout: Optional[RangeLayout] = None,
    ) -> None:
        if isinstance(plan, RDD):
            if schema is None:
                raise WorkloadError("Table(rdd, ...) needs a schema")
            plan = Scan(plan, schema, layout=layout)
            _attach_zone_map_spec(plan)
        self.plan: LogicalPlan = plan
        # None defers to EngineConf.logical_optimizer at lowering time.
        self._optimize = optimize
        self._lowered: Optional[RDD] = None

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.plan.schema()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        ctx: AnalyticsContext,
        rows: Iterable[Tuple],
        schema: Sequence[str],
        num_partitions: Optional[int] = None,
        name: str = "table",
        optimize: Optional[bool] = None,
    ) -> "Table":
        rows = [tuple(r) for r in rows]
        width = len(tuple(schema))
        for row in rows:
            if len(row) != width:
                raise WorkloadError(
                    f"row arity {len(row)} != schema arity {width}"
                )
        rdd = ctx.parallelize(rows, num_partitions, op_name=name)
        return cls(rdd, schema, optimize=optimize)

    @classmethod
    def from_rdd(
        cls,
        rdd: RDD,
        schema: Sequence[str],
        optimize: Optional[bool] = None,
        layout: Optional[RangeLayout] = None,
    ) -> "Table":
        """Wrap an RDD of rows; ``layout`` optionally declares its range
        partitioning so filters can prune partitions on a cold scan."""
        return cls(rdd, schema, optimize=optimize, layout=layout)

    def _with_plan(self, plan: LogicalPlan) -> "Table":
        return Table(plan, optimize=self._optimize)

    def _ctx(self) -> AnalyticsContext:
        node = self.plan
        while node.children:
            node = node.children[0]
        assert isinstance(node, Scan)
        return node.rdd.ctx

    # ------------------------------------------------------------------
    # Operators (plan builders)
    # ------------------------------------------------------------------

    def select(self, *columns: Union[str, Expr]) -> "Table":
        """Project columns / expressions into a new table."""
        exprs = [col(c) if isinstance(c, str) else c for c in columns]
        return self._with_plan(Project(self.plan, exprs))

    def with_column(self, name: str, expr: Expr) -> "Table":
        """Append (or replace) one computed column."""
        if name in self.schema:
            exprs = [
                expr.alias(name) if c == name else col(c)
                for c in self.schema
            ]
        else:
            exprs = [col(c) for c in self.schema] + [expr.alias(name)]
        return self._with_plan(Project(self.plan, exprs))

    def where(self, predicate: Expr) -> "Table":
        return self._with_plan(Filter(self.plan, predicate))

    def group_by(self, *keys: Union[str, Expr]) -> "GroupedTable":
        key_exprs = [col(k) if isinstance(k, str) else k for k in keys]
        if len(key_exprs) != 1:
            raise WorkloadError(f"group_by() takes one key, got {len(key_exprs)}")
        return GroupedTable(self, key_exprs)

    def join(
        self,
        other: "Table",
        on: Union[str, Sequence[str]],
        num_partitions: Optional[int] = None,
    ) -> "Table":
        """Inner equi-join on shared column names.

        Output schema: join keys, then this table's remaining columns,
        then the other's (gaining ``_r`` suffixes until collision-free).
        """
        keys = [on] if isinstance(on, str) else list(on)
        return self._with_plan(
            Join(self.plan, other.plan, keys, num_partitions)
        )

    def order_by(
        self, column: Union[str, Expr], num_partitions: Optional[int] = None
    ) -> "Table":
        expr = col(column) if isinstance(column, str) else column
        return self._with_plan(Sort(self.plan, expr, num_partitions))

    def repartition(self, num_partitions: int) -> "Table":
        """Round-robin exchange (a hand-tuning knob the optimizer elides
        when a shuffle consumer follows anyway)."""
        return self._with_plan(Repartition(self.plan, num_partitions))

    # ------------------------------------------------------------------
    # Optimization / lowering
    # ------------------------------------------------------------------

    def _effective_optimize(self) -> bool:
        if self._optimize is not None:
            return self._optimize
        return bool(self._ctx().conf.logical_optimizer)

    @property
    def rdd(self) -> RDD:
        """The compiled lineage (optimizes and lowers on first access)."""
        if self._lowered is None:
            plan = self.plan
            if self._effective_optimize():
                plan, stats = default_rule_runner(self._ctx()).optimize(plan)
                self._ctx().plan_events.append(stats.to_dict())
            self._lowered = lower_plan(plan)
        return self._lowered

    def explain(self) -> str:
        """The logical plan, and what the rewrite batches make of it.

        Optimizes in dry-run mode: pruning decisions are derived and
        shown exactly as a run would make them, but no counters move
        and the cache file is only read — explaining then collecting
        counts each lookup once, not twice.
        """
        lines = ["== Logical plan ==", render_plan(self.plan)]
        if self._effective_optimize():
            ctx = self._ctx()
            optimized, stats = default_rule_runner(
                ctx, dry_run=True
            ).optimize(self.plan)
            lines += ["", "== Optimized plan ==", render_plan(optimized)]
            if stats.rule_hits:
                hits = ", ".join(
                    f"{name}: {n}"
                    for name, n in sorted(stats.rule_hits.items())
                )
            else:
                hits = "none"
            lines += ["", f"rules applied: {hits}"]
            scans: List[Scan] = []
            _collect_scans(optimized, scans)
            pruned_any = any(s.partitions is not None for s in scans)
            # Per-scan decisions: shown whenever something pruned, or
            # whenever a cache file is attached (`repro explain
            # --cache-path ...` then reports exactly what `run` would skip).
            if pruned_any or getattr(ctx, "query_cache", None) is not None:
                lines += ["", "== Partition pruning =="]
                for scan in scans:
                    name = getattr(scan.rdd, "op_name", "rdd")
                    total = scan.rdd.num_partitions
                    if scan.partitions is not None:
                        via = ", ".join(scan.pruned_by) or "static"
                        lines.append(
                            f"{name}: scan {len(scan.partitions)}/{total}"
                            f" partitions (pruned via {via})"
                        )
                    else:
                        lines.append(
                            f"{name}: scan {total}/{total} partitions"
                        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def collect(self) -> List[Tuple]:
        return self.rdd.collect()

    def count(self) -> int:
        return self.rdd.count()

    def __repr__(self) -> str:
        return f"Table(schema={list(self.schema)})"


class GroupedTable:
    """Intermediate of ``group_by``; finish with :meth:`agg`."""

    def __init__(self, table: Table, keys: List[Expr]) -> None:
        self.table = table
        self.keys = keys

    def agg(self, *aggs: Agg, num_partitions: Optional[int] = None) -> Table:
        return self.table._with_plan(
            Aggregate(self.table.plan, self.keys, aggs, num_partitions)
        )
