"""Logical query plans for the relational layer.

``Table`` operators no longer lower straight to RDDs; they build a tree
of these nodes (Scan, Project, Filter, Aggregate, Join, Sort,
Repartition). The :mod:`repro.relational.rules` batches rewrite the tree
to fixed point, and ``lower_plan`` (in :mod:`repro.relational.table`)
compiles the result into the same RDD lineage CHOPPER profiles, models
and retunes.

Every node knows three structural facts the optimizer leans on:

* ``schema()`` — output column names, validated at construction (so a
  bad query still fails at the call site, not at collect time);
* ``partitioning()`` — the column tuple the *lowered* RDD will carry a
  partitioner for, or None. This is what lets the lowering mark narrow
  maps ``preserves_partitioning=True`` and lets downstream shuffles
  align instead of re-shuffling.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import WorkloadError
from repro.relational.expr import Agg, AliasExpr, Col, Expr, _agg_label


def _check_schema(schema: Sequence[str], where: str) -> None:
    dupes = sorted({c for c in schema if list(schema).count(c) > 1})
    if dupes:
        raise WorkloadError(
            f"duplicate column names {dupes} in {where} output "
            f"{list(schema)}"
        )


def _check_references(exprs: Sequence[Expr], child_schema: Sequence[str]) -> None:
    available = set(child_schema)
    for expr in exprs:
        for name in sorted(expr.references() - available):
            raise KeyError(
                f"column {name!r} not in schema {list(child_schema)}"
            )


def _fmt_expr(expr: Expr) -> str:
    if isinstance(expr, Col):
        return expr.name
    if isinstance(expr, AliasExpr):
        return f"{expr.inner!r} AS {expr.name}"
    return repr(expr)


def _fmt_agg(agg: Agg) -> str:
    override = getattr(agg, "label_override", None)
    return f"{agg.label} AS {override}" if override else agg.label


class LogicalPlan:
    """Base plan node; immutable once constructed."""

    children: Tuple["LogicalPlan", ...] = ()

    def schema(self) -> Tuple[str, ...]:
        return self._schema

    def partitioning(self) -> Optional[Tuple[str, ...]]:
        """Columns the lowered RDD is hash/co-partitioned by, or None."""
        return None

    def with_children(
        self, children: Sequence["LogicalPlan"]
    ) -> "LogicalPlan":
        raise NotImplementedError

    def describe(self) -> str:
        """One-line summary used by ``Table.explain()``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.describe()


class Scan(LogicalPlan):
    """A leaf wrapping a source RDD of tuple rows.

    ``partitions`` is None for a full scan; the ``PrunePartitions`` rule
    rewrites it to the sorted tuple of partition ids that may satisfy
    the enclosing filter (``pruned_by`` names the evidence — declared
    layout, zone maps, cached set). ``layout`` optionally declares the
    source's range partitioning for static cold-run pruning.
    """

    def __init__(
        self,
        rdd,
        schema: Sequence[str],
        partitions: Optional[Tuple[int, ...]] = None,
        pruned_by: Tuple[str, ...] = (),
        layout=None,
    ) -> None:
        self.rdd = rdd
        self._schema = tuple(schema)
        self.partitions = tuple(partitions) if partitions is not None else None
        self.pruned_by = tuple(pruned_by)
        self.layout = layout
        _check_schema(self._schema, "Scan")

    def with_children(self, children: Sequence[LogicalPlan]) -> "Scan":
        return self

    def describe(self) -> str:
        name = getattr(self.rdd, "op_name", "rdd")
        base = f"Scan {name} [{', '.join(self._schema)}]"
        if self.partitions is not None:
            total = self.rdd.num_partitions
            by = f" via {', '.join(self.pruned_by)}" if self.pruned_by else ""
            return f"{base} (scan {len(self.partitions)}/{total} partitions{by})"
        return base


class Project(LogicalPlan):
    """Row-wise projection: one expression per output column."""

    def __init__(self, child: LogicalPlan, exprs: Sequence[Expr]) -> None:
        if not exprs:
            raise WorkloadError("select() needs at least one column")
        self.child = child
        self.exprs = tuple(exprs)
        self.children = (child,)
        self._schema = tuple(e.label for e in self.exprs)
        _check_schema(self._schema, "Project")
        _check_references(self.exprs, child.schema())

    def passthrough(self) -> Dict[str, str]:
        """Output columns that are an untouched copy of a child column
        under the same name (the ones partitioning survives through)."""
        out = {}
        for expr in self.exprs:
            inner = expr.inner if isinstance(expr, AliasExpr) else expr
            if isinstance(inner, Col) and expr.label == inner.name:
                out[expr.label] = inner.name
        return out

    def partitioning(self) -> Optional[Tuple[str, ...]]:
        child_part = self.child.partitioning()
        if child_part is None:
            return None
        passthrough = self.passthrough()
        if all(c in passthrough for c in child_part):
            return child_part
        return None

    def with_children(self, children: Sequence[LogicalPlan]) -> "Project":
        return Project(children[0], self.exprs)

    def describe(self) -> str:
        return f"Project [{', '.join(_fmt_expr(e) for e in self.exprs)}]"


class Filter(LogicalPlan):
    """Row-wise predicate; schema and partitioning pass through."""

    def __init__(self, child: LogicalPlan, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate
        self.children = (child,)
        self._schema = child.schema()
        _check_references([predicate], child.schema())

    def partitioning(self) -> Optional[Tuple[str, ...]]:
        return self.child.partitioning()

    def with_children(self, children: Sequence[LogicalPlan]) -> "Filter":
        return Filter(children[0], self.predicate)

    def describe(self) -> str:
        return f"Filter {self.predicate!r}"


class Aggregate(LogicalPlan):
    """``group_by(keys).agg(aggs)`` — one shuffle, map-side combined."""

    def __init__(
        self,
        child: LogicalPlan,
        keys: Sequence[Expr],
        aggs: Sequence[Agg],
        num_partitions: Optional[int] = None,
    ) -> None:
        if len(keys) != 1:
            raise WorkloadError(f"group_by() takes one key, got {len(keys)}")
        if not aggs:
            raise WorkloadError("agg() needs at least one aggregate")
        self.child = child
        self.keys = tuple(keys)
        self.aggs = tuple(aggs)
        self.num_partitions = num_partitions
        self.children = (child,)
        self._schema = tuple(
            [k.label for k in self.keys] + [_agg_label(a) for a in self.aggs]
        )
        _check_schema(self._schema, "Aggregate")
        _check_references(
            list(self.keys) + [a.expr for a in self.aggs], child.schema()
        )

    def partitioning(self) -> Optional[Tuple[str, ...]]:
        return (self.keys[0].label,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Aggregate":
        return Aggregate(children[0], self.keys, self.aggs, self.num_partitions)

    def describe(self) -> str:
        keys = ", ".join(_fmt_expr(k) for k in self.keys)
        aggs = ", ".join(_fmt_agg(a) for a in self.aggs)
        suffix = f" P={self.num_partitions}" if self.num_partitions else ""
        return f"Aggregate [{keys}] aggs=[{aggs}]{suffix}"


class Join(LogicalPlan):
    """Inner equi-join on shared column names (cogroup underneath).

    Output schema: join keys, then the left's remaining columns, then the
    right's — any right column that would collide with an earlier output
    name keeps gaining ``_r`` suffixes until it is unique, and the
    ``right_renames`` map records ``output name -> right column`` so
    predicate pushdown can translate filters back to the right side.
    """

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        keys: Sequence[str],
        num_partitions: Optional[int] = None,
    ) -> None:
        self.left = left
        self.right = right
        self.keys = list(keys)
        self.num_partitions = num_partitions
        self.children = (left, right)
        if len(self.keys) != 1:
            raise WorkloadError(f"join() takes one key column, got {len(self.keys)}")
        for key in self.keys:
            if key not in left.schema() or key not in right.schema():
                raise WorkloadError(f"join key {key!r} missing from a side")
        _check_schema(self.keys, "Join keys")

        self.left_rest = [c for c in left.schema() if c not in self.keys]
        out: List[str] = list(self.keys) + self.left_rest
        self.right_renames: Dict[str, str] = {}
        self.right_out: List[str] = []
        for c in right.schema():
            if c in self.keys:
                continue
            name = c
            while name in out:
                name += "_r"
            if name != c:
                self.right_renames[name] = c
            self.right_out.append(name)
            out.append(name)
        self._schema = tuple(out)
        _check_schema(self._schema, "Join")

    def partitioning(self) -> Optional[Tuple[str, ...]]:
        return (self.keys[0],)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Join":
        return Join(children[0], children[1], self.keys, self.num_partitions)

    def describe(self) -> str:
        suffix = f" P={self.num_partitions}" if self.num_partitions else ""
        return f"Join on=[{', '.join(self.keys)}]{suffix}"


class Sort(LogicalPlan):
    """Total order by one expression (range shuffle underneath)."""

    def __init__(
        self,
        child: LogicalPlan,
        expr: Expr,
        num_partitions: Optional[int] = None,
    ) -> None:
        self.child = child
        self.expr = expr
        self.num_partitions = num_partitions
        self.children = (child,)
        self._schema = child.schema()
        _check_references([expr], child.schema())

    def with_children(self, children: Sequence[LogicalPlan]) -> "Sort":
        return Sort(children[0], self.expr, self.num_partitions)

    def describe(self) -> str:
        suffix = f" P={self.num_partitions}" if self.num_partitions else ""
        return f"Sort [{_fmt_expr(self.expr)}]{suffix}"


class Repartition(LogicalPlan):
    """Round-robin redistribution over ``n`` partitions."""

    def __init__(self, child: LogicalPlan, n: int) -> None:
        if n < 1:
            raise WorkloadError(f"repartition() needs n >= 1, got {n}")
        self.child = child
        self.n = n
        self.children = (child,)
        self._schema = child.schema()

    def with_children(self, children: Sequence[LogicalPlan]) -> "Repartition":
        return Repartition(children[0], self.n)

    def describe(self) -> str:
        return f"Repartition P={self.n}"


# ----------------------------------------------------------------------
# Tree utilities
# ----------------------------------------------------------------------


def transform_up(
    plan: LogicalPlan, fn: Callable[[LogicalPlan], Optional[LogicalPlan]]
) -> LogicalPlan:
    """Apply ``fn`` bottom-up, once per node; None means "unchanged"."""
    new_children = tuple(transform_up(c, fn) for c in plan.children)
    if any(nc is not oc for nc, oc in zip(new_children, plan.children)):
        plan = plan.with_children(new_children)
    out = fn(plan)
    return plan if out is None else out


def count_nodes(plan: LogicalPlan) -> int:
    return 1 + sum(count_nodes(c) for c in plan.children)


def render_plan(plan: LogicalPlan, indent: int = 0) -> str:
    """The indented tree ``Table.explain()`` prints."""
    lines = ["  " * indent + plan.describe()]
    for child in plan.children:
        lines.append(render_plan(child, indent + 1))
    return "\n".join(lines)
