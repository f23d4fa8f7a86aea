"""Rewrite rules for logical plans, run in batches to fixed point.

Shape follows the classic rule-runner design: each :class:`Rule` is a
pure plan→plan transform, a :class:`RuleBatch` groups rules that feed
each other and re-runs them until a pass makes no change (bounded by
``max_passes``), and the :class:`RuleRunner` executes the batches in
order, counting per-rule hits for the run ledger.

Rewrites and their equivalence guarantees:

* **PushDownPredicates** — filters move below projects (substituting the
  project's expressions into the predicate), below sorts, into the
  grouping side of aggregates when they touch only bare-column keys, and
  into join sides via ``Expr.references()`` (both sides for key-only
  predicates). All of these preserve row values *and* row order.
* **PruneColumns** — narrows projections to the columns actually
  consumed above and inserts keep-projects on join inputs so unused
  columns never cross the shuffle. Row order preserved.
* **FoldProjections** — merges ``Project(Project(x))`` by substitution
  and drops identity projects. Row order preserved.
* **DropRepartition / CollapseSorts** — a ``Repartition`` feeding a
  shuffle consumer (aggregate, join side, sort, another repartition) is
  pure cost and is elided; back-to-back sorts on the same expression
  collapse to the inner one. These preserve the collected multiset; row
  order *at partition granularity* may change, so workloads that demand
  byte-stable output should end in a sort (the shipped ones do).
* **PushDownLimit** — ``Limit`` moves below projects and merges with
  adjacent limits, so ``take``/``limit`` stops materializing full
  partitions above the truncation point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.relational.expr import AliasExpr, Col, Expr
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
    count_nodes,
    transform_up,
)
from repro.relational.stats import can_match


class Rule:
    """One rewrite; subclass and implement :meth:`apply` (node-local)
    or override :meth:`rewrite` (whole-plan, e.g. column pruning)."""

    name = "Rule"

    def apply(self, node: LogicalPlan) -> Optional[LogicalPlan]:
        return None

    def rewrite(self, plan: LogicalPlan) -> Tuple[LogicalPlan, int]:
        hits = 0

        def fn(node: LogicalPlan) -> Optional[LogicalPlan]:
            nonlocal hits
            out = self.apply(node)
            if out is not None:
                hits += 1
            return out

        return transform_up(plan, fn), hits


@dataclass
class RuleBatch:
    """Rules applied together, re-run until a pass changes nothing."""

    name: str
    rules: List[Rule]
    max_passes: int = 1


@dataclass
class OptimizationStats:
    """What one ``RuleRunner.optimize`` call did, for the ledger."""

    rule_hits: Dict[str, int] = field(default_factory=dict)
    batch_passes: Dict[str, int] = field(default_factory=dict)
    nodes_before: int = 0
    nodes_after: int = 0

    @property
    def total_hits(self) -> int:
        return sum(self.rule_hits.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule_hits": dict(self.rule_hits),
            "batch_passes": dict(self.batch_passes),
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
        }


class RuleRunner:
    """Run rule batches over a plan; returns (plan, stats)."""

    def __init__(self, batches: List[RuleBatch]) -> None:
        self.batches = batches

    def optimize(self, plan: LogicalPlan) -> Tuple[LogicalPlan, OptimizationStats]:
        stats = OptimizationStats(nodes_before=count_nodes(plan))
        for batch in self.batches:
            passes = 0
            for _ in range(batch.max_passes):
                passes += 1
                changed = 0
                for rule in batch.rules:
                    plan, hits = rule.rewrite(plan)
                    if hits:
                        stats.rule_hits[rule.name] = (
                            stats.rule_hits.get(rule.name, 0) + hits
                        )
                    changed += hits
                if changed == 0:
                    break
            stats.batch_passes[batch.name] = passes
        stats.nodes_after = count_nodes(plan)
        return plan, stats


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------


def _strip_alias(expr: Expr) -> Expr:
    return expr.inner if isinstance(expr, AliasExpr) else expr


def _project_mapping(project: Project) -> Dict[str, Expr]:
    """Output label -> the expression that computes it."""
    return {
        label: _strip_alias(expr)
        for label, expr in zip(project.schema(), project.exprs)
    }


class PushDownPredicates(Rule):
    name = "PushDownPredicates"

    def apply(self, node: LogicalPlan) -> Optional[LogicalPlan]:
        if not isinstance(node, Filter):
            return None
        child = node.child
        pred = node.predicate
        if isinstance(child, Project):
            pushed = pred.substitute(_project_mapping(child))
            return Project(Filter(child.child, pushed), child.exprs)
        if isinstance(child, Sort):
            # Equal sort keys share a range partition and the sort is
            # stable, so filtering first leaves survivor order intact.
            return Sort(Filter(child.child, pred), child.expr,
                        child.num_partitions)
        if isinstance(child, Aggregate):
            key_cols = {
                k.name for k in child.keys if isinstance(k, Col)
            }
            if pred.references() <= key_cols:
                return Aggregate(
                    Filter(child.child, pred), child.keys, child.aggs,
                    child.num_partitions,
                )
            return None
        if isinstance(child, Join):
            return self._push_into_join(child, pred)
        return None

    @staticmethod
    def _push_into_join(join: Join, pred: Expr) -> Optional[LogicalPlan]:
        refs = pred.references()
        keys = set(join.keys)
        left_avail = keys | set(join.left_rest)
        right_avail = keys | set(join.right_out)
        right_sub = {
            out: Col(src) for out, src in join.right_renames.items()
        }
        if refs <= keys:
            # Key-only predicates filter both build and probe sides.
            return Join(
                Filter(join.left, pred), Filter(join.right, pred),
                join.keys, join.num_partitions,
            )
        if refs <= left_avail:
            return Join(
                Filter(join.left, pred), join.right,
                join.keys, join.num_partitions,
            )
        if refs <= right_avail:
            pushed = pred.substitute(right_sub)
            return Join(
                join.left, Filter(join.right, pushed),
                join.keys, join.num_partitions,
            )
        return None


class FoldProjections(Rule):
    name = "FoldProjections"

    def apply(self, node: LogicalPlan) -> Optional[LogicalPlan]:
        if not isinstance(node, Project):
            return None
        if isinstance(node.child, Project):
            mapping = _project_mapping(node.child)
            merged = []
            for expr in node.exprs:
                folded = expr.substitute(mapping)
                if folded.label != expr.label:
                    folded = folded.alias(expr.label)
                merged.append(folded)
            return Project(node.child.child, merged)
        child_schema = node.child.schema()
        if len(node.exprs) == len(child_schema) and all(
            isinstance(e, Col) and e.name == c
            for e, c in zip(node.exprs, child_schema)
        ):
            return node.child
        return None


class DropRepartition(Rule):
    name = "DropRepartition"

    def apply(self, node: LogicalPlan) -> Optional[LogicalPlan]:
        if isinstance(node, Repartition) and isinstance(node.child, Repartition):
            return Repartition(node.child.child, node.n)
        if isinstance(node, (Aggregate, Sort)) and isinstance(
            node.children[0], Repartition
        ):
            # The consumer shuffles anyway; the round-robin exchange in
            # between is pure cost.
            return node.with_children((node.children[0].child,))
        if isinstance(node, Join):
            left, right = node.left, node.right
            if isinstance(left, Repartition):
                left = left.child
            if isinstance(right, Repartition):
                right = right.child
            if left is not node.left or right is not node.right:
                return Join(left, right, node.keys, node.num_partitions)
        return None


class CollapseSorts(Rule):
    name = "CollapseSorts"

    def apply(self, node: LogicalPlan) -> Optional[LogicalPlan]:
        if (
            isinstance(node, Sort)
            and isinstance(node.child, Sort)
            and node.expr.same_as(node.child.expr)
            and node.num_partitions in (None, node.child.num_partitions)
        ):
            # Keep the inner sort: a stable re-sort of sorted input is
            # the identity, so dropping the outer one is bit-exact.
            return node.child
        return None


class PushDownLimit(Rule):
    name = "PushDownLimit"

    def apply(self, node: LogicalPlan) -> Optional[LogicalPlan]:
        if not isinstance(node, Limit):
            return None
        child = node.child
        if isinstance(child, Limit):
            return Limit(child.child, min(node.n, child.n))
        if isinstance(child, Project):
            return Project(Limit(child.child, node.n), child.exprs)
        return None


class PruneColumns(Rule):
    """Top-down required-column pass.

    Narrows every ``Project`` to the columns its consumers actually read
    and wraps join inputs in keep-projects so unused columns never enter
    the cogroup shuffle. The root's full schema is always required, so
    the query's output is untouched.
    """

    name = "PruneColumns"

    def rewrite(self, plan: LogicalPlan) -> Tuple[LogicalPlan, int]:
        self._hits = 0
        out = self._walk(plan, set(plan.schema()))
        return out, self._hits

    def _walk(self, node: LogicalPlan, required: Set[str]) -> LogicalPlan:
        if isinstance(node, Scan):
            return node
        if isinstance(node, Project):
            keep = [e for e in node.exprs if e.label in required]
            if not keep:
                keep = [node.exprs[0]]
            child_req: Set[str] = set()
            for e in keep:
                child_req |= e.references()
            child = self._walk(node.child, child_req)
            if child is node.child and len(keep) == len(node.exprs):
                return node
            if len(keep) != len(node.exprs):
                self._hits += 1
            return Project(child, keep)
        if isinstance(node, Filter):
            child = self._walk(
                node.child, required | node.predicate.references()
            )
            return node if child is node.child else Filter(child, node.predicate)
        if isinstance(node, Sort):
            child = self._walk(node.child, required | node.expr.references())
            if child is node.child:
                return node
            return Sort(child, node.expr, node.num_partitions)
        if isinstance(node, (Limit, Repartition)):
            child = self._walk(node.children[0], required)
            return node if child is node.children[0] else node.with_children((child,))
        if isinstance(node, Aggregate):
            child_req: Set[str] = set()
            for k in node.keys:
                child_req |= k.references()
            for a in node.aggs:
                child_req |= a.expr.references()
            child = self._walk(node.child, child_req)
            if child is node.child:
                return node
            return Aggregate(child, node.keys, node.aggs, node.num_partitions)
        if isinstance(node, Join):
            return self._prune_join(node, required)
        return node

    def _prune_join(self, join: Join, required: Set[str]) -> LogicalPlan:
        keys = set(join.keys)
        left_req = keys | {
            c for c in join.left_rest if c in required
        }
        right_req = keys | {
            join.right_renames.get(c, c)
            for c in join.right_out
            if c in required
        }
        left = self._narrow(self._walk(join.left, left_req), left_req)
        right = self._narrow(self._walk(join.right, right_req), right_req)
        if left is join.left and right is join.right:
            return join
        rebuilt = Join(left, right, join.keys, join.num_partitions)
        # Narrowing a side can change the right-column rename outcome
        # (e.g. dropping a left `c` un-suffixes the right's `c_r`). If
        # a consumer's name would break, keep the original join.
        if not required <= set(rebuilt.schema()):
            return join
        return rebuilt

    def _narrow(self, side: LogicalPlan, req: Set[str]) -> LogicalPlan:
        if set(side.schema()) <= req:
            return side
        self._hits += 1
        exprs = [Col(c) for c in side.schema() if c in req]
        return Project(side, exprs)


class PrunePartitions(Rule):
    """Rewrite ``Filter``-over-``Scan`` into a partition-subset scan.

    Runs last (the plan is otherwise final) and consults two sources:

    1. the scan's declared :class:`~repro.relational.stats.RangeLayout`
       (static — prunes even a cold run of a range-partitioned table;
       a hash layout declares nothing and prunes nothing, CHOPPER's
       read-path trade-off in one rule);
    2. the zone maps of the scanned table version in ``ctx.zone_maps``:
       collected by an earlier scan in this context, or loaded from the
       context's cache file (a later process prunes from an earlier
       one's scans).

    Both sources are conservative supersets of the true matching set,
    so intersecting them never changes results. The rewrite bakes the
    subset into the lineage at plan time — chaos resubmission and AQE
    re-planning re-derive the identical scan.

    ``dry_run`` (what ``Table.explain`` uses) derives the identical
    rewrite but as a pure observer: no counter increments, no log
    events, and the cache file's maps are loaded without counting a hit
    or a miss — so explaining a query never double-counts the health
    line.
    """

    name = "PrunePartitions"

    def __init__(self, ctx, dry_run: bool = False) -> None:
        self.ctx = ctx
        self.dry_run = dry_run

    def rewrite(self, plan: LogicalPlan) -> Tuple[LogicalPlan, int]:
        self._hits = 0
        out = transform_up(plan, self._apply_filter)
        return out, self._hits

    def _apply_filter(self, node: LogicalPlan) -> Optional[LogicalPlan]:
        if not isinstance(node, Filter):
            return None
        # Walk through intervening Projects (PruneColumns inserts them),
        # translating the predicate down to scan-level columns.
        chain: List[Project] = []
        pred = node.predicate
        child = node.child
        while isinstance(child, Project):
            pred = pred.substitute(_project_mapping(child))
            chain.append(child)
            child = child.child
        if not isinstance(child, Scan) or child.partitions is not None:
            return None
        scan = child
        rdd = scan.rdd
        n = rdd.num_partitions
        table = getattr(rdd, "op_name", None)
        version = getattr(rdd, "dataset_version", None)
        ctx = self.ctx
        kept = set(range(n))
        evidence: List[str] = []
        if scan.layout is not None:
            layout_kept = scan.layout.kept_partitions(pred, n)
            if len(layout_kept) < n:
                evidence.append("range-layout")
            kept &= layout_kept
        if table is not None and version is not None:
            cache = getattr(ctx, "query_cache", None)
            if cache is not None and self.dry_run:
                cache.load((table, version, n))
            elif cache is not None:
                cache.lookup(table, version, n)
            maps = ctx.zone_maps.get((table, version, n))
            if maps:
                zone_kept = {
                    s for s in range(n)
                    if s not in maps or can_match(pred, maps[s])
                }
                if len(zone_kept) < n:
                    evidence.append("zone-map")
                kept &= zone_kept
        if len(kept) == n:
            return None
        if not kept:
            # The evidence proves no partition can match; still scan one
            # so the lowered stage has a task (the filter then yields
            # zero rows, which is exactly the right answer).
            kept = {0}
            if len(kept) == n:
                return None
        pruned = n - len(kept)
        self._hits += 1
        if not self.dry_run:
            ctx.obs.event(
                "partitions_pruned",
                table=table or "rdd", total=n, scanned=len(kept),
                pruned=pruned, via=",".join(evidence),
            )
        rebuilt: LogicalPlan = Scan(
            rdd, scan.schema(), partitions=tuple(sorted(kept)),
            pruned_by=tuple(evidence), layout=scan.layout,
        )
        for project in reversed(chain):
            rebuilt = project.with_children((rebuilt,))
        return Filter(rebuilt, node.predicate)


def default_rule_runner(ctx=None, dry_run: bool = False) -> RuleRunner:
    """The standard batches ``Table`` runs before lowering.

    With a context, a final partition-pruning batch runs unless the
    context disables pruning — ``partition_pruning=False`` turns off
    *all* partition-subset rewriting, so a cache file configured
    alongside it is neither read nor written (inert, not merely
    weakened). Without a context (direct callers, unit tests) the
    classic two batches apply unchanged. ``dry_run`` makes the pruning
    batch side-effect-free (``Table.explain``'s mode — see
    :class:`PrunePartitions`).
    """
    batches = [
        RuleBatch(
            "pushdowns",
            [
                PushDownPredicates(),
                FoldProjections(),
                PushDownLimit(),
                DropRepartition(),
                CollapseSorts(),
            ],
            max_passes=10,
        ),
        RuleBatch(
            "pruning",
            [PruneColumns(), FoldProjections()],
            max_passes=4,
        ),
    ]
    if ctx is not None and ctx.conf.partition_pruning:
        batches.append(
            RuleBatch(
                "partition-pruning",
                [PrunePartitions(ctx, dry_run=dry_run)],
                max_passes=1,
            )
        )
    return RuleRunner(batches)
