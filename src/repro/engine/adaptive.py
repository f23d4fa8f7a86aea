"""Adaptive query execution: skew-aware re-planning of the reduce side.

CHOPPER's Algorithm 2 fixes the partitioner scheme and count *before*
the job runs, from the cost model's predicted stage sizes. This module
is the runtime complement: once a map stage has materialized, the exact
per-partition shuffle sizes are known, and the DAG scheduler may re-plan
the not-yet-launched reduce side before submitting it:

* **coalesce** — pack contiguous runs of small reduce partitions into one
  physical task targeting ``aqe_target_partition_bytes``, saving the
  per-task overhead and dispatch stagger that dominate tiny partitions;
* **split** — carve a hot reduce partition (> ``SKEW_THRESHOLD`` x
  the median) into sub-tasks that each fetch a contiguous *slice of the
  map outputs*; the driver concatenates the slices in map order, so the
  assembled partition is byte-identical to the unsplit one;
* **switch** — re-derive range-partition bounds for an *ordered* shuffle
  from the exact key histogram (replacing the sampled estimate) and
  re-bucket the already-written map outputs.

Everything here is a pure function of the measured size histogram and
the target partition size — given the same map outputs, a re-derived plan
is always identical, which is what keeps chaos-recovery runs and the
threads/procs execution modes bit-identical with AQE on.

Decision logic lives here (unit-testable on synthetic histograms), and so
does :func:`replan`, the one entry point the DAG scheduler calls before a
stage's first full launch. Nothing downstream knows about AQE: a plan is
a list of :class:`AdaptiveTaskSpec`, the same spec every task carries
(the static layout is one plain spec per split), and the task builder,
the executor body and the result filing are driven by the spec alone.
Map-range fetches live in ``shuffle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Sequence, Set, Tuple,
)

from repro.common.sizing import estimate_size, exact_sizes
from repro.engine.dependencies import OneToOneDependency, ShuffleDependency
from repro.engine.partitioner import RangePartitioner
from repro.engine.rdd import MapPartitionsRDD
from repro.engine.shuffle import MapOutput
from repro.engine.shuffled import ShuffledRDD
from repro.engine.stage import RESULT, Stage
from repro.obs.diagnostics import gini

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import AnalyticsContext

# A reduce partition is "hot" (split candidate, and grounds for
# re-deriving range bounds) when its measured size exceeds this multiple
# of the median non-empty partition.
SKEW_THRESHOLD = 4.0
# Upper bound on the slices a single hot partition is carved into.
MAX_SUBPARTITIONS = 16

__all__ = [
    "AdaptiveTaskSpec",
    "AdaptivePlan",
    "hot_partitions",
    "plan_partitions",
    "replan",
    "should_switch",
    "slice_map_ranges",
    "splittable_shuffle",
    "bucket_records",
]


@dataclass(frozen=True)
class AdaptiveTaskSpec:
    """What one *physical* reduce-side task covers.

    ``splits`` are the original partition indices the task computes (a
    coalesced task covers a contiguous run; a plain or slice task covers
    exactly one). ``map_range`` is set only for slice tasks: the
    half-open ``[lo, hi)`` range of map outputs this slice fetches for
    its single split, restricted on ``shuffle_id``.
    """

    splits: Tuple[int, ...]
    map_range: Optional[Tuple[int, int]] = None
    shuffle_id: Optional[int] = None
    slice_index: int = 0
    n_slices: int = 1

    @property
    def is_slice(self) -> bool:
        return self.map_range is not None


@dataclass
class AdaptivePlan:
    """A re-planned reduce side: physical task specs + decision record."""

    specs: List[AdaptiveTaskSpec]
    before_sizes: List[float]
    after_sizes: List[float]
    n_coalesced: int  # original partitions packed into multi-split tasks
    n_split: int  # original partitions carved into slices


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def hot_partitions(sizes: Sequence[float], *, target_bytes: float) -> Set[int]:
    """Partitions whose size flags them for splitting.

    The median is taken over *non-empty* partitions only: range
    partitioners routinely leave trailing empty buckets, and a zero
    median would make every non-empty partition look hot.
    """
    nonzero = [s for s in sizes if s > 0]
    if not nonzero:
        return set()
    med = _median(nonzero)
    return {
        i
        for i, s in enumerate(sizes)
        if s > SKEW_THRESHOLD * med and s > target_bytes
    }


def should_switch(sizes: Sequence[float]) -> bool:
    """Is the measured histogram skewed enough to re-derive range bounds?"""
    nonzero = [s for s in sizes if s > 0]
    if len(sizes) < 2 or len(nonzero) < 2:
        return False
    return max(nonzero) > SKEW_THRESHOLD * _median(nonzero)


def slice_map_ranges(
    per_map_bytes: Sequence[float], want: int
) -> List[Tuple[int, int]]:
    """Cut ``range(num_maps)`` into <= ``want`` contiguous byte-balanced slices.

    Deterministic greedy walk: a cut lands after byte prefix-sums cross
    the next equal-share boundary. Each slice holds >= 1 map output.
    """
    n_maps = len(per_map_bytes)
    total = float(sum(per_map_bytes))
    if n_maps == 0 or want <= 1 or total <= 0:
        return [(0, n_maps)]
    want = min(want, n_maps)
    share = total / want
    bounds: List[int] = []
    acc = 0.0
    for m in range(n_maps):
        acc += per_map_bytes[m]
        if (
            len(bounds) < want - 1
            and m < n_maps - 1
            and acc >= share * (len(bounds) + 1) - 1e-9
        ):
            bounds.append(m + 1)
    edges = [0] + bounds + [n_maps]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def plan_partitions(
    sizes: Sequence[float],
    *,
    target_bytes: float,
    shuffle_id: Optional[int] = None,
    map_sizes: Optional[Callable[[int], Sequence[float]]] = None,
) -> Optional[AdaptivePlan]:
    """Derive the physical task layout for one reduce side.

    ``map_sizes(reduce_id)`` returns the per-map byte histogram of a hot
    partition (only consulted when splitting is possible); pass ``None``
    when the consuming pipeline cannot be sliced (aggregating or sorting
    reducers fold across the whole partition, so a slice-wise fold would
    not be bit-identical).

    Returns ``None`` when the measured sizes ask for no change — every
    physical task would cover exactly one original partition unsliced.
    """
    n = len(sizes)
    if n < 2:
        return None
    hot = (
        hot_partitions(sizes, target_bytes=target_bytes)
        if map_sizes is not None
        else set()
    )
    specs: List[AdaptiveTaskSpec] = []
    after: List[float] = []
    n_coalesced = 0
    n_split = 0
    i = 0
    while i < n:
        if i in hot:
            per_map = list(map_sizes(i))  # type: ignore[misc]
            want = min(
                MAX_SUBPARTITIONS, max(2, math.ceil(sizes[i] / target_bytes))
            )
            ranges = slice_map_ranges(per_map, want)
            if len(ranges) > 1:
                n_split += 1
                for idx, (lo, hi) in enumerate(ranges):
                    specs.append(
                        AdaptiveTaskSpec(
                            splits=(i,),
                            map_range=(lo, hi),
                            shuffle_id=shuffle_id,
                            slice_index=idx,
                            n_slices=len(ranges),
                        )
                    )
                    after.append(float(sum(per_map[lo:hi])))
            else:
                specs.append(AdaptiveTaskSpec(splits=(i,)))
                after.append(float(sizes[i]))
            i += 1
            continue
        j = i
        acc = float(sizes[i])
        while (
            j + 1 < n
            and (j + 1) not in hot
            and acc + sizes[j + 1] <= target_bytes
        ):
            j += 1
            acc += float(sizes[j])
        if j > i:
            n_coalesced += j - i + 1
        specs.append(AdaptiveTaskSpec(splits=tuple(range(i, j + 1))))
        after.append(acc)
        i = j + 1
    if n_coalesced == 0 and n_split == 0:
        return None
    return AdaptivePlan(
        specs=specs,
        before_sizes=[float(s) for s in sizes],
        after_sizes=after,
        n_coalesced=n_coalesced,
        n_split=n_split,
    )


def splittable_shuffle(stage: Stage) -> Optional[ShuffleDependency]:
    """The shuffle dep whose hot partitions this stage may read in slices.

    A partition can only be computed as independently-fetched map-output
    slices when every step between the shuffle read and the stage output
    is *record-local* — then ``f(slice_a) ++ f(slice_b) == f(slice_a ++
    slice_b)`` and the driver-side concatenation (in map order) is
    byte-identical to the unsplit partition. That means:

    * a RESULT stage (a map stage re-buckets its output, which is never
      record-local), whose pipeline is a linear chain of
      ``MapPartitionsRDD`` steps each carrying a per-record ``RecordOp``,
    * rooted at an identity, unsorted ``ShuffledRDD`` (aggregate/group
      merge across the partition; a sort is global per partition),
    * with nothing cached along the chain (a cached slice would poison
      the block store with partial partitions).
    """
    if stage.kind != RESULT:
        return None
    node = stage.rdd
    while not isinstance(node, ShuffledRDD):
        if not isinstance(node, MapPartitionsRDD):
            return None
        if node._record_op is None or node._cached:
            return None
        if len(node.deps) != 1 or not isinstance(
            node.deps[0], OneToOneDependency
        ):
            return None
        node = node.deps[0].parent
    if node.mode != "identity" or node._sort or node._cached:
        return None
    dep = node.deps[0]
    if not isinstance(dep, ShuffleDependency):
        return None
    return dep


def bucket_records(
    records: List,
    partitioner,
    key_fn: Callable,
    write_scale: float,
) -> MapOutput:
    """Partition a map output's records into reduce buckets (AQE rebucket).

    The executor's bucketing kernel over a record list, with the two
    things re-bucketed outputs have always done differently: a bucket's
    payload is its summed ``estimate_size`` scaled *after* the fold, and
    the write total folds the buckets in reduce-id order.
    """
    if not records:
        return MapOutput(records, (), ())
    rids = partitioner.partition_many([key_fn(r) for r in records])
    output = MapOutput(records, rids, exact_sizes(records))
    output.payload *= write_scale
    output.order = None
    return output


def replan(
    ctx: "AnalyticsContext", stage: Stage, running: Iterable[Stage]
) -> Optional[AdaptivePlan]:
    """Derive a stage's adaptive plan from its measured shuffle inputs.

    Called on a stage's first full launch, once its parents have
    materialized; ``running`` are the job's running stages (the switch
    guard). Returns None when the stage has no materialized shuffle
    inputs or the sizes ask for no change.
    """
    deps = stage.incoming_shuffle_deps()
    if not deps:
        return None
    manager = ctx.shuffle_manager
    for dep in deps:
        if not manager.is_registered(dep.shuffle_id):
            return None
        if manager.missing_map_ids(dep.shuffle_id):
            # Degraded shuffle (a kill landed between map completion
            # and this launch): fall back to plain tasks and let the
            # normal fetch-failure recovery handle it.
            return None
        if dep.num_reduce_partitions != stage.num_tasks:
            # Union-style stages where reduce partitions don't map
            # 1:1 onto task indices; nothing to re-plan safely.
            return None

    # (c) switch first: re-deriving range bounds changes the size
    # histogram the coalesce/split decisions below are based on.
    for dep in deps:
        _try_switch(ctx, stage, dep, running)

    sizes = [0.0] * stage.num_tasks
    for dep in deps:
        for i, nbytes in enumerate(manager.partition_sizes(dep.shuffle_id)):
            sizes[i] += nbytes
    split_dep = splittable_shuffle(stage)
    plan = plan_partitions(
        sizes,
        target_bytes=ctx.conf.aqe_target_partition_bytes,
        shuffle_id=split_dep.shuffle_id if split_dep is not None else None,
        map_sizes=(
            (lambda rid: manager.block_sizes(split_dep.shuffle_id, rid))
            if split_dep is not None
            else None
        ),
    )
    if plan is None:
        return None
    ctx.obs.event(
        "stage_replanned",
        stage=stage.name,
        stage_id=stage.stage_id,
        original_partitions=stage.num_tasks,
        adapted_partitions=len(plan.specs),
        coalesced=plan.n_coalesced,
        split=plan.n_split,
        **_histograms(plan.before_sizes, plan.after_sizes),
    )
    return plan


def _histograms(before: Sequence[float], after: Sequence[float]) -> dict:
    """What a re-plan did to the partition sizes (shown on its span)."""
    return {
        "before": [round(b, 1) for b in before],
        "after": [round(a, 1) for a in after],
        "gini_before": round(gini(before), 4),
        "gini_after": round(gini(after), 4),
    }


def _try_switch(
    ctx: "AnalyticsContext",
    stage: Stage,
    dep: ShuffleDependency,
    running: Iterable[Stage],
) -> None:
    """Re-derive an ordered shuffle's range bounds from measured keys.

    The runtime upgrade of ``sortByKey``'s sampled split points: once
    the map outputs exist, the exact key histogram (with per-record
    virtual sizes as weights) gives byte-balanced bounds, and the
    already-written blocks are re-bucketed under them via the
    vectorized partition kernels.

    Restricted to ordered, non-user-fixed shuffles: the consuming
    reduce stable-sorts by key, and equal keys always share one old
    bucket, so re-bucketing preserves their relative order and the
    reduce output is identical record-for-record — which is exactly
    why an *unordered* hash shuffle is never switched (its consumers
    observe raw bucket order). Skipped under speculation (an in-
    flight duplicate map attempt could later overwrite a re-bucketed
    output with old-partitioner blocks) and while any *running*
    stage reads the shuffle (its earlier tasks fetched the old
    buckets). Idempotent: re-deriving from re-bucketed blocks yields
    the same bounds and equality short-circuits the rewrite.
    """
    manager = ctx.shuffle_manager
    if not dep.ordered or dep.user_fixed or ctx.conf.speculation:
        return
    for other in list(running):
        if other.stage_id != stage.stage_id and any(
            d.shuffle_id == dep.shuffle_id for d in other.incoming_shuffle_deps()
        ):
            return
    before = manager.partition_sizes(dep.shuffle_id)
    if not should_switch(before):
        return
    contents = manager.map_contents(dep.shuffle_id)
    keys: List[Any] = []
    weights: List[float] = []
    for map_id in sorted(contents):
        for record in contents[map_id][1]:
            keys.append(dep.key_fn(record))
            weights.append(estimate_size(record))
    new = RangePartitioner.from_weighted_keys(
        keys, weights, dep.partitioner.num_partitions
    )
    if new == dep.partitioner:
        return
    old_kind = dep.partitioner.kind
    write_scale = dep.parent.size_scale
    for map_id in sorted(contents):
        node, records = contents[map_id]
        output = bucket_records(records, new, dep.key_fn, write_scale)
        manager.put_map_output(dep.shuffle_id, map_id, node, output)
    # Future producers (chaos-resubmitted map tasks) bucket straight
    # into the new space; consumers align against the real scheme.
    dep.partitioner = new
    ctx.obs.event(
        "shuffle_switched",
        stage=stage.name,
        shuffle=dep.shuffle_id,
        from_kind=old_kind,
        to_kind=new.kind,
        **_histograms(before, manager.partition_sizes(dep.shuffle_id)),
    )
