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

Decision logic lives here (unit-testable on synthetic histograms); the
mechanics (map-range fetches, rebucketting, slice assembly) live in
``shuffle.py`` / ``executor.py`` / ``dag_scheduler.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common.sizing import estimate_size, sizes_array
from repro.engine.dependencies import OneToOneDependency, ShuffleDependency
from repro.engine.shuffle import MapOutput
from repro.engine.stage import RESULT, Stage

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

    @property
    def is_plain(self) -> bool:
        return len(self.splits) == 1 and self.map_range is None


@dataclass
class AdaptivePlan:
    """A re-planned reduce side: physical task specs + decision record."""

    specs: List[AdaptiveTaskSpec]
    before_sizes: List[float]
    after_sizes: List[float]
    n_coalesced: int  # original partitions packed into multi-split tasks
    n_split: int  # original partitions carved into slices
    shuffle_ids: Tuple[int, ...] = ()


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
        shuffle_ids=(shuffle_id,) if shuffle_id is not None else (),
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
    from repro.engine.rdd import MapPartitionsRDD
    from repro.engine.shuffled import ShuffledRDD

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
    sizes = sizes_array(records)
    if sizes is None:
        sizes = np.array([estimate_size(r) for r in records], dtype=np.float64)
    output = MapOutput(records, rids, sizes)
    output.payload *= write_scale
    output.order = None
    return output
