"""RDD dependencies: narrow vs shuffle.

Narrow dependencies (map, filter, union) let a child partition
be computed from a bounded set of parent partitions on one machine, so
chains of them fuse into a single stage. Shuffle (wide) dependencies
(reduceByKey, join, sortByKey) need an all-to-all exchange and therefore
cut stage boundaries — exactly the rule the paper's Fig. 1 describes for
Spark's DAGScheduler.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.engine.partitioner import Partitioner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.rdd import RDD

_shuffle_ids = itertools.count()


def reset_shuffle_ids() -> None:
    """Restart shuffle-id numbering from 0.

    Called by every new :class:`~repro.engine.context.AnalyticsContext`,
    so a run's shuffle ids depend only on its own DAG — not on how many
    contexts the process built earlier. That keeps telemetry that embeds
    shuffle ids (log records, ledger chaos/AQE events) byte-identical
    between a serial sweep and pool workers, which fork mid-sweep with
    the counter at an arbitrary position. Ids are only ever used as keys
    in per-context tables, so cross-context uniqueness is not needed.
    """
    global _shuffle_ids
    _shuffle_ids = itertools.count()


def default_key_fn(record):
    """Default shuffle key: ``record[0]``.

    A named function (not a per-instance lambda) so the executor's
    vectorized kernels can recognize the default by identity and extract
    keys with a subscript instead of a per-record Python call.
    """
    return record[0]


class Dependency:
    """Base dependency on a parent RDD."""

    def __init__(self, parent: "RDD") -> None:
        self.parent = parent


class NarrowDependency(Dependency):
    """A child partition depends on a bounded list of parent partitions."""

    def parent_partitions(self, split: int) -> List[int]:
        """Parent partition indices needed to compute child ``split``."""
        raise NotImplementedError


class OneToOneDependency(NarrowDependency):
    """Child partition *i* depends exactly on parent partition *i*."""

    def parent_partitions(self, split: int) -> List[int]:
        return [split]


class RangeNarrowDependency(NarrowDependency):
    """Child partition *i* maps to parent partition ``i + offset`` (union)."""

    def __init__(self, parent: "RDD", offset: int, length: int) -> None:
        super().__init__(parent)
        self.offset = offset
        self.length = length

    def parent_partitions(self, split: int) -> List[int]:
        local = split - self.offset
        if 0 <= local < self.length:
            return [local]
        return []


class SubsetDependency(NarrowDependency):
    """Child partition *i* maps to a chosen parent partition ``kept[i]``.

    The narrow dependency behind partition pruning: a pruned scan keeps
    only the parent partitions a filter can possibly match, so the
    skipped ones never appear in any task's lineage and never schedule.
    """

    def __init__(self, parent: "RDD", kept) -> None:
        super().__init__(parent)
        self.kept = tuple(kept)

    def parent_partitions(self, split: int) -> List[int]:
        return [self.kept[split]]


class Aggregator:
    """Combine functions for an aggregating shuffle (Spark's Aggregator).

    ``create_combiner(v)`` starts a combiner from the first value of a
    key; ``merge_value(c, v)`` folds another value in (map side);
    ``merge_combiners(c1, c2)`` merges partial combiners (reduce side).

    ``numeric_add`` declares that the aggregation is exactly
    ``reduceByKey(lambda a, b: a + b)`` — create is identity, both merges
    are elementwise ``+`` — over values that are scalar numbers,
    fixed-shape numeric arrays, or flat tuples of those. That is a
    promise, not an inference: callers opt in, and the executor may then
    fold a map partition's values per key with a vectorized kernel. The
    kernel replays the same left fold in record-arrival order (falling
    back to the scalar loop on anything it cannot fold exactly), so
    results stay bit-identical to the scalar loop.
    """

    def __init__(
        self,
        create_combiner: Callable,
        merge_value: Callable,
        merge_combiners: Callable,
        numeric_add: bool = False,
    ) -> None:
        self.create_combiner = create_combiner
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners
        self.numeric_add = numeric_add


class ShuffleDependency(Dependency):
    """An all-to-all exchange of the parent's key-value records.

    Attributes:
        partitioner: decides the reduce-side partition of each key. This is
            the single mutable knob CHOPPER's dynamic configuration turns:
            the DAGScheduler may replace it (count and/or kind) any time
            before the map stage that writes this shuffle is launched.
        map_side_combine: fold values per key within each map partition
            before writing shuffle blocks (``reduceByKey`` semantics);
            this is why shuffle volume grows with the *map* partition
            count for aggregations (the paper's Fig. 4).
        aggregator: the combine functions, when the shuffle aggregates.
        key_fn: extracts the shuffle key from a record (default: ``r[0]``).
        user_fixed: the user passed an explicit partitioner/parallelism to
            the operation, so CHOPPER must leave the scheme intact unless
            inserting an extra repartition phase pays off by the paper's
            factor gamma (§III-C).
        pending_scheme: a CHOPPER ``SchemeRef`` attached by the config
            rewrite pass; the DAGScheduler resolves it into a concrete
            partitioner right before the writing map stage launches
            (range partitioners need to sample real keys at that point).
    """

    def __init__(
        self,
        parent: "RDD",
        partitioner: Partitioner,
        map_side_combine: bool = False,
        aggregator: Optional[Aggregator] = None,
        key_fn: Optional[Callable] = None,
        user_fixed: bool = False,
        ordered: bool = False,
    ) -> None:
        super().__init__(parent)
        self.partitioner = partitioner
        self.map_side_combine = map_side_combine
        self.aggregator = aggregator
        self.key_fn = key_fn or default_key_fn
        self.user_fixed = user_fixed
        # Ordered shuffles (sortByKey) rely on a range partitioner for the
        # global sort order; advisors may retune the count but never the
        # partitioner kind.
        self.ordered = ordered
        self.shuffle_id = next(_shuffle_ids)
        self.pending_scheme: Optional[object] = None

    @property
    def num_reduce_partitions(self) -> int:
        return self.partitioner.num_partitions
