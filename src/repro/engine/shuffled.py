"""Shuffle-consuming RDDs: ShuffledRDD and CogroupRDD.

These sit at the *base* of a stage (a shuffle boundary) — unless their
parent is already partitioned by an equal partitioner, in which case the
dependency is narrow and the would-be shuffle disappears, fusing the
aggregation into the consumer's stage. That fusion is both vanilla Spark
behaviour and the lever CHOPPER's Algorithm 3 pulls when it aligns the
schemes of join/co-group parents (§III-C).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.engine.batch import RecordBatch, as_record_list
from repro.engine.combine import combine_numeric_add, fold_batch
from repro.engine.dependencies import (
    Aggregator,
    Dependency,
    OneToOneDependency,
    ShuffleDependency,
)
from repro.engine.partitioner import Partitioner
from repro.engine.rdd import RDD
from repro.engine.task import TaskContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import AnalyticsContext

_MODES = ("aggregate", "group", "identity")


class ShuffledRDD(RDD):
    """Result of a single-parent shuffle (reduceByKey, partitionBy, sort).

    Modes:
        ``aggregate`` — merge values per key with an :class:`Aggregator`
        (optionally combined map-side, which is what makes shuffle volume
        grow with the map partition count, the paper's Fig. 4);
        ``group`` — collect values per key into lists (groupByKey);
        ``identity`` — pass records through (partitionBy / repartition /
        sortByKey), optionally sorting each partition by key.
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        mode: str,
        aggregator: Optional[Aggregator] = None,
        map_side_combine: bool = False,
        sort: bool = False,
        op_name: str = "shuffled",
        key_fn: Optional[Callable] = None,
        user_fixed: bool = False,
    ) -> None:
        if mode not in _MODES:
            raise ConfigurationError(f"unknown shuffle mode {mode!r}")
        if mode == "aggregate" and aggregator is None:
            raise ConfigurationError("aggregate mode requires an aggregator")
        # The shuffle dependency always exists; when the parent is already
        # co-partitioned the *active* dep is narrow and the shuffle dep is
        # shadowed. Alignment is reversible (reset_alignment) so a CHOPPER
        # rewrite can retune upstream partitioners without leaving a stale
        # narrow dep behind.
        self._shadow = ShuffleDependency(
            parent,
            partitioner,
            map_side_combine=(mode == "aggregate" and map_side_combine),
            aggregator=aggregator,
            key_fn=key_fn,
            user_fixed=user_fixed,
            ordered=sort,
        )
        dep: Dependency = self._shadow
        if parent.partitioner is not None and parent.partitioner == partitioner:
            dep = OneToOneDependency(parent)
        super().__init__(parent.ctx, [dep], op_name)
        self._partitioner = partitioner
        self.mode = mode
        self.aggregator = aggregator
        self._sort = sort

    @property
    def num_partitions(self) -> int:
        dep = self.deps[0]
        if isinstance(dep, ShuffleDependency):
            return dep.partitioner.num_partitions
        return dep.parent.num_partitions

    @property
    def partitioner(self) -> Optional[Partitioner]:
        dep = self.deps[0]
        if isinstance(dep, ShuffleDependency):
            return dep.partitioner
        return self._partitioner

    @property
    def size_scale(self) -> float:
        # Aggregated output is physically true-sized (a handful of keys);
        # grouped/pass-through output still represents scaled raw records.
        if self.mode == "aggregate":
            return 1.0
        return self.deps[0].parent.size_scale

    def reset_alignment(self) -> None:
        """Restore the shadowed shuffle dependency (pre-rewrite state).

        The shadow keeps its shuffle id, so a shuffle completed in an
        earlier job is still recognized after a reset/re-align cycle.
        """
        if not isinstance(self.deps[0], ShuffleDependency):
            self.deps[0] = self._shadow
            self._signature = None

    def align_to_parent(self) -> bool:
        """Convert the shuffle dep to narrow if the parent is co-partitioned.

        Called by the CHOPPER rewrite pass after it mutates upstream
        partitioners. Returns True if the conversion happened.
        """
        dep = self.deps[0]
        if not isinstance(dep, ShuffleDependency):
            return True
        parent = dep.parent
        if parent.partitioner is not None and parent.partitioner == dep.partitioner:
            self._partitioner = dep.partitioner
            self.deps[0] = OneToOneDependency(parent)
            self._signature = None
            return True
        return False

    def compute(self, split: int, task: TaskContext) -> List:
        dep = self.deps[0]
        if isinstance(dep, ShuffleDependency):
            records, stats = self.ctx.shuffle_manager.fetch(
                dep.shuffle_id, split, task.node
            )
            task.note_shuffle_read(
                stats.local_bytes, stats.remote_bytes_by_src, stats.n_blocks
            )
            task.note_input_hint(self.id, stats.total_bytes)
            incoming_combined = dep.map_side_combine
        else:
            records = dep.parent.materialize(split, task)
            incoming_combined = False

        if self.mode == "aggregate":
            out = self._merge(records, incoming_combined)
        elif self.mode == "group":
            groups: Dict[Any, List] = {}
            for k, v in as_record_list(records):
                groups.setdefault(k, []).append(v)
            out = list(groups.items())
        else:
            # to_records/list both produce a fresh list: fetch may have
            # returned a shared block container that must not be mutated
            # (the sort below happens on the copy).
            if isinstance(records, RecordBatch):
                out = records.to_records()
            else:
                out = list(records)
        if self._sort:
            out.sort(key=lambda r: r[0])
        return out

    def _merge(self, records, incoming_combined: bool) -> List:
        assert self.aggregator is not None
        agg = self.aggregator
        if len(records) and agg.numeric_add:
            # Both branches below are per-key left folds with elementwise
            # ``+`` (numeric_add's promise covers merge_value AND
            # merge_combiners), so the vectorized kernel applies to the
            # reduce side too; None means fold the scalar way. Columnar
            # blocks fold directly on their value columns.
            if isinstance(records, RecordBatch):
                folded = fold_batch(records)
                if folded is not None:
                    return folded.to_records()
            else:
                combined = combine_numeric_add(None, records)
                if combined is not None:
                    return list(combined.items())
        records = as_record_list(records)
        merged: Dict[Any, Any] = {}
        if incoming_combined:
            for k, c in records:
                if k in merged:
                    merged[k] = agg.merge_combiners(merged[k], c)
                else:
                    merged[k] = c
        else:
            for k, v in records:
                if k in merged:
                    merged[k] = agg.merge_value(merged[k], v)
                else:
                    merged[k] = agg.create_combiner(v)
        return list(merged.items())


class CogroupRDD(RDD):
    """Group several keyed RDDs by key: records are ``(k, (list, ...))``.

    Each parent contributes either a narrow dependency (already
    partitioned compatibly) or a shuffle dependency. ``join`` is a
    flat-map over this.
    """

    def __init__(
        self,
        ctx: "AnalyticsContext",
        parents: List[RDD],
        partitioner: Partitioner,
        user_fixed: bool = False,
    ) -> None:
        if len(parents) < 2:
            raise ConfigurationError("cogroup needs at least two parents")
        self._shadows: List[ShuffleDependency] = [
            ShuffleDependency(parent, partitioner, user_fixed=user_fixed)
            for parent in parents
        ]
        deps: List[Dependency] = []
        for parent, shadow in zip(parents, self._shadows):
            if parent.partitioner is not None and parent.partitioner == partitioner:
                deps.append(OneToOneDependency(parent))
            else:
                deps.append(shadow)
        super().__init__(ctx, deps, "cogroup")
        self._partitioner = partitioner

    @property
    def num_partitions(self) -> int:
        return self.effective_partitioner.num_partitions

    @property
    def partitioner(self) -> Optional[Partitioner]:
        return self.effective_partitioner

    @property
    def effective_partitioner(self) -> Partitioner:
        """The partitioner governing this cogroup's output partitions.

        Tracks the first shuffle dependency dynamically so a CHOPPER
        rewrite that mutates (or lazily resolves) the dep's partitioner is
        reflected here without extra bookkeeping; a fully-aligned cogroup
        (all deps narrow) falls back to the stored target.
        """
        for dep in self.deps:
            if isinstance(dep, ShuffleDependency):
                return dep.partitioner
        return self._partitioner

    @property
    def size_scale(self) -> float:
        return max(dep.parent.size_scale for dep in self.deps)

    def reset_alignment(self) -> None:
        """Restore every shadowed shuffle dependency (pre-rewrite state)."""
        changed = False
        for i, dep in enumerate(self.deps):
            if not isinstance(dep, ShuffleDependency):
                self.deps[i] = self._shadows[i]
                changed = True
        if changed:
            self._signature = None

    def align_deps(self) -> int:
        """Convert shuffle deps whose parents became co-partitioned.

        Returns the number of dependencies converted to narrow.
        """
        converted = 0
        for i, dep in enumerate(self.deps):
            if not isinstance(dep, ShuffleDependency):
                continue
            parent = dep.parent
            if parent.partitioner is not None and parent.partitioner == dep.partitioner:
                self._partitioner = dep.partitioner
                self.deps[i] = OneToOneDependency(parent)
                self._signature = None
                converted += 1
        return converted

    def compute(self, split: int, task: TaskContext) -> List:
        n_sides = len(self.deps)
        buckets: Dict[Any, List[List]] = {}
        for side, dep in enumerate(self.deps):
            if isinstance(dep, ShuffleDependency):
                records, stats = self.ctx.shuffle_manager.fetch(
                    dep.shuffle_id, split, task.node
                )
                task.note_shuffle_read(
                    stats.local_bytes, stats.remote_bytes_by_src, stats.n_blocks
                )
                task.note_input_hint(self.id, stats.total_bytes)
            else:
                records = dep.parent.materialize(split, task)
            for k, v in as_record_list(records):
                if k not in buckets:
                    buckets[k] = [[] for _ in range(n_sides)]
                buckets[k][side].append(v)
        return [(k, tuple(sides)) for k, sides in buckets.items()]
