"""Partition schemes and their deferred, shareable resolution.

A :class:`PartitionScheme` is the (partitioner kind, partition count)
tuple a CHOPPER config entry prescribes for a stage (the paper's Fig. 6
file format). A :class:`SchemeRef` wraps a scheme for *runtime*
resolution:

* hash schemes resolve immediately and cheaply;
* range schemes must sample real keys of the data being shuffled, so they
  resolve lazily — right before the map stage that writes the shuffle
  launches — and charge a simulated sampling delay, like Spark's range
  sketch pass.

One SchemeRef instance can be **shared** by several shuffle dependencies
(a co-partition group from Algorithm 3): the first resolution builds the
partitioner, later ones reuse the exact object, so the group's range
bounds are identical and partitioner equality holds — which is what lets
downstream joins read them co-partitioned. (Sampling only the first
side's keys mirrors the paper's §III-B caveat that a range scheme tuned
on one RDD can skew another.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.engine.partitioner import (
    RANGE_SAMPLE_PER_PARTITION,
    HashPartitioner,
    Partitioner,
    RangePartitioner,
)
from repro.engine.task import probe_context

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import AnalyticsContext
    from repro.engine.stage import Stage

HASH = "hash"
RANGE = "range"
_KINDS = (HASH, RANGE)

# Simulated driver-side cost of a range-bounds sampling pass.
RANGE_SAMPLING_BASE_DELAY = 0.2
RANGE_SAMPLING_PER_PARTITION_DELAY = 0.002


@dataclass(frozen=True)
class PartitionScheme:
    """One config tuple: partitioner kind + number of partitions."""

    kind: str
    num_partitions: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown partitioner kind {self.kind!r}")
        if self.num_partitions < 1:
            raise ConfigurationError("num_partitions must be >= 1")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "num_partitions": self.num_partitions}

    @classmethod
    def from_dict(cls, payload: dict) -> "PartitionScheme":
        return cls(kind=payload["kind"], num_partitions=int(payload["num_partitions"]))


class SchemeRef:
    """A scheme pending resolution into a concrete partitioner.

    Attach to ``ShuffleDependency.pending_scheme``; the DAGScheduler calls
    :meth:`resolve` before the writing map stage runs.
    """

    def __init__(self, scheme: PartitionScheme, group: Optional[str] = None) -> None:
        self.scheme = scheme
        self.group = group  # co-partition group label, for diagnostics
        self._built: Optional[Partitioner] = None

    @property
    def resolved(self) -> bool:
        return self._built is not None

    @property
    def partitioner(self) -> Optional[Partitioner]:
        return self._built

    def resolve_eager(self) -> Optional[Partitioner]:
        """Resolve without data access; only possible for hash schemes."""
        if self._built is None and self.scheme.kind == HASH:
            self._built = HashPartitioner(self.scheme.num_partitions)
        return self._built

    def resolve(
        self, ctx: "AnalyticsContext", map_stage: "Stage"
    ) -> Tuple[Partitioner, float]:
        """Build (or reuse) the partitioner; returns (partitioner, delay).

        ``delay`` is the simulated driver-side cost of the sampling pass —
        zero for hash schemes or already-resolved refs.
        """
        if self._built is not None:
            return self._built, 0.0
        if self.scheme.kind == HASH:
            self._built = HashPartitioner(self.scheme.num_partitions)
            return self._built, 0.0
        keys, sampled_partitions = self._sample_stage_keys(ctx, map_stage)
        self._built = RangePartitioner.from_sample(
            keys, self.scheme.num_partitions, seed=ctx.conf.seed
        )
        delay = (
            RANGE_SAMPLING_BASE_DELAY
            + RANGE_SAMPLING_PER_PARTITION_DELAY * sampled_partitions
        )
        return self._built, delay

    @staticmethod
    def _sample_stage_keys(
        ctx: "AnalyticsContext", map_stage: "Stage", max_partitions: int = 4
    ) -> Tuple[List, int]:
        """Physically evaluate a few map-input partitions and pull keys.

        The map stage's parents have completed by resolution time, so its
        pipeline is computable; probe contexts never cache and are never
        charged to the simulated clock (the explicit delay covers it).
        """
        dep = map_stage.shuffle_dep
        assert dep is not None, "resolve() called on a non-map stage"
        rdd = map_stage.rdd
        n = min(max_partitions, rdd.num_partitions)
        per_part = RANGE_SAMPLE_PER_PARTITION
        keys: List = []
        for split in range(n):
            records = rdd.materialize(split, probe_context())
            if not records:
                continue
            stride = max(1, len(records) // per_part)
            keys.extend(dep.key_fn(r) for r in records[::stride][:per_part])
        return keys, n

    def __repr__(self) -> str:
        state = "resolved" if self.resolved else "pending"
        return f"SchemeRef({self.scheme.kind},{self.scheme.num_partitions},{state})"
