"""Resilient Distributed Datasets: the engine's user-facing data API.

Faithful to Spark's RDD semantics at the granularity the paper cares
about:

* transformations are **lazy** and build a lineage DAG of narrow and
  shuffle dependencies;
* actions submit a job to the DAGScheduler, which cuts the lineage into
  stages at shuffle boundaries;
* a partition is the unit of parallelism — one task per partition;
* ``partitioner`` metadata propagates through partitioning-preserving ops
  so joins/aggregations over co-partitioned RDDs skip the shuffle.

Computations run for real on the (physically small) records; only *time*
is simulated. Each RDD carries a ``size_scale`` converting physical bytes
to the virtual dataset size it represents (see DESIGN.md).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.common.errors import ConfigurationError, WorkloadError
from repro.common.rng import derive_seed, seeded_rng
from repro.common.sizing import estimate_partition_size, estimate_size
from repro.engine.batch import RecordBatch
from repro.engine.dependencies import (
    Aggregator,
    Dependency,
    NarrowDependency,
    OneToOneDependency,
    RangeNarrowDependency,
    ShuffleDependency,
    SubsetDependency,
)
from repro.engine import effects
from repro.engine.partitioner import HashPartitioner, Partitioner
from repro.engine.task import TaskContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import AnalyticsContext


class RecordOp:
    """Per-record description of a narrow op, the unit of operator fusion.

    ``kind`` is ``"map"`` / ``"filter"`` / ``"map_values"``; ``fn`` is the
    user's per-record function (the same one the unfused lambda applies).
    ``vec`` is an optional columnar kernel the workload opts in with:

    * map: ``vec(keys, values) -> (keys, values)``
    * filter: ``vec(keys, values) -> bool mask``
    * map_values: ``vec(values) -> values``

    The opt-in contract is elementwise bit-identity with ``fn`` after the
    round trip to Python scalars — the engine only invokes ``vec`` on
    ndarray columns and treats its outputs exactly like scalar results.
    """

    __slots__ = ("kind", "fn", "vec")

    def __init__(self, kind: str, fn: Callable, vec: Optional[Callable] = None):
        self.kind = kind
        self.fn = fn
        self.vec = vec


def _run_chain(
    chain: List["MapPartitionsRDD"], base_records: List
) -> Tuple[List, List[int], List[float]]:
    """Loop-fused evaluation of a narrow chain over one partition.

    One pass over the base records applies every step's per-record
    function in sequence — no intermediate partition lists — while
    accumulating each step's record count and raw size sum in the same
    record order the unfused path sums them, so per-step accounting
    (``_note_chain``) reproduces ``materialize``'s numbers exactly.
    """
    k = len(chain)
    ops = [step._record_op for step in chain]
    counts = [0] * k
    sums = [0.0] * k
    out: List = []
    for r in base_records:
        v = r
        dead = False
        for i, op in enumerate(ops):
            if op.kind == "map":
                v = op.fn(v)
            elif op.kind == "filter":
                if not op.fn(v):
                    dead = True
                    break
            else:  # map_values
                key, value = v  # same unpacking (and errors) as unfused
                v = (key, op.fn(value))
            counts[i] += 1
            sums[i] += estimate_size(v)
        if not dead:
            out.append(v)
    return out, counts, sums


def _run_chain_vec(
    chain: List["MapPartitionsRDD"], batch: RecordBatch
) -> Tuple[RecordBatch, List[int], List[float]]:
    """Columnar evaluation of a fully vec-enabled narrow chain."""
    counts: List[int] = []
    sums: List[float] = []
    for step in chain:
        op = step._record_op
        if op.kind == "map":
            keys, values = op.vec(batch.keys, batch.values)
            batch = RecordBatch(keys, values)
        elif op.kind == "filter":
            mask = np.asarray(op.vec(batch.keys, batch.values))
            batch = batch.take(np.flatnonzero(mask))
        else:  # map_values
            batch = RecordBatch(batch.keys, op.vec(batch.values))
        counts.append(len(batch))
        # Left-fold sum over the per-record sizes, matching the scalar
        # path's summation order (np.sum is pairwise — not equivalent).
        sums.append(float(sum(batch.sizes_array().tolist())))
    return batch, counts, sums


class RDD:
    """Base class: lineage node with lazy transformations and actions."""

    # A computed partition is read from storage (a source scan): its
    # virtual bytes are the task's input bytes too.
    scans_input = False

    def __init__(
        self,
        ctx: "AnalyticsContext",
        deps: List[Dependency],
        op_name: str,
        compute_factor: float = 1.0,
    ) -> None:
        self.ctx = ctx
        self.id = ctx.next_rdd_id()
        self.deps = deps
        self.op_name = op_name
        self.compute_factor = compute_factor
        self._cached = False
        self._signature: Optional[str] = None

    # ------------------------------------------------------------------
    # Structural properties
    # ------------------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        """Partition count; narrow RDDs inherit their (first) parent's."""
        return self.deps[0].parent.num_partitions

    @property
    def partitioner(self) -> Optional[Partitioner]:
        """How this RDD's records are known to be partitioned, if at all."""
        return None

    @property
    def size_scale(self) -> float:
        """Multiplier from physical record bytes to virtual bytes."""
        return max(dep.parent.size_scale for dep in self.deps)

    @property
    def signature(self) -> str:
        """Structural stage signature (paper §III-A).

        A stable hash over the operation name and the parents' signatures
        — *not* over partition counts or RDD ids — so the repeated stages
        of an iterative workload (KMeans stages 12-17) share one
        signature and one CHOPPER config entry / trained model.
        """
        if self._signature is None:
            h = hashlib.blake2b(digest_size=8)
            h.update(self.op_name.encode())
            for dep in self.deps:
                tag = b"S" if isinstance(dep, ShuffleDependency) else b"N"
                h.update(tag)
                h.update(dep.parent.signature.encode())
            self._signature = h.hexdigest()
        return self._signature

    def shuffle_deps(self) -> List[ShuffleDependency]:
        return [d for d in self.deps if isinstance(d, ShuffleDependency)]

    def narrow_deps(self) -> List[NarrowDependency]:
        return [d for d in self.deps if isinstance(d, NarrowDependency)]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def compute(self, split: int, task: TaskContext) -> List:
        """Produce this RDD's records for one partition (subclass hook)."""
        raise NotImplementedError

    def materialize(self, split: int, task: TaskContext) -> List:
        """Compute (or fetch from cache) one partition, with accounting.

        The step's compute is priced on ``max(input, output)`` virtual
        bytes: a step that expands data pays for its output, a step that
        collapses a big partition into a small aggregate still pays for
        scanning the partition.
        """
        if self._cached:
            block = self.ctx.block_store.get(self.id, split)
            if block is not None:
                task.note_cache_read(block.nbytes, src_node=block.node)
                task.rdd_bytes[self.id] = block.nbytes
                return block.records
        records = self.compute(split, task)
        raw_bytes = estimate_partition_size(records) * self.size_scale
        if self.scans_input:
            task.note_input(raw_bytes)
        input_bytes = task.input_hints.get(self.id, 0.0)
        for dep in self.narrow_deps():
            input_bytes = max(input_bytes, task.rdd_bytes.get(dep.parent.id, 0.0))
        work_bytes = max(raw_bytes, input_bytes)
        task.note_compute(work_bytes * self.compute_factor, len(records), work_bytes)
        task.rdd_bytes[self.id] = raw_bytes
        if self._cached and not task.probe:
            self.ctx.block_store.put(self.id, split, records, raw_bytes, task.node)
        return records

    def materialize_batch(
        self, split: int, task: TaskContext
    ) -> Union[List, "RecordBatch"]:
        """Like :meth:`materialize`, but may return a columnar batch.

        Only callers prepared for a :class:`RecordBatch` (the map-task
        shuffle write path) use this; the base implementation is the
        plain list path. Accounting is identical either way.
        """
        return self.materialize(split, task)

    # ------------------------------------------------------------------
    # Caching
    # ------------------------------------------------------------------

    def cache(self) -> "RDD":
        """Keep computed partitions in the block store."""
        self._cached = True
        return self

    persist = cache

    @property
    def is_cached(self) -> bool:
        return self._cached

    # ------------------------------------------------------------------
    # Narrow transformations
    # ------------------------------------------------------------------

    def map_partitions(
        self,
        fn: Callable[[int, List], List],
        op_name: str = "mapPartitions",
        preserves_partitioning: bool = False,
        cost: float = 1.0,
        out_scale: Optional[float] = None,
        record_op: Optional[RecordOp] = None,
    ) -> "RDD":
        """Apply ``fn(split_index, records) -> records`` per partition.

        ``cost`` is this step's compute weight (seconds per virtual byte
        relative to the engine baseline) — workloads use it to declare
        that e.g. a distance computation is heavier than a projection.

        ``out_scale`` overrides the output's virtual-size multiplier. By
        default the parent's ``size_scale`` is inherited (right for 1:1
        record transforms); an *aggregating* step whose output is
        physically true-sized (per-partition sums, sketches) must pass
        ``out_scale=1.0`` or its few output records would be billed as
        gigabytes.
        """
        return MapPartitionsRDD(
            self, fn, op_name, preserves_partitioning, cost, out_scale,
            record_op=record_op,
        )

    def map(self, f: Callable, cost: float = 1.0, vec: Optional[Callable] = None) -> "RDD":
        return self.map_partitions(
            lambda _s, recs: [f(r) for r in recs], op_name="map", cost=cost,
            record_op=RecordOp("map", f, vec),
        )

    def flat_map(self, f: Callable, cost: float = 1.0) -> "RDD":
        return self.map_partitions(
            lambda _s, recs: [y for r in recs for y in f(r)],
            op_name="flatMap",
            cost=cost,
        )

    def filter(
        self, pred: Callable, cost: float = 1.0, vec: Optional[Callable] = None
    ) -> "RDD":
        return self.map_partitions(
            lambda _s, recs: [r for r in recs if pred(r)],
            op_name="filter",
            preserves_partitioning=True,
            cost=cost,
            record_op=RecordOp("filter", pred, vec),
        )

    def glom(self) -> "RDD":
        return self.map_partitions(lambda _s, recs: [recs], op_name="glom")

    def key_by(self, f: Callable) -> "RDD":
        return self.map_partitions(
            lambda _s, recs: [(f(r), r) for r in recs], op_name="keyBy"
        )

    def keys(self) -> "RDD":
        # NOT partitioning-preserving: the records change from (k, v) to
        # k, so a downstream op keying on record[0] would mis-read the
        # inherited partitioner and skip a needed shuffle (caught by the
        # oracle property tests). Matches Spark, where keys() is a map.
        return self.map_partitions(
            lambda _s, recs: [k for k, _v in recs],
            op_name="keys",
        )

    def values(self) -> "RDD":
        def _second(record):
            _k, v = record
            return v

        return self.map_partitions(
            lambda _s, recs: [v for _k, v in recs],
            op_name="values",
            record_op=RecordOp("map", _second),
        )

    def map_values(
        self, f: Callable, cost: float = 1.0, vec: Optional[Callable] = None
    ) -> "RDD":
        return self.map_partitions(
            lambda _s, recs: [(k, f(v)) for k, v in recs],
            op_name="mapValues",
            preserves_partitioning=True,
            cost=cost,
            record_op=RecordOp("map_values", f, vec),
        )

    def flat_map_values(self, f: Callable, cost: float = 1.0) -> "RDD":
        return self.map_partitions(
            lambda _s, recs: [(k, y) for k, v in recs for y in f(v)],
            op_name="flatMapValues",
            preserves_partitioning=True,
            cost=cost,
        )

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.ctx, [self, other])

    def repartition(self, num_partitions: int) -> "RDD":
        """Round-robin reshuffle into ``num_partitions`` partitions."""
        from repro.engine.shuffled import ShuffledRDD

        def _tag(split: int, recs: List) -> List:
            return [((split + i) % num_partitions, r) for i, r in enumerate(recs)]

        tagged = self.map_partitions(_tag, op_name="repartitionTag")
        shuffled = ShuffledRDD(
            tagged,
            HashPartitioner(num_partitions),
            mode="identity",
            op_name="repartition",
        )
        return shuffled.values()

    # ------------------------------------------------------------------
    # Shuffle transformations (delegate to repro.engine.shuffled)
    # ------------------------------------------------------------------

    def _default_partitioner(self, num_partitions: Optional[int]) -> Partitioner:
        """Spark's defaultPartitioner: reuse a parent partitioner if any."""
        if num_partitions is None:
            if self.partitioner is not None:
                return self.partitioner
            return HashPartitioner(self.ctx.default_parallelism)
        return HashPartitioner(num_partitions)

    def combine_by_key(
        self,
        create_combiner: Callable,
        merge_value: Callable,
        merge_combiners: Callable,
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
        map_side_combine: bool = True,
        op_name: str = "combineByKey",
        numeric_add: bool = False,
    ) -> "RDD":
        from repro.engine.shuffled import ShuffledRDD

        part = partitioner or self._default_partitioner(num_partitions)
        agg = Aggregator(
            create_combiner, merge_value, merge_combiners, numeric_add=numeric_add
        )
        return ShuffledRDD(
            self,
            part,
            mode="aggregate",
            aggregator=agg,
            map_side_combine=map_side_combine,
            op_name=op_name,
            user_fixed=(partitioner is not None or num_partitions is not None),
        )

    def reduce_by_key(
        self,
        fn: Callable,
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
        numeric_add: bool = False,
        map_side_combine: bool = True,
    ) -> "RDD":
        """Fold values per key with ``fn``.

        Pass ``numeric_add=True`` when ``fn`` is plain scalar addition
        (``lambda a, b: a + b`` over ints or floats) to let the executor
        use the vectorized map-side combine; see
        :class:`~repro.engine.dependencies.Aggregator`.
        ``map_side_combine=False`` ships raw records through the shuffle
        (more shuffle volume — useful for shuffle-bound workloads).
        """
        return self.combine_by_key(
            lambda v: v, fn, fn,
            num_partitions=num_partitions,
            partitioner=partitioner,
            map_side_combine=map_side_combine,
            op_name="reduceByKey",
            numeric_add=numeric_add,
        )

    def group_by_key(
        self,
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> "RDD":
        from repro.engine.shuffled import ShuffledRDD

        part = partitioner or self._default_partitioner(num_partitions)
        return ShuffledRDD(
            self, part, mode="group", op_name="groupByKey",
            user_fixed=(partitioner is not None or num_partitions is not None),
        )

    def group_by(self, f: Callable, num_partitions: Optional[int] = None) -> "RDD":
        return self.key_by(f).group_by_key(num_partitions=num_partitions)

    def distinct(self, num_partitions: Optional[int] = None) -> "RDD":
        paired = self.map_partitions(
            lambda _s, recs: [(r, None) for r in recs], op_name="distinctPair"
        )
        return paired.reduce_by_key(
            lambda a, _b: a, num_partitions=num_partitions
        ).keys()

    def partition_by(self, partitioner: Partitioner) -> "RDD":
        from repro.engine.shuffled import ShuffledRDD

        if self.partitioner is not None and self.partitioner == partitioner:
            return self
        return ShuffledRDD(
            self, partitioner, mode="identity", op_name="partitionBy",
            user_fixed=True,
        )

    def sort_by_key(
        self, num_partitions: Optional[int] = None, sample_seed: int = 0
    ) -> "RDD":
        from repro.engine.partitioner import RangePartitioner
        from repro.engine.shuffled import ShuffledRDD

        n = num_partitions or self.ctx.default_parallelism
        sample = self.ctx.sample_keys(self, max_partitions=4)
        part = RangePartitioner.from_sample(sample, n, seed=sample_seed)
        return ShuffledRDD(
            self, part, mode="identity", sort=True, op_name="sortByKey",
            user_fixed=(num_partitions is not None),
        )

    def cogroup(
        self,
        other: "RDD",
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> "RDD":
        from repro.engine.shuffled import CogroupRDD

        part = partitioner or self._cogroup_default_partitioner(other, num_partitions)
        return CogroupRDD(
            self.ctx, [self, other], part,
            user_fixed=(partitioner is not None or num_partitions is not None),
        )

    def _cogroup_default_partitioner(
        self, other: "RDD", num_partitions: Optional[int]
    ) -> Partitioner:
        if num_partitions is None:
            for rdd in (self, other):
                if rdd.partitioner is not None:
                    return rdd.partitioner
            return HashPartitioner(self.ctx.default_parallelism)
        return HashPartitioner(num_partitions)

    def join(
        self,
        other: "RDD",
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> "RDD":
        grouped = self.cogroup(other, num_partitions, partitioner)
        return grouped.map_partitions(
            lambda _s, recs: [
                (k, (a, b)) for k, (left, right) in recs for a in left for b in right
            ],
            op_name="join",
            preserves_partitioning=True,
        )

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def collect(self) -> List:
        parts = self.ctx.run_job(self, lambda _s, recs: recs)
        return [r for part in parts for r in part]

    def count(self) -> int:
        return sum(self.ctx.run_job(self, lambda _s, recs: len(recs)))

    def take(self, n: int) -> List:
        out: List = []
        for part in self.ctx.run_job(self, lambda _s, recs: recs[: max(n, 0)]):
            out.extend(part)
            if len(out) >= n:
                return out[:n]
        return out

    def reduce(self, fn: Callable) -> Any:
        sentinel = object()

        def _part(_s: int, recs: List) -> Any:
            acc: Any = sentinel
            for r in recs:
                acc = r if acc is sentinel else fn(acc, r)
            return acc

        partials = [p for p in self.ctx.run_job(self, _part) if p is not sentinel]
        if not partials:
            raise WorkloadError("reduce() on an empty RDD")
        acc = partials[0]
        for p in partials[1:]:
            acc = fn(acc, p)
        return acc

    def aggregate(self, zero: Any, seq_op: Callable, comb_op: Callable) -> Any:
        def _part(_s: int, recs: List) -> Any:
            acc = _copy_zero(zero)
            for r in recs:
                acc = seq_op(acc, r)
            return acc

        acc = _copy_zero(zero)
        for p in self.ctx.run_job(self, _part):
            acc = comb_op(acc, p)
        return acc

    def max(self) -> Any:
        return self.reduce(lambda a, b: a if a >= b else b)

    def min(self) -> Any:
        return self.reduce(lambda a, b: a if a <= b else b)

    def stats(self) -> Dict[str, float]:
        """Count/mean/min/max/stdev of a numeric RDD in one pass.

        Partitions report ``(n, mean, M2)`` (M2: squared deviations from
        their own mean), merged with Chan et al.'s pairwise update:
        ``E[x^2] - mean^2`` cancels catastrophically on near-equal values.
        """

        def _part(_s: int, recs: List):
            if not recs:
                return (0, 0.0, 0.0, float("inf"), float("-inf"))
            mean = float(sum(recs)) / len(recs)
            m2 = float(sum((r - mean) ** 2 for r in recs))
            return (len(recs), mean, m2, float(min(recs)), float(max(recs)))

        count, mean, m2 = 0, 0.0, 0.0
        lo, hi = float("inf"), float("-inf")
        for n, p_mean, p_m2, p_lo, p_hi in self.ctx.run_job(self, _part):
            if n:
                total = count + n
                delta = p_mean - mean
                mean += delta * (n / total)
                m2 += p_m2 + delta * delta * (count * n / total)
                count = total
            lo = min(lo, p_lo)
            hi = max(hi, p_hi)
        if count == 0:
            raise WorkloadError("stats() on an empty RDD")
        return {
            "count": float(count),
            "mean": mean,
            "min": lo,
            "max": hi,
            "stdev": (m2 / count) ** 0.5,
        }

    def sum(self) -> float:
        return float(
            sum(self.ctx.run_job(self, lambda _s, recs: sum(recs) if recs else 0))
        )

    def mean(self) -> float:
        total, count = 0.0, 0
        for part_sum, part_n in self.ctx.run_job(
            self, lambda _s, recs: (sum(recs), len(recs))
        ):
            total += part_sum
            count += part_n
        if count == 0:
            raise WorkloadError("mean() on an empty RDD")
        return total / count

    def collect_as_map(self) -> Dict:
        return dict(self.collect())

    def take_sample(self, n: int, seed: int = 0) -> List:
        """Uniform sample of ``n`` records without replacement."""
        records = self.collect()
        if n >= len(records):
            return records
        rng = seeded_rng(derive_seed(seed, "takeSample"))
        idx = rng.choice(len(records), size=n, replace=False)
        return [records[i] for i in sorted(idx)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id}, op={self.op_name!r})"


def _copy_zero(zero: Any) -> Any:
    """Fresh copy of an aggregation zero value (guards mutable zeros)."""
    import copy

    return copy.deepcopy(zero)


class SourceRDD(RDD):
    """A re-splittable source: records generated per (split, num_splits).

    ``generator(split, num_splits)`` must deterministically return the
    records of one partition. Because partition contents are a pure
    function of the split count, CHOPPER can change a source stage's
    parallelism (``set_num_partitions``) without changing the dataset —
    the engine-side hook for tuning stage-0 granularity.
    """

    scans_input = True

    def __init__(
        self,
        ctx: "AnalyticsContext",
        generator: Callable[[int, int], List],
        num_partitions: int,
        size_scale: float = 1.0,
        op_name: str = "source",
        cost: float = 1.0,
        version: Optional[str] = None,
    ) -> None:
        super().__init__(ctx, [], op_name, compute_factor=cost)
        if num_partitions < 1:
            raise ConfigurationError("source needs at least one partition")
        self._generator = generator
        self._num_partitions = num_partitions
        self._size_scale = size_scale
        # A content version (hash of the generator's identity) makes the
        # source eligible for zone maps and result caching; unversioned
        # sources are never described or cached. The relational layer
        # fills ``zone_map_spec`` when a consumer could use the maps.
        self.dataset_version = version
        self.zone_map_spec = None

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    @property
    def size_scale(self) -> float:
        return self._size_scale

    @property
    def signature(self) -> str:
        if self._signature is None:
            h = hashlib.blake2b(digest_size=8)
            h.update(b"source:")
            h.update(self.op_name.encode())
            self._signature = h.hexdigest()
        return self._signature

    def set_num_partitions(self, num_partitions: int) -> None:
        """Re-split the source (CHOPPER stage-0 tuning hook)."""
        if num_partitions < 1:
            raise ConfigurationError("source needs at least one partition")
        if self._cached:
            self.ctx.block_store.evict_rdd(self.id)
        self._num_partitions = num_partitions

    def compute(self, split: int, task: TaskContext) -> List:
        records = list(self._generator(split, self._num_partitions))
        zone_spec = self.zone_map_spec
        if zone_spec is not None:
            # Record zone maps as a pure observer: a deterministic
            # function of the split's records, deferred through the
            # task-effects sink (replayed in grant order on the driver)
            # and idempotent across retries/speculation, so it never
            # touches simulated time or result identity.
            key = (zone_spec.table, zone_spec.version, self._num_partitions)
            store = self.ctx.zone_maps
            if not store.has(key, split):
                from repro.relational.stats import collect_column_stats

                stats = collect_column_stats(records, zone_spec.columns)
                sink = effects.active()
                if sink is not None:
                    sink.ops.append(("zone_map", key, split, stats))
                else:
                    store.put(key, split, stats)
        return records


class MapPartitionsRDD(RDD):
    """Narrow one-to-one transformation of the parent's partitions."""

    def __init__(
        self,
        parent: RDD,
        fn: Callable[[int, List], List],
        op_name: str,
        preserves_partitioning: bool = False,
        cost: float = 1.0,
        out_scale: Optional[float] = None,
        record_op: Optional[RecordOp] = None,
    ) -> None:
        super().__init__(
            parent.ctx, [OneToOneDependency(parent)], op_name, compute_factor=cost
        )
        self._fn = fn
        self._preserves = preserves_partitioning
        self._out_scale = out_scale
        self._record_op = record_op

    @property
    def partitioner(self) -> Optional[Partitioner]:
        return self.deps[0].parent.partitioner if self._preserves else None

    @property
    def size_scale(self) -> float:
        if self._out_scale is not None:
            return self._out_scale
        return self.deps[0].parent.size_scale

    def compute(self, split: int, task: TaskContext) -> List:
        parent_records = self.deps[0].parent.materialize(split, task)
        return list(self._fn(split, parent_records))

    # ------------------------------------------------------------------
    # Operator fusion
    # ------------------------------------------------------------------

    def _fusion_chain(self) -> Optional[List["MapPartitionsRDD"]]:
        """The longest fusible narrow chain ending at this RDD, or None.

        Fusible steps are per-record ops (map / filter / mapValues, which
        carry a :class:`RecordOp`); the chain breaks at a cached
        intermediate (its partitions must land in the block store), at
        any partition-level op (mapPartitions, flatMap, sample, ...) and
        at stage boundaries. A chain needs >= 2 steps to be worth fusing.
        """
        if self._record_op is None or not self.ctx.conf.operator_fusion:
            return None
        chain: List[MapPartitionsRDD] = [self]
        node = self.deps[0].parent
        while (
            isinstance(node, MapPartitionsRDD)
            and node._record_op is not None
            and not node._cached
        ):
            chain.append(node)
            node = node.deps[0].parent
        if len(chain) < 2:
            return None
        chain.reverse()
        return chain

    def _note_chain(
        self,
        chain: List["MapPartitionsRDD"],
        counts: List[int],
        sums: List[float],
        task: TaskContext,
    ) -> None:
        """Replay :meth:`RDD.materialize`'s per-step accounting, exactly."""
        for step, count, raw_sum in zip(chain, counts, sums):
            raw_bytes = raw_sum * step.size_scale
            input_bytes = task.input_hints.get(step.id, 0.0)
            for dep in step.narrow_deps():
                input_bytes = max(
                    input_bytes, task.rdd_bytes.get(dep.parent.id, 0.0)
                )
            work_bytes = max(raw_bytes, input_bytes)
            task.note_compute(
                work_bytes * step.compute_factor, count, work_bytes
            )
            task.rdd_bytes[step.id] = raw_bytes

    def materialize(self, split: int, task: TaskContext) -> List:
        chain = self._fusion_chain()
        if chain is None:
            return super().materialize(split, task)
        if self._cached:
            block = self.ctx.block_store.get(self.id, split)
            if block is not None:
                task.note_cache_read(block.nbytes, src_node=block.node)
                task.rdd_bytes[self.id] = block.nbytes
                return block.records
        base_records = chain[0].deps[0].parent.materialize(split, task)
        records, counts, sums = _run_chain(chain, base_records)
        self._note_chain(chain, counts, sums, task)
        if self._cached and not task.probe:
            self.ctx.block_store.put(
                self.id, split, records, task.rdd_bytes[self.id], task.node
            )
        return records

    def materialize_batch(
        self, split: int, task: TaskContext
    ) -> Union[List, RecordBatch]:
        conf = self.ctx.conf
        chain = self._fusion_chain()
        if chain is None or self._cached:
            # Cached tops keep list blocks in the store (one container
            # type for cache consumers); materialize() handles both the
            # cache hit and the loop-fused recompute.
            return self.materialize(split, task)
        base_records = chain[0].deps[0].parent.materialize(split, task)
        batch: Optional[RecordBatch] = None
        if (
            conf.record_format == "columnar"
            and base_records
            and all(step._record_op.vec is not None for step in chain)
        ):
            batch = RecordBatch.from_records(base_records)
            if batch is not None and not (
                isinstance(batch.keys, np.ndarray)
                and isinstance(batch.values, np.ndarray)
            ):
                batch = None  # vec kernels consume ndarray columns only
        if batch is not None:
            out, counts, sums = _run_chain_vec(chain, batch)
            self._note_chain(chain, counts, sums, task)
            return out
        records, counts, sums = _run_chain(chain, base_records)
        self._note_chain(chain, counts, sums, task)
        return records


class UnionRDD(RDD):
    """Concatenation of several RDDs' partition lists (narrow)."""

    def __init__(self, ctx: "AnalyticsContext", parents: List[RDD]) -> None:
        if not parents:
            raise ConfigurationError("union needs at least one parent")
        deps: List[Dependency] = []
        offset = 0
        for parent in parents:
            deps.append(RangeNarrowDependency(parent, offset, parent.num_partitions))
            offset += parent.num_partitions
        super().__init__(ctx, deps, "union")
        self._num_partitions = offset

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    def compute(self, split: int, task: TaskContext) -> List:
        for dep in self.deps:
            locals_ = dep.parent_partitions(split)
            if locals_:
                return dep.parent.materialize(locals_[0], task)
        raise ConfigurationError(f"union split {split} out of range")


class PartitionSubsetRDD(RDD):
    """A pruned view of a parent: child split *i* is parent ``kept[i]``.

    The lowering of a partition-pruned scan. Because the subset is part
    of the lineage (not a scheduling-time filter), every consumer —
    stage building, chaos resubmission, AQE re-planning, preferred
    locations — sees only the kept partitions; the skipped ones never
    become tasks anywhere.
    """

    def __init__(self, parent: RDD, kept) -> None:
        kept = tuple(kept)
        total = parent.num_partitions
        if not kept:
            raise ConfigurationError("partition subset cannot be empty")
        for p in kept:
            if not 0 <= p < total:
                raise ConfigurationError(
                    f"subset partition {p} out of range 0..{total - 1}"
                )
        super().__init__(
            parent.ctx,
            [SubsetDependency(parent, kept)],
            op_name=f"subset[{len(kept)}/{total}]",
        )
        self.kept = kept

    @property
    def num_partitions(self) -> int:
        return len(self.kept)

    @property
    def pruned_count(self) -> int:
        """How many parent partitions this subset skips."""
        return self.deps[0].parent.num_partitions - len(self.kept)

    @property
    def signature(self) -> str:
        if self._signature is None:
            h = hashlib.blake2b(digest_size=8)
            h.update(b"subset:")
            h.update(self.deps[0].parent.signature.encode())
            h.update(repr(self.kept).encode())
            self._signature = h.hexdigest()
        return self._signature

    def compute(self, split: int, task: TaskContext) -> List:
        return self.deps[0].parent.materialize(self.kept[split], task)


def parallelize_generator(data: List, split: int, num_splits: int) -> List:
    """Slice ``data`` into ``num_splits`` nearly equal contiguous chunks."""
    n = len(data)
    start = (split * n) // num_splits
    end = ((split + 1) * n) // num_splits
    return data[start:end]
