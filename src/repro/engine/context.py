"""AnalyticsContext: the SparkContext of the simulated engine.

Owns the cluster model, the simulation clock, the shuffle manager, block
store, schedulers, metrics, and collected statistics. Workloads create
RDDs through it and run actions; CHOPPER attaches to it via
:meth:`set_advisor` (the dynamic-partitioning DAGScheduler extension) and
via the listener bus (the statistics collector).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cluster.cluster import Cluster, paper_cluster
from repro.common.errors import ConfigurationError
from repro.common.rng import DEFAULT_SEED
from repro.common.sizing import estimate_size
from repro.engine import dependencies, effects
from repro.engine.costmodel import CostModelConfig
from repro.engine.dag_scheduler import DAGScheduler
from repro.engine.listener import JobStats, ListenerBus, StageStats
from repro.engine.partitioner import RANGE_SAMPLE_PER_PARTITION
from repro.engine.rdd import RDD, SourceRDD, parallelize_generator
from repro.engine.shuffle import ShuffleManager
from repro.engine.storage import BlockStore, SpillManager, ZoneMapStore
from repro.engine.task_scheduler import TaskScheduler
from repro.obs import MetricsRegistry, Observability
from repro.simul.engine import SimEngine
from repro.simul.metrics import MetricsRecorder

# Fraction of each executor's memory available for cached blocks
# (Spark's storage memory). Cached partitions past the bound evict LRU
# and recompute on the next read.
CACHE_MEMORY_FRACTION = 0.5


@dataclass
class EngineConf:
    """Engine configuration: the only channel that selects a mode.

    ``default_parallelism`` is the paper's vanilla baseline (300
    partitions for all workloads, §IV). ``copartition_scheduling`` turns
    on CHOPPER's co-partition-aware task placement. Tuning constants
    with a single value in use live next to the code that reads them.
    """

    default_parallelism: int = 300
    cost: CostModelConfig = field(default_factory=CostModelConfig)
    copartition_scheduling: bool = False
    task_failure_rate: float = 0.0
    max_task_attempts: int = 4
    seed: int = DEFAULT_SEED
    # Speculative execution (Spark's spark.speculation): stragglers get
    # a duplicate attempt on another node; the first finisher wins.
    speculation: bool = False
    # --- Node-loss chaos (the paper's future-work failure question) ---
    # Deterministic injection: worker name -> absolute simulated time at
    # which the node dies (its executor stops, running attempts fail,
    # its shuffle outputs and cached blocks are discarded).
    node_failure_times: Optional[Dict[str, float]] = None
    # Seeded random injection: each worker independently dies with this
    # probability, at a seeded time early in the run.
    node_failure_rate: float = 0.0
    # > 0: a dead node's cores rejoin the pool after this many seconds
    # (a fresh executor — its lost blocks stay lost). 0 = never.
    node_recovery_delay: float = 0.0
    # --- Physical performance knobs (simulated results are unaffected) ---
    # Worker threads executing concurrently-granted task attempts. 1 =
    # fully serial; N > 1 runs attempt bodies on a thread pool while the
    # scheduler applies their effects in grant order, keeping the
    # simulated clock, metrics, and results bit-identical to serial.
    physical_parallelism: int = 1
    # Map-side pipeline: "columnar" runs fused vec kernels over
    # RecordBatch columns (materialize_batch), "list" runs the record
    # loop. Storage does not depend on it: a map output is a RecordBatch
    # whenever its records allow one. Outputs are bit-identical either way.
    record_format: str = "list"
    # Fuse chains of narrow record ops (map / filter / mapValues) into
    # one per-partition kernel instead of materializing each step's list.
    # Accounting replays per step, so metrics stay bit-identical.
    operator_fusion: bool = False
    # Physical memory budget over block payloads (cached partitions and
    # shuffle blocks), in the engine's virtual byte units. Payloads past
    # the budget spill LRU to an on-disk block directory and read back
    # transparently; simulated results are bit-identical with or without
    # a budget. None = unbudgeted (everything stays resident).
    memory_budget: Optional[float] = None
    # Directory for spill block files; each context creates a private
    # subdirectory inside it and removes it on close(). None = a tempdir.
    spill_dir: Optional[str] = None
    # Run the relational layer's logical-plan rewrite batches (predicate
    # pushdown, column pruning, projection folding, repartition/sort
    # elision, limit pushdown) before lowering Table queries to RDDs.
    # Off = lower the raw operator tree; collected results are identical
    # either way, the optimized plan just runs fewer stages.
    logical_optimizer: bool = True
    # Partition pruning: a final optimizer batch evaluates Filter
    # predicates against declared range layouts and zone maps (collected
    # here or loaded from the cache file), rewriting scans into subsets so
    # skipped partitions never schedule tasks. Collected results are
    # bit-identical on/off (the evidence is always a conservative
    # superset).
    partition_pruning: bool = True
    # Zone-map cache: None (off) or "sqlite" (a file at
    # ``result_cache_path`` holding every scanned split's zone map, so
    # runs in later processes prune from earlier runs' scans).
    result_cache: Optional[str] = None
    result_cache_path: Optional[str] = None
    # Adaptive query execution: after each map stage materializes, the
    # DAG scheduler consults the exact per-partition shuffle sizes and
    # may re-plan the not-yet-launched reduce side by coalescing runs of
    # tiny partitions into one task each. Collected results are
    # bit-identical on/off; only the physical task layout (and thus
    # simulated timing) changes.
    adaptive_execution: bool = False
    # Coalesce packs runs of small partitions up to this many virtual
    # bytes per task.
    aqe_target_partition_bytes: float = 64.0 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.record_format not in ("list", "columnar"):
            raise ConfigurationError(
                f"record_format must be 'list' or 'columnar',"
                f" got {self.record_format!r}"
            )
        # Each check states what is legal, so NaN (every comparison False)
        # is rejected; inf stays legal (a node that never fails).
        if not self.aqe_target_partition_bytes > 0:
            raise ConfigurationError(
                f"aqe_target_partition_bytes must be > 0,"
                f" got {self.aqe_target_partition_bytes}"
            )
        for name in ("default_parallelism", "max_task_attempts", "physical_parallelism"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigurationError(f"{name} must be an int >= 1, got {value!r}")
        if not 0.0 <= self.task_failure_rate < 1.0:
            raise ConfigurationError("task_failure_rate must be in [0, 1)")
        if not 0.0 <= self.node_failure_rate <= 1.0:
            raise ConfigurationError("node_failure_rate must be in [0, 1]")
        for name, when in (self.node_failure_times or {}).items():
            if not when >= 0:
                raise ConfigurationError(
                    f"node_failure_times[{name!r}] must be >= 0 (got {when})"
                )
        if not self.node_recovery_delay >= 0:
            raise ConfigurationError("node_recovery_delay must be >= 0")
        if self.memory_budget is not None and not self.memory_budget > 0:
            raise ConfigurationError(
                f"memory_budget must be > 0 bytes, got {self.memory_budget}"
            )
        if self.spill_dir is not None and self.memory_budget is None:
            raise ConfigurationError(
                "spill_dir requires memory_budget (nothing spills without one)"
            )
        if self.result_cache not in (None, "sqlite"):
            raise ConfigurationError(
                f"unknown cache backend {self.result_cache!r} (only 'sqlite')"
            )
        if (self.result_cache is None) != (self.result_cache_path is None):
            raise ConfigurationError(
                "result_cache='sqlite' and result_cache_path go together"
            )


class Broadcast:
    """Read-only value shipped once to every executor (e.g. KMeans centers)."""

    def __init__(self, value: Any) -> None:
        self.value = value


class AnalyticsContext:
    """Driver-side entry point for building and running workloads."""

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        conf: Optional[EngineConf] = None,
        metrics_registry: Optional[MetricsRegistry] = None,
        event_log: Optional[Any] = None,
        profiler: Optional[Any] = None,
    ) -> None:
        self.cluster = cluster or paper_cluster()
        self.conf = conf or EngineConf()
        # Shuffle ids restart per context so they are a pure function of
        # the run's DAG (see dependencies.reset_shuffle_ids).
        dependencies.reset_shuffle_ids()
        self.sim = SimEngine()
        self.metrics = MetricsRecorder()
        self.listener_bus = ListenerBus()
        # Observability hub: always-on metrics registry + optional tracer,
        # structured event log, and real-resource profiler. A registry
        # (and log / profiler) may be injected so multi-run drivers
        # aggregate one. The hub stamps this context's simulated time and
        # buffers what a task body reports from a worker thread.
        sim = self.sim  # all the clock captures: a log may outlive its context
        self.obs = Observability(
            self.listener_bus,
            metrics=metrics_registry,
            nodes={w.name: w.cores for w in self.cluster.workers},
            clock=lambda: sim.now,
            deferred=effects.active,
        )
        self.obs.set_log(event_log)
        self.obs.set_profiler(profiler)
        self.obs.event("cluster_sized", cores=self.cluster.total_cores)
        # One spill manager spans cached partitions and shuffle blocks:
        # the memory budget is over every payload the engine holds.
        self.spill: Optional[SpillManager] = None
        if self.conf.memory_budget is not None:
            self.spill = SpillManager(
                self.conf.memory_budget, directory=self.conf.spill_dir, obs=self.obs
            )
        self.shuffle_manager = ShuffleManager(
            block_header=self.conf.cost.shuffle_block_header,
            spill=self.spill,
            obs=self.obs,
        )
        topology = self.cluster.topology

        def cache_capacity(node_name: str) -> float:
            return (
                topology.node(node_name).executor_memory * CACHE_MEMORY_FRACTION
            )

        self.block_store = BlockStore(
            capacity_for=cache_capacity, spill=self.spill
        )
        self.task_scheduler = TaskScheduler(self)
        self.dag_scheduler = DAGScheduler(self)
        self.advisor: Optional[Any] = None

        self.stage_stats: List[StageStats] = []
        self.job_stats: List[JobStats] = []
        # One entry per relational plan optimized in this context (rule
        # hit counts, node counts); surfaces in the run ledger as "plan".
        self.plan_events: List[Dict[str, Any]] = []
        # Zone maps collected at scan time, and the optional file that
        # keeps them across contexts (see relational/cache.py). The
        # import is deferred: the engine layer only needs the cache
        # machinery when a cache file is actually configured.
        self.zone_maps = ZoneMapStore()
        self.query_cache: Optional[Any] = None
        if self.conf.result_cache is not None:
            from repro.relational.cache import (
                ResultCacheManager,
                SQLiteCacheBackend,
            )

            self.query_cache = ResultCacheManager(
                SQLiteCacheBackend(self.conf.result_cache_path),
                self.zone_maps, self.obs,
            )

        self._rdd_counter = 0
        self._job_counter = 0
        self._stage_counter = 0
        self._stage_run_counter = 0

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    def next_rdd_id(self) -> int:
        self._rdd_counter += 1
        return self._rdd_counter

    def next_job_id(self) -> int:
        self._job_counter += 1
        return self._job_counter

    def next_stage_id(self) -> int:
        self._stage_counter += 1
        return self._stage_counter

    def next_stage_run_id(self) -> int:
        self._stage_run_counter += 1
        return self._stage_run_counter

    # ------------------------------------------------------------------
    # RDD creation
    # ------------------------------------------------------------------

    @property
    def default_parallelism(self) -> int:
        return self.conf.default_parallelism

    def parallelize(
        self,
        data: Sequence,
        num_partitions: Optional[int] = None,
        size_scale: float = 1.0,
        op_name: str = "parallelize",
    ) -> SourceRDD:
        """Distribute an in-memory sequence as a source RDD."""
        data = list(data)
        n = num_partitions or min(self.default_parallelism, max(1, len(data)))
        return SourceRDD(
            self,
            lambda split, splits: parallelize_generator(data, split, splits),
            n,
            size_scale=size_scale,
            op_name=op_name,
        )

    def source(
        self,
        generator: Callable[[int, int], List],
        num_partitions: int,
        size_scale: float = 1.0,
        op_name: str = "source",
        cost: float = 1.0,
        version: Optional[str] = None,
    ) -> SourceRDD:
        """A re-splittable generated source (see :class:`SourceRDD`).

        Give each distinct dataset a distinct ``op_name`` — it is the
        source's structural signature. ``version`` (a content hash of
        the generator's parameters) makes the source eligible for
        zone-map statistics and the zone-map cache file.
        """
        return SourceRDD(
            self, generator, num_partitions,
            size_scale=size_scale, op_name=op_name, cost=cost,
            version=version,
        )

    def union(self, rdds: Sequence[RDD]) -> RDD:
        from repro.engine.rdd import UnionRDD

        return UnionRDD(self, list(rdds))

    def broadcast(self, value: Any) -> Broadcast:
        """Ship a value to every worker, recording the network traffic."""
        nbytes = estimate_size(value)
        now = self.sim.now
        for worker in self.cluster.workers:
            self.metrics.record_event("net_bytes", worker.name, now, nbytes)
        return Broadcast(value)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_job(
        self, rdd: RDD, result_fn: Optional[Callable] = None
    ) -> List[Any]:
        return self.dag_scheduler.run_job(rdd, result_fn)

    def sample_keys(self, rdd: RDD, max_partitions: int = 0) -> List:
        """Collect a key sample of a pair RDD via a lightweight job.

        Used to build range partitioners (Spark's sketch pass). Runs a
        real job, so any un-run parent shuffles execute — and are then
        reused by the main job, exactly like Spark's sampling jobs.
        ``max_partitions`` of 0 samples every partition.
        """
        per_part = RANGE_SAMPLE_PER_PARTITION

        def _sample(split: int, recs: List) -> List:
            if max_partitions and split >= max_partitions:
                return []
            if not recs:
                return []
            stride = max(1, len(recs) // per_part)
            return [r[0] for r in recs[::stride][:per_part]]

        sampled = rdd.map_partitions(_sample, op_name="keySample")
        return sampled.collect()

    # ------------------------------------------------------------------
    # CHOPPER hook
    # ------------------------------------------------------------------

    def set_advisor(self, advisor: Optional[Any]) -> None:
        """Install a partition advisor (``rewrite(final_rdd, ctx)``)."""
        self.advisor = advisor

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Total simulated time elapsed in this context."""
        return self.sim.now

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """End the run: release its resources and its object graph. Idempotent.

        Released: the zone maps its scans collected are written to the
        cache file and its backend closed, cached blocks and the shuffle
        blocks still held are dropped (a shuffle whose dependency died before the last job
        started is already gone: each job start releases those), spill
        files removed, pending simulator events discarded, and the
        schedulers let go of this context — so nothing the context owns
        points back at it, and a closed context is freed by refcount
        alone once the caller drops it. Close a context only once its
        results are collected.

        Stays readable: ``now``, ``stage_stats``, ``job_stats``,
        ``plan_events``, the metrics recorder and registry, the query
        cache's hit and miss counts, the spill manager's and the
        schedulers' tallies. A job submitted afterwards raises
        :class:`~repro.common.errors.SchedulingError` ("context is
        closed").
        """
        try:
            if self.query_cache is not None:
                # Keep the zone maps this run's scans collected.
                self.query_cache.flush()
        finally:
            # A failed cache write must still release the backend, the
            # blocks and the spill directory.
            if self.query_cache is not None:
                self.query_cache.close()
            self.block_store.clear()
            self.shuffle_manager.clear()
            if self.spill is not None:
                self.spill.close()
            self.sim.clear()
            self.dag_scheduler.close()
            self.task_scheduler.close()
