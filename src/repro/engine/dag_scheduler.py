"""The DAGScheduler: jobs → stages → tasks, with the CHOPPER hooks.

Faithful to the structure in the paper's Fig. 1: an action submits a job;
the lineage is cut at shuffle dependencies into ShuffleMapStages plus one
ResultStage; a stage launches when all its parents have completed; map
outputs persist, so a shuffle already computed by an earlier job is
skipped (Spark's stage-skipping) for as long as an RDD can still read
it. Once its dependency is garbage, the next job's start drops it
(Spark's ContextCleaner).

The two CHOPPER integration points (§III-A — "the scheduler checks the
Spark configuration file before a stage is executed"):

1. ``ctx.advisor.rewrite(final_rdd, ctx)`` runs at job submission, before
   stages are built — the advisor mutates shuffle-dependency partitioners
   / source partition counts per the workload config file and re-aligns
   co-partitioned joins;
2. pending schemes left by the rewrite (range partitioners that need real
   key samples) are resolved just before the map stage that writes them
   launches, charging a sampling delay.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.errors import FetchFailure, SchedulingError, StageAbortedError
from repro.engine.adaptive import AdaptivePlan, replan
from repro.engine.dependencies import ShuffleDependency
from repro.engine.listener import JobStats, StageStats
from repro.engine.stage import RESULT, SHUFFLE_MAP, Stage
from repro.engine.task import Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import AnalyticsContext
    from repro.engine.rdd import RDD

# Lineage recovery bounds: total runs of one map stage (first run +
# fetch-failure resubmissions) before aborting the job, and how long the
# scheduler waits to batch concurrent fetch failures before resubmitting
# (Spark's resubmit delay).
MAX_STAGE_ATTEMPTS = 4
STAGE_RESUBMIT_DELAY = 0.05


def _post_order(stage: Stage, seen: Set[int], ordered: List[Stage]) -> None:
    """Append ``stage`` and its ancestors to ``ordered``, parents first."""
    if stage.stage_id in seen:
        return
    seen.add(stage.stage_id)
    for parent in stage.parents:
        _post_order(parent, seen, ordered)
    ordered.append(stage)


class StageRun:
    """Execution state of one stage within one job."""

    def __init__(
        self,
        stage: Stage,
        stats: StageStats,
        tasks: List[Task],
        result_fn: Optional[Callable],
        on_complete: Callable[["StageRun"], None],
    ) -> None:
        self.stage = stage
        self.stats = stats
        self.tasks = tasks
        self.result_fn = result_fn
        self.results: Dict[int, Any] = {}
        self.completed_partitions: Set[int] = set()
        self._remaining = len(tasks)
        self._on_complete = on_complete

    def task_finished(self, task: Task, metrics, result: Any) -> None:
        if task.partition in self.completed_partitions:
            # A parked copy of a task whose speculative sibling already
            # won must not double-complete the partition.
            return
        self.completed_partitions.add(task.partition)
        self.stats.tasks.append(metrics)
        self.stats.input_bytes += (
            metrics.input_bytes + metrics.cache_read_bytes + metrics.shuffle_read
        )
        self.stats.shuffle_read_bytes += metrics.shuffle_read
        self.stats.shuffle_write_bytes += metrics.shuffle_write
        if self.stage.kind == RESULT:
            # ``task.partition`` is a *physical* index while
            # ``self.results`` is keyed by original split, so the final
            # ``job.results`` assembly is the same whatever layout the
            # stage ran in.
            self.results.update(zip(task.splits, result))
        self._remaining -= 1
        if self._remaining == 0:
            self._on_complete(self)


class _JobState:
    def __init__(
        self,
        job_id: int,
        result_fn: Optional[Callable],
        submitted_at: float,
        shuffle_stages: Dict[int, Stage],
    ) -> None:
        self.stats = JobStats(job_id=job_id, submitted_at=submitted_at)
        self.result_fn = result_fn
        self.results: Optional[List[Any]] = None
        self.waiting: List[Stage] = []
        self.running: Set[int] = set()  # ids of the running stages
        # Lineage recovery: the map stage behind each shuffle the job
        # reads, reduce tasks parked on a fetch failure awaiting the
        # rebuild, and shuffle ids with a resubmission already scheduled.
        # Per job, so a finished or dead job's stages (and through them
        # its shuffle dependencies) go with it.
        self.shuffle_stages = shuffle_stages
        self.parked: Dict[int, List[Tuple[StageRun, Task]]] = {}
        self.resubmitting: Set[int] = set()
        # AQE: the adaptive plan derived at each stage's first full
        # launch (None = measured sizes asked for no change). Cached by
        # stage id so any later full launch of the same stage object
        # reuses the derived plan rather than re-deciding.
        self.adaptive_plans: Dict[int, Optional["AdaptivePlan"]] = {}

    @property
    def done(self) -> bool:
        return self.results is not None


class DAGScheduler:
    """Builds and drives the stage graph of each job."""

    def __init__(self, ctx: "AnalyticsContext") -> None:
        self.ctx = ctx
        self._completed_shuffles: Set[int] = set()
        self._job: Optional[_JobState] = None
        # This context's own tallies (a metrics registry may be shared
        # between contexts).
        self.fetch_failures = 0
        self.stage_resubmissions = 0

    # ------------------------------------------------------------------
    # Job entry point
    # ------------------------------------------------------------------

    def run_job(
        self, final_rdd: "RDD", result_fn: Optional[Callable] = None
    ) -> List[Any]:
        """Execute an action: returns the per-partition results in order."""
        self._check_open()
        if self._job is not None:
            raise SchedulingError("nested run_job is not supported")
        # Shuffles no live RDD can read again are dropped between jobs.
        self._completed_shuffles.difference_update(
            self.ctx.shuffle_manager.release_dead()
        )
        if self.ctx.advisor is not None:
            wall0 = time.perf_counter()
            self.ctx.advisor.rewrite(final_rdd, self.ctx)
            self.ctx.obs.event(
                "advisor_rewrite", advisor=type(self.ctx.advisor).__name__,
                wall_ms=round((time.perf_counter() - wall0) * 1e3, 3),
            )
        shuffle_stages: Dict[int, Stage] = {}
        final_stage = self._build(final_rdd, RESULT, None, shuffle_stages)
        job = _JobState(
            self.ctx.next_job_id(), result_fn, self.ctx.sim.now, shuffle_stages
        )
        self._job = job
        self.ctx.obs.event(
            "job_started", job=job.stats.job_id, final_stage=final_stage.name
        )
        try:
            self.ctx.task_scheduler.arm_chaos()
            self._submit_stage(final_stage)
            self.ctx.sim.run()
            if not job.done:
                raise SchedulingError(
                    f"job {job.stats.job_id} stalled: event queue drained with "
                    f"stages still waiting"
                )
        finally:
            self.ctx.task_scheduler.disarm_chaos()
            self._job = None
            if not job.done:
                # The job died (a task or stage ran out of attempts, user
                # code raised): nothing of it may outlive this call, or
                # the next job's sim.run() would fire its events. One job
                # runs at a time, so every pending event is the dead
                # job's. The clock stays where it stopped.
                self.ctx.task_scheduler.abort_tasks()
                self.ctx.sim.clear()
        job.stats.completed_at = self.ctx.sim.now
        self.ctx.job_stats.append(job.stats)
        self.ctx.listener_bus.job_end(job.stats)
        assert job.results is not None
        return job.results

    def close(self) -> None:
        """Drop the context; the tallies stay readable."""
        self.ctx = None

    def _check_open(self) -> None:
        if self.ctx is None:
            raise SchedulingError("context is closed")

    # ------------------------------------------------------------------
    # Stage graph construction
    # ------------------------------------------------------------------

    def provisional_stages(self, final_rdd: "RDD") -> List[Stage]:
        """Build the stage graph without executing — the advisor's view.

        Returns every stage of the would-be job in dependency order
        (parents before children), final stage last. Stages already
        satisfied by completed shuffles are included (marked completed).
        """
        self._check_open()
        ordered: List[Stage] = []
        _post_order(self._build(final_rdd, RESULT, None, {}), set(), ordered)
        return ordered

    # The graph is built by two mutually recursive methods over an
    # explicit per-job map, not by nested closures: a recursive closure is
    # a function <-> cell cycle that only the cyclic collector frees.

    def _build(
        self,
        rdd: "RDD",
        kind: str,
        dep: Optional[ShuffleDependency],
        stage_by_shuffle: Dict[int, Stage],
    ) -> Stage:
        # Numbered before its parents are built (ancestors get the higher
        # ids), and cut where its own pipeline walk meets a shuffle:
        # building the graph costs each stage its one walk.
        stage = Stage(self.ctx.next_stage_id(), rdd, kind, shuffle_dep=dep)
        for incoming in stage.incoming_shuffle_deps():
            parent = self._stage_for(incoming, stage_by_shuffle)
            if parent not in stage.parents:
                stage.parents.append(parent)
        return stage

    def _stage_for(
        self, dep: ShuffleDependency, stage_by_shuffle: Dict[int, Stage]
    ) -> Stage:
        existing = stage_by_shuffle.get(dep.shuffle_id)
        if existing is not None:
            return existing
        stage = self._build(dep.parent, SHUFFLE_MAP, dep, stage_by_shuffle)
        if dep.shuffle_id in self._completed_shuffles:
            stage.completed = True
        stage_by_shuffle[dep.shuffle_id] = stage
        return stage

    # ------------------------------------------------------------------
    # Stage submission
    # ------------------------------------------------------------------

    def _submit_stage(self, stage: Stage) -> None:
        job = self._job
        assert job is not None
        if stage.completed or stage.stage_id in job.running or stage in job.waiting:
            return
        missing = [p for p in stage.parents if not p.completed]
        if missing:
            job.waiting.append(stage)
            for parent in missing:
                self._submit_stage(parent)
            return
        self._run_stage(stage)

    def _run_stage(
        self,
        stage: Stage,
        missing: Optional[List[int]] = None,
        attempt: int = 0,
    ) -> None:
        """Launch a stage: every split, or (lineage recovery) the ``missing``."""
        job = self._job
        assert job is not None
        job.running.add(stage.stage_id)

        delay = 0.0
        dep = stage.shuffle_dep
        if dep is not None:
            if dep.pending_scheme is not None:
                dep.partitioner, delay = dep.pending_scheme.resolve(self.ctx, stage)
                dep.pending_scheme = None
            self.ctx.shuffle_manager.register(
                dep.shuffle_id, stage.num_tasks, dep.num_reduce_partitions, dep
            )

        # The launch's (task index, splits) pairs. The static layout is
        # one split per task, indexed by the split; a relaunch of lost map
        # partitions is the same over ``missing`` (the rebuilt outputs
        # must land under their original map ids) and parked reduce tasks
        # keep their splits, so a recovered run never re-decides anything.
        # With AQE on, a stage's first full launch asks the planner, which
        # answers None (keep the static layout) or a layout re-planned
        # from the measured shuffle inputs, indexed by plan position.
        plan = None
        if self.ctx.conf.adaptive_execution and missing is None:
            if stage.stage_id not in job.adaptive_plans:
                job.adaptive_plans[stage.stage_id] = replan(self.ctx, stage)
            plan = job.adaptive_plans[stage.stage_id]
        if plan is not None:
            specs = list(enumerate(plan.specs))
        else:
            indices = range(stage.num_tasks) if missing is None else missing
            specs = [(i, (i,)) for i in indices]

        stats = StageStats(
            stage_run_id=self.ctx.next_stage_run_id(),
            job_id=job.stats.job_id,
            signature=stage.signature,
            name=stage.name,
            kind=stage.kind,
            num_partitions=stage.num_tasks,
            submitted_at=self.ctx.sim.now + delay,
            parent_signatures=[p.signature for p in stage.parents],
            attempt=attempt,
            adapted_num_partitions=len(specs) if plan is not None else None,
            **stage.pipeline_facts(),
        )
        # Cached pipeline RDDs sharing the stage's partition space: where
        # their blocks sit is each task's first locality preference.
        cached = [
            rdd.id
            for rdd in stage.cached_rdds()
            if rdd.num_partitions == stage.num_tasks
        ]
        tasks = [
            Task(stage, i, splits, self._preferences(stage, splits, cached))
            for i, splits in specs
        ]
        result_fn = job.result_fn if stage.kind == RESULT else None
        run = StageRun(stage, stats, tasks, result_fn, self._on_stage_complete)
        self.ctx.obs.event(
            "stage_submitted",
            job=job.stats.job_id, stage=stats.name, stage_run=stats.stage_run_id,
            kind=stats.kind, tasks=len(run.tasks), attempt=attempt,
        )
        if delay > 0:
            self.ctx.sim.schedule(
                delay, self.ctx.task_scheduler.submit_tasks, run, run.tasks
            )
        else:
            self.ctx.task_scheduler.submit_tasks(run, run.tasks)

    def _on_stage_complete(self, run: StageRun) -> None:
        job = self._job
        assert job is not None
        stage = run.stage
        stage.completed = True
        job.running.discard(stage.stage_id)
        run.stats.completed_at = self.ctx.sim.now
        if stage.kind == SHUFFLE_MAP:
            assert stage.shuffle_dep is not None
            # Snapshot how the map output landed across reduce partitions
            # (the skew detector's data-side signal).
            run.stats.output_partition_bytes = (
                self.ctx.shuffle_manager.partition_sizes(
                    stage.shuffle_dep.shuffle_id
                )
            )
        self.ctx.stage_stats.append(run.stats)
        job.stats.stages.append(run.stats)
        self.ctx.listener_bus.stage_completed(run.stats)

        if stage.kind == SHUFFLE_MAP:
            assert stage.shuffle_dep is not None
            shuffle_id = stage.shuffle_dep.shuffle_id
            self._completed_shuffles.add(shuffle_id)
            self._requeue_parked(shuffle_id)
            self._wake_waiting()
        else:
            job.results = [run.results[i] for i in range(stage.num_tasks)]
            # The job is done; cancel chaos events still in the heap so a
            # kill timed after the last task cannot drag the clock (and
            # the job's wall time) out to the chaos schedule. Unfired
            # failures re-arm at the next job.
            self.ctx.task_scheduler.disarm_chaos()

    # ------------------------------------------------------------------
    # Lineage recovery (fetch failures after node loss)
    # ------------------------------------------------------------------

    def handle_fetch_failure(
        self, stage_run: StageRun, task: Task, failure: FetchFailure
    ) -> None:
        """A reduce task found its map inputs gone: park it, rebuild them.

        Called by the task scheduler. The task waits (parked, off the
        queue) while the parent map stage re-runs for exactly the lost
        map partitions; concurrent failures of the same shuffle batch
        into one resubmission after ``STAGE_RESUBMIT_DELAY``.
        """
        self.fetch_failures += 1
        self.ctx.obs.event(
            "fetch_failure",
            shuffle=failure.shuffle_id, stage=stage_run.stats.name,
            partition=task.partition, lost_node=failure.node,
            lost_maps=len(failure.map_ids),
        )
        task.attempt += 1
        job = self._job
        assert job is not None
        job.parked.setdefault(failure.shuffle_id, []).append((stage_run, task))
        if failure.shuffle_id not in job.resubmitting:
            job.resubmitting.add(failure.shuffle_id)
            self.ctx.sim.schedule(
                STAGE_RESUBMIT_DELAY,
                self._resubmit_map_stage,
                failure.shuffle_id,
            )

    def _resubmit_map_stage(self, shuffle_id: int) -> None:
        assert self._job is not None
        stage = self._job.shuffle_stages[shuffle_id]
        missing = self.ctx.shuffle_manager.missing_map_ids(shuffle_id)
        if not missing:
            # Rebuilt in the meantime (e.g. by a speculative map attempt
            # landing after the loss): just release the parked tasks.
            self._requeue_parked(shuffle_id)
            return
        stage.attempts += 1
        if stage.attempts >= MAX_STAGE_ATTEMPTS:
            raise StageAbortedError(
                f"stage {stage.name} resubmitted {stage.attempts} times "
                f"(MAX_STAGE_ATTEMPTS={MAX_STAGE_ATTEMPTS}); aborting job"
            )
        stage.completed = False
        self._completed_shuffles.discard(shuffle_id)
        self.stage_resubmissions += 1
        self.ctx.obs.event(
            "stage_resubmitted", shuffle=shuffle_id, stage=stage.name,
            missing_maps=len(missing), attempt=stage.attempts,
        )
        self._run_stage(stage, missing, attempt=stage.attempts)

    def _requeue_parked(self, shuffle_id: int) -> None:
        """Release reduce tasks parked on ``shuffle_id`` back to the queue."""
        job = self._job
        assert job is not None
        job.resubmitting.discard(shuffle_id)
        parked = job.parked.pop(shuffle_id, None)
        if not parked:
            return
        by_run: Dict[int, Tuple[StageRun, List[Task]]] = {}
        for run, task in parked:
            if task.partition in run.completed_partitions:
                continue
            by_run.setdefault(id(run), (run, []))[1].append(task)
        for run, tasks in by_run.values():
            self.ctx.task_scheduler.submit_tasks(run, tasks)

    def _wake_waiting(self) -> None:
        job = self._job
        assert job is not None
        ready = [
            s for s in job.waiting if all(p.completed for p in s.parents)
        ]
        for stage in ready:
            job.waiting.remove(stage)
            self._run_stage(stage)

    # ------------------------------------------------------------------
    # Locality preferences
    # ------------------------------------------------------------------

    def _preferences(
        self, stage: Stage, splits: Tuple[int, ...], cached: List[int]
    ) -> List[str]:
        """Nodes a task would rather run on, for every split it covers."""
        prefs: List[str] = []
        for split in splits:
            # 1. Cached blocks of pipeline RDDs with the same partition space.
            for rdd_id in cached:
                loc = self.ctx.block_store.location(rdd_id, split)
                if loc is not None and loc not in prefs:
                    prefs.append(loc)
            # 2. Co-partition-aware placement (CHOPPER mode): rank nodes by
            # how many incoming shuffle bytes for this partition they host.
            if self.ctx.conf.copartition_scheduling:
                by_node: Dict[str, float] = {}
                for dep in stage.incoming_shuffle_deps():
                    if not self.ctx.shuffle_manager.is_registered(dep.shuffle_id):
                        continue
                    for node, nbytes in self.ctx.shuffle_manager.map_output_nodes(
                        dep.shuffle_id, split
                    ).items():
                        by_node[node] = by_node.get(node, 0.0) + nbytes
                for node in sorted(by_node, key=lambda n: (-by_node[n], n))[:2]:
                    if node not in prefs:
                        prefs.append(node)
        # A task over several splits keeps the first three of their union.
        return prefs if len(splits) == 1 else prefs[:3]
