"""Task scheduling: dispatching stage tasks onto simulated executors.

A pull-style dispatcher over the cluster's worker cores:

* every worker node runs one executor with ``cores`` slots;
* queued tasks are first matched against their locality preferences
  (cached blocks, shuffle-output concentration), then spread FIFO onto
  whichever executor has the most free cores;
* when a task's simulated duration elapses, the slot frees and the next
  queued task launches — so fast nodes naturally take more tasks, which
  is how heterogeneity shapes stage makespan in the paper's testbed.

Optional failure injection (``EngineConf.task_failure_rate``) aborts a
task partway through its simulated run and requeues it, Spark-style, up
to ``max_task_attempts`` — the knob behind the paper's future-work
question about behaviour under failures.

Node-loss chaos (``EngineConf.node_failure_times`` /
``node_failure_rate``) goes further: at a configured or seeded
simulated time an entire executor dies — its running attempts are
requeued (Spark's "Resubmitted", not counted against the task's
failure budget), its cores leave the pool (returning after
``node_recovery_delay`` if set), its cached blocks are evicted and its
shuffle map outputs invalidated, so later fetches raise
:class:`~repro.common.errors.FetchFailure` and the DAG scheduler runs
the lineage-recovery path.

With ``EngineConf.copartition_scheduling`` enabled (CHOPPER mode), task
preferences additionally rank nodes by how many input bytes (map outputs
of all incoming shuffles) already sit there, so co-partitioned join sides
are read locally whenever possible (§III: the co-partitioning-aware
component).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.common.errors import ConfigurationError, FetchFailure, SchedulingError
from repro.common.rng import derive_seed, seeded_rng
from repro.engine import effects
from repro.engine.executor import TaskRunner
from repro.engine.listener import TaskMetrics
from repro.engine.task import Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import NodeSpec
    from repro.engine.context import AnalyticsContext
    from repro.engine.dag_scheduler import StageRun

# Speculation (Spark's spark.speculation.quantile / .multiplier): once
# this fraction of a stage's tasks have finished, a running task whose
# elapsed time exceeds the multiple of the median completed duration gets
# a duplicate attempt on another node.
SPECULATION_QUANTILE = 0.75
SPECULATION_MULTIPLIER = 1.5
# Seeded node failures (``node_failure_rate``) land inside the first
# this-many simulated seconds.
NODE_FAILURE_WINDOW = 30.0


# eq=False throughout: these are identity objects. Value equality would
# make a queued task unhashable (the running-task dict keys them) and an
# attempt's `.remove` an O(fields) deep compare per element that could
# remove the *wrong* equal-valued instance.


@dataclass(eq=False)
class _ExecutorState:
    spec: "NodeSpec"
    free_cores: int
    alive: bool = True


@dataclass(eq=False)
class _Attempt:
    """One running attempt of a task (speculation may run two)."""

    executor: "_ExecutorState"
    start: float
    event: object = None
    speculative: bool = False
    working_bytes: float = 0.0
    # Kept for span emission: the priced components and jittered total.
    breakdown: object = None
    duration: float = 0.0
    # Network-contention sharers, snapshotted at grant time: serial
    # counts the node's busy cores right after its own reservation, before
    # any later grant, so a batched apply must not recompute it.
    sharers: int = 1


@dataclass(eq=False)
class _QueuedTask:
    stage_run: "StageRun"
    task: Task
    attempts: list = field(default_factory=list)
    speculated: bool = False
    enqueued_at: float = 0.0


class TaskScheduler:
    """Global FIFO task queue with locality-preferring dispatch."""

    def __init__(self, ctx: "AnalyticsContext") -> None:
        self.ctx = ctx
        self.runner = TaskRunner(ctx)
        self._executors: Dict[str, _ExecutorState] = {
            worker.name: _ExecutorState(spec=worker, free_cores=worker.cores)
            for worker in ctx.cluster.workers
        }
        # Executors in name order: _most_free_executor's tie-break order.
        self._by_name = [self._executors[name] for name in sorted(self._executors)]
        # The queue in arrival order, keyed by an enqueue sequence number;
        # per executor, the ascending numbers of queued tasks that prefer
        # it (an entry whose task has left the queue is dropped once it
        # reaches the front).
        self._queue: "OrderedDict[int, _QueuedTask]" = OrderedDict()
        self._preferring: Dict[str, Deque[int]] = {
            name: deque() for name in self._executors
        }
        self._enqueues = count()
        # Tasks with at least one running attempt, in the order they
        # started running (speculation scans this); values unused.
        self._running_tasks: Dict[_QueuedTask, None] = {}
        # This context's own tallies (a metrics registry may be shared
        # between contexts): speculative attempts launched / that won
        # their race, failed attempts that were requeued, nodes killed.
        self.speculative_launches = 0
        self.speculative_wins = 0
        self.task_retries = 0
        self.nodes_lost = 0
        # Chaos bookkeeping: pending kill/recovery events (armed per job,
        # cancelled between jobs so a late failure time never drags the
        # clock past a finished job), nodes already killed once, and the
        # absolute recovery deadline of each currently dead node.
        self._chaos_events: list = []
        self._killed_nodes: set = set()
        self._node_recover_at: Dict[str, float] = {}
        self._planned_failures = self._plan_node_failures()
        # The utilization series an attempt's core time lands in, by how
        # it ended. An attempt that died at launch on a fetch failure, or
        # with its aborted job, records nothing. ``MetricsRecorder.nodes(
        # series)`` is every node that ever got a sample, so an extra
        # zero-valued interval would move Figs. 11-14.
        busy = ("cpu", "mem_working")
        self._endings = {
            "ok": busy, "cancelled": busy, "node-lost": busy,
            "failed": ("cpu",), "fetch-failed": (), "aborted": (),
        }

    def close(self) -> None:
        """Drop the context (its tallies and executor states stay readable)."""
        self.ctx = None
        self.runner.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit_tasks(self, stage_run: "StageRun", tasks) -> None:
        """Queue tasks of a stage, staggered by the driver dispatch rate.

        All of them at stage start; on recovery, the reduce tasks that
        were parked on a fetch failure, once the lost map outputs of
        their parent have been rebuilt. The driver serializes and
        launches tasks one at a time; task ``i`` becomes runnable ``i *
        driver_dispatch_interval`` after the call. With thousands of
        tasks this serial ramp is a real cost — the paper's
        2000-partition pathology.
        """
        interval = self.ctx.conf.cost.driver_dispatch_interval
        if interval <= 0:
            now = self.ctx.sim.now
            for task in tasks:
                self._push(_QueuedTask(stage_run, task, enqueued_at=now))
            self._dispatch()
            return
        for i, task in enumerate(tasks):
            self.ctx.sim.schedule(
                i * interval, self._enqueue, _QueuedTask(stage_run=stage_run, task=task)
            )

    def _enqueue(self, queued: "_QueuedTask") -> None:
        queued.enqueued_at = self.ctx.sim.now
        self._push(queued)
        self._dispatch()

    def _push(self, queued: "_QueuedTask") -> None:
        """Append a task to the queue and to its preferred nodes' lists."""
        seq = next(self._enqueues)
        self._queue[seq] = queued
        for name in queued.task.preferred_nodes:
            preferring = self._preferring.get(name)
            if preferring is not None:
                preferring.append(seq)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        if not self._queue:
            return
        # Fast path: with no free core anywhere neither pass can launch.
        if not any(e.alive and e.free_cores > 0 for e in self._by_name):
            self.ctx.obs.event("queue_depth", depth=len(self._queue))
            return
        # Batched (threaded) dispatch: grant decisions happen serially in
        # this scan; granted bodies run on the worker pool; effects apply
        # in grant order afterwards (see _run_batch). Entries: ("run",
        # queued, attempt) | ("fail", queued, attempt) — recorded in
        # serial event order so every sim.schedule lands with the same
        # (time, seq) as serial.
        batch: Optional[list] = [] if self._batching_allowed() else None
        # Pass 1: honor locality preferences where a core is free. This is
        # one scan of the queue in order that launches each task with a
        # free preferred node on the first such node, without visiting
        # the tasks that have none: the next launch is the earliest queued
        # task preferring a node with a free core, read off those nodes'
        # lists. No task the scan passed can be picked up again: a node's
        # free cores never grow during a scan (a launch that fails its
        # fetch only hands back the core it just took), so a node that
        # was full when the scan passed a task is still full.
        while True:
            seq = self._next_preferring()
            if seq is None:
                break
            queued = self._queue.pop(seq)
            self._launch(queued, self._match_preference(queued.task), batch=batch)
        # Pass 2: FIFO spread onto the executor with the most free cores.
        while self._queue:
            executor = self._most_free_executor()
            if executor is None:
                break
            self._launch(self._queue.popitem(last=False)[1], executor, batch=batch)
        if batch:
            self._run_batch(batch)
        self.ctx.obs.event("queue_depth", depth=len(self._queue))

    def _batching_allowed(self) -> bool:
        """Thread granted task bodies this dispatch round?

        Only when no shuffle is degraded: with no lost blocks a task body
        cannot raise FetchFailure, so no mid-scan core release can change
        which tasks the rest of the scan would grant — the grant
        decisions computed up front are exactly serial's. Chaos /
        node-loss rounds therefore always take the inline serial path.
        """
        return (
            self.ctx.conf.physical_parallelism > 1
            and not self.ctx.shuffle_manager.has_lost_blocks()
        )

    def _run_batch(self, batch: list) -> None:
        """Execute a dispatch round's grants, then apply in grant order."""
        runnable = [i for i, entry in enumerate(batch) if entry[0] == "run"]
        futures: Dict[int, object] = {}
        if len(runnable) > 1:
            pool = effects.worker_pool(self.ctx.conf.physical_parallelism)
            for i in runnable:
                _, queued, attempt = batch[i]
                futures[i] = pool.submit(
                    self.runner.execute_deferred,
                    queued.stage_run.stage,
                    queued.task,
                    attempt.executor.spec,
                    queued.stage_run.result_fn,
                )
        for i, entry in enumerate(batch):
            kind, queued = entry[0], entry[1]
            if kind == "fail":
                self._schedule_failure(queued, entry[2])
            else:
                future = futures.get(i)
                eff = future.result() if future is not None else None
                self._finish_launch(queued, entry[2], eff)

    def _next_preferring(self) -> Optional[int]:
        """The earliest queued task that prefers a node with a free core,
        as its enqueue number, or None."""
        queue = self._queue
        best: Optional[int] = None
        for executor in self._by_name:
            if not executor.alive or executor.free_cores <= 0:
                continue
            preferring = self._preferring[executor.spec.name]
            while preferring and preferring[0] not in queue:
                preferring.popleft()
            if preferring and (best is None or preferring[0] < best):
                best = preferring[0]
        return best

    def _match_preference(self, task: Task) -> Optional[_ExecutorState]:
        for pref in task.preferred_nodes:
            executor = self._executors.get(pref)
            if executor is not None and executor.alive and executor.free_cores > 0:
                return executor
        return None

    def _most_free_executor(
        self, exclude: Optional[str] = None
    ) -> Optional[_ExecutorState]:
        best: Optional[_ExecutorState] = None
        for executor in self._by_name:
            if executor.spec.name == exclude:
                continue
            if not executor.alive or executor.free_cores <= 0:
                continue
            if best is None or executor.free_cores > best.free_cores:
                best = executor
        return best

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------

    def _launch(
        self,
        queued: _QueuedTask,
        executor: _ExecutorState,
        speculative: bool = False,
        batch: Optional[list] = None,
    ) -> None:
        """Grant a core; run the attempt now, or enter it in ``batch``."""
        attempt, fail = self._grant(queued, executor, speculative)
        if batch is not None:
            batch.append(("fail" if fail else "run", queued, attempt))
        elif fail:
            self._schedule_failure(queued, attempt)
        else:
            self._finish_launch(queued, attempt, None)

    def _grant(
        self,
        queued: _QueuedTask,
        executor: _ExecutorState,
        speculative: bool,
    ) -> "tuple[_Attempt, bool]":
        """Reserve a core and do the launch bookkeeping (serial order)."""
        executor.free_cores -= 1
        start = self.ctx.sim.now
        attempt = _Attempt(executor=executor, start=start, speculative=speculative)
        attempt.sharers = executor.spec.cores - executor.free_cores
        queued.attempts.append(attempt)
        self._running_tasks[queued] = None
        self.ctx.obs.event(
            "task_launched",
            queue_wait=None if speculative else max(0.0, start - queued.enqueued_at),
        )
        # Failure injection: a seeded per-attempt coin.
        rate = self.ctx.conf.task_failure_rate
        fail = rate > 0.0 and bool(
            self._draw("task-failure", queued, attempt).random() < rate
        )
        return attempt, fail

    def _draw(
        self, tag: str, queued: _QueuedTask, attempt: Optional[_Attempt] = None
    ):
        """The seeded generator behind one random draw about a task.

        Keyed by what identifies the draw across runs: stage run, task
        index, attempt number and, given the ``attempt``, which of two
        racing attempts is drawing.
        """
        lane = () if attempt is None else ("spec" if attempt.speculative else "main",)
        return seeded_rng(
            derive_seed(
                self.ctx.conf.seed,
                tag,
                queued.stage_run.stats.stage_run_id,
                queued.task.partition,
                queued.task.attempt,
                *lane,
            )
        )

    def _schedule_failure(self, queued: _QueuedTask, attempt: _Attempt) -> None:
        # The attempt dies partway through, somewhere in its first few
        # seconds: burn some simulated time on the core, produce no side
        # effects, then retry (unless a sibling attempt is still running).
        fail_after = float(
            0.1 + self._draw("task-failure-delay", queued).random() * 2.0
        )
        attempt.event = self.ctx.sim.schedule(
            fail_after, self._on_attempt_failed, queued, attempt
        )

    def _finish_launch(
        self,
        queued: _QueuedTask,
        attempt: _Attempt,
        eff: Optional["effects.TaskEffects"],
    ) -> None:
        sim = self.ctx.sim
        start = attempt.start
        task = queued.task
        stage_run = queued.stage_run
        executor = attempt.executor
        try:
            if eff is None:
                breakdown, tctx, result = self.runner.execute(
                    stage_run.stage, task, executor.spec, stage_run.result_fn
                )
            else:
                breakdown, tctx, result = self.runner.finish_deferred(
                    eff, stage_run.stage, task, executor.spec, stage_run.result_fn
                )
        except FetchFailure as failure:
            # The task's shuffle inputs died with a node. Free the core,
            # then hand the task to the DAG scheduler: it resubmits the
            # parent map stage for the lost partitions and requeues this
            # task once they are rebuilt.
            self._end_attempt(queued, attempt, "fetch-failed")
            if queued.attempts:
                # A sibling attempt launched before the loss already has
                # its data; let it win.
                return
            self.ctx.dag_scheduler.handle_fetch_failure(stage_run, task, failure)
            return
        if self.ctx.conf.cost.network_contention:
            # The NIC is shared: remote fetch slows with the node's
            # concurrency at launch (a coarse fair-share model).
            breakdown.shuffle_fetch *= max(1, attempt.sharers)
        duration = breakdown.total
        sigma = self.ctx.conf.cost.jitter_sigma
        if sigma > 0:
            # Deterministic lognormal duration noise (stragglers).
            rng = self._draw("jitter", queued, attempt)
            duration *= float(rng.lognormal(mean=0.0, sigma=sigma))
        attempt.working_bytes = tctx.max_partition_bytes
        attempt.breakdown = breakdown
        attempt.duration = duration
        metrics = TaskMetrics(
            stage_run_id=stage_run.stats.stage_run_id,
            task_index=task.partition,
            node=executor.spec.name,
            start=start,
            end=start + duration,
            input_bytes=tctx.input_bytes,
            cache_read_bytes=tctx.cache_read_bytes,
            compute_bytes=tctx.compute_bytes,
            records_out=tctx.records_out,
            shuffle_read_local=tctx.shuffle_read_local,
            shuffle_read_remote=tctx.shuffle_read_remote,
            shuffle_write=tctx.shuffle_write,
            attempt=queued.task.attempt,
            speculative=attempt.speculative,
        )
        self._record_io_events(tctx, executor.spec, start)
        attempt.event = sim.schedule(
            duration, self._on_attempt_done, queued, attempt, metrics, result
        )

    def _end_attempt(
        self,
        queued: _QueuedTask,
        attempt: _Attempt,
        outcome: str,
        metrics: Optional[TaskMetrics] = None,
    ) -> None:
        """The one way an attempt stops: free its core, detach it from its
        task (and the task from the running list with its last attempt),
        account for it. What happens to the *task* next (complete, retry,
        requeue, park) is the caller's business.
        """
        if attempt.event is not None:
            attempt.event.cancel()  # a no-op for the event firing right now
            # The event's args hold the attempt: dropping the link lets a
            # finished attempt die by refcount, not by the cyclic gc.
            attempt.event = None
        attempt.executor.free_cores += 1
        queued.attempts.remove(attempt)
        if not queued.attempts:
            del self._running_tasks[queued]
        node = attempt.executor.spec.name
        for name in self._endings[outcome]:
            # Actual busy span: a winner's full run, a loser's partial one.
            self.ctx.metrics.record_interval(
                name, node, attempt.start, self.ctx.sim.now,
                1.0 if name == "cpu" else attempt.working_bytes,
            )
        stats = queued.stage_run.stats
        self.ctx.obs.event(
            "attempt_ended", outcome=outcome,
            stage=stats.name, stage_run=stats.stage_run_id,
            partition=queued.task.partition, attempt=queued.task.attempt,
            node=node, speculative=attempt.speculative, start=attempt.start,
            duration=attempt.duration, breakdown=attempt.breakdown, metrics=metrics,
        )

    def _on_attempt_done(
        self,
        queued: _QueuedTask,
        attempt: _Attempt,
        metrics: TaskMetrics,
        result: object,
    ) -> None:
        if attempt.speculative:
            self.speculative_wins += 1
            self.ctx.obs.event("speculative_win")
        self._end_attempt(queued, attempt, "ok", metrics)
        # Kill the losing sibling attempt(s): their completion is
        # cancelled and their cores free now.
        for loser in list(queued.attempts):
            self._end_attempt(queued, loser, "cancelled")
        self.ctx.obs.event(
            "task_finished",
            stage=queued.stage_run.stats.name,
            stage_run=queued.stage_run.stats.stage_run_id,
            partition=queued.task.partition, attempt=queued.task.attempt,
            node=attempt.executor.spec.name,
            speculative=attempt.speculative or None,
            duration=attempt.duration,
        )
        queued.stage_run.task_finished(queued.task, metrics, result)
        self.ctx.listener_bus.task_end(metrics)
        self._maybe_speculate(queued.stage_run)
        self._dispatch()

    def _on_attempt_failed(self, queued: _QueuedTask, attempt: _Attempt) -> None:
        self._end_attempt(queued, attempt, "failed")
        task = queued.task
        if queued.attempts:
            # A sibling (speculative) attempt is still running; let it win.
            self._dispatch()
            return
        task.attempt += 1
        if task.attempt >= self.ctx.conf.max_task_attempts:
            raise SchedulingError(
                f"task {task.label} failed {task.attempt} times; aborting stage "
                f"{queued.stage_run.stage.name}"
            )
        self.task_retries += 1
        self.ctx.obs.event(
            "task_retry",
            stage=queued.stage_run.stats.name, partition=task.partition,
            attempt=task.attempt, node=attempt.executor.spec.name,
        )
        queued.speculated = False
        queued.enqueued_at = self.ctx.sim.now
        self._push(queued)
        self._dispatch()

    def abort_tasks(self) -> None:
        """Forget a job that died: end its attempts, drop its queue."""
        for queued in list(self._running_tasks):
            for attempt in list(queued.attempts):
                self._end_attempt(queued, attempt, "aborted")
        self._queue.clear()
        for preferring in self._preferring.values():
            preferring.clear()
        self.ctx.obs.event("queue_depth", depth=0)

    # ------------------------------------------------------------------
    # Speculative execution
    # ------------------------------------------------------------------

    def _maybe_speculate(self, stage_run: "StageRun") -> None:
        """Launch duplicate attempts for stragglers (Spark speculation).

        Both attempts execute the real computation, so a speculative map
        task re-registers identical shuffle blocks (the registry replaces
        them); the simulated cost of the duplicate work is charged.
        """
        conf = self.ctx.conf
        if not conf.speculation:
            return
        completed = stage_run.stats.tasks
        total = len(stage_run.tasks)
        if total == 0 or len(completed) < SPECULATION_QUANTILE * total:
            return
        durations = sorted(t.duration for t in completed)
        median = durations[len(durations) // 2]
        threshold = SPECULATION_MULTIPLIER * max(median, 1e-9)
        now = self.ctx.sim.now
        for queued in list(self._running_tasks):
            if queued.stage_run is not stage_run:
                continue
            if queued.speculated or not queued.attempts:
                continue
            if now - queued.attempts[0].start <= threshold:
                continue
            executor = self._most_free_executor(
                exclude=queued.attempts[0].executor.spec.name
            )
            if executor is None:
                continue
            queued.speculated = True
            self.speculative_launches += 1
            self.ctx.obs.event(
                "speculative_launch",
                stage=stage_run.stats.name,
                partition=queued.task.partition,
                node=executor.spec.name,
            )
            self._launch(queued, executor, speculative=True)

    # ------------------------------------------------------------------
    # Node-loss chaos
    # ------------------------------------------------------------------

    def _plan_node_failures(self) -> Dict[str, float]:
        """Resolve chaos config into {node: absolute failure time}.

        Deterministic times come straight from ``node_failure_times``;
        ``node_failure_rate`` additionally rolls a seeded die per worker
        for a failure somewhere inside ``NODE_FAILURE_WINDOW``.
        """
        conf = self.ctx.conf
        times: Dict[str, float] = {}
        for name, when in (conf.node_failure_times or {}).items():
            if name not in self._executors:
                raise ConfigurationError(
                    f"node_failure_times names unknown worker {name!r}"
                )
            times[name] = float(when)
        if conf.node_failure_rate > 0:
            for name in sorted(self._executors):
                if name in times:
                    continue
                rng = seeded_rng(derive_seed(conf.seed, "node-failure", name))
                if rng.random() < conf.node_failure_rate:
                    times[name] = float(rng.random() * NODE_FAILURE_WINDOW)
        if (
            times
            and len(times) >= len(self._executors)
            and conf.node_recovery_delay <= 0
        ):
            raise ConfigurationError(
                "node failure plan kills every worker permanently; "
                "set node_recovery_delay or spare at least one node"
            )
        return times

    def arm_chaos(self) -> None:
        """Schedule this job's pending node failures (and recoveries).

        Called by the DAG scheduler at job start. Failure times are
        absolute simulated times, so a node whose time already passed in
        an earlier job dies immediately; nodes already killed once stay
        killed (or recover on their own schedule).
        """
        if not self._planned_failures and not self._node_recover_at:
            return
        sim = self.ctx.sim
        now = sim.now
        for name, when in sorted(self._planned_failures.items()):
            if name in self._killed_nodes:
                continue
            self._chaos_events.append(
                sim.schedule_at(max(now, when), self._fail_node, name)
            )
        for name, when in sorted(self._node_recover_at.items()):
            if not self._executors[name].alive:
                self._chaos_events.append(
                    sim.schedule_at(max(now, when), self._recover_node, name)
                )

    def disarm_chaos(self) -> None:
        """Cancel pending chaos events at job end.

        ``sim.run()`` drains the whole event heap, so a failure timed
        after the job's last task would otherwise drag the clock (and
        the job's wall time) out to the chaos schedule.
        """
        for event in self._chaos_events:
            event.cancel()
        self._chaos_events.clear()

    def _fail_node(self, name: str) -> None:
        """Kill one executor: fail its attempts, drop its state, its cores."""
        executor = self._executors[name]
        if not executor.alive:
            return
        executor.alive = False
        self._killed_nodes.add(name)
        self.nodes_lost += 1
        now = self.ctx.sim.now
        # Every attempt running on the dead node dies with it. The task
        # is requeued without charging its failure budget — Spark's
        # "Resubmitted" reason, distinct from a task *failure*.
        for queued in list(self._running_tasks):
            victims = [a for a in queued.attempts if a.executor is executor]
            for attempt in victims:
                self._end_attempt(queued, attempt, "node-lost")
            if victims and not queued.attempts:
                queued.task.attempt += 1
                queued.speculated = False
                queued.enqueued_at = now
                self._push(queued)
        executor.free_cores = 0
        lost = self.ctx.shuffle_manager.invalidate_node(name)
        evicted = self.ctx.block_store.evict_node(name)
        self.ctx.obs.event(
            "node_lost", node=name, shuffles_hit=len(lost), cached_blocks_lost=evicted
        )
        if self.ctx.conf.node_recovery_delay > 0:
            recover_at = now + self.ctx.conf.node_recovery_delay
            self._node_recover_at[name] = recover_at
            self._chaos_events.append(
                self.ctx.sim.schedule_at(recover_at, self._recover_node, name)
            )
        self._dispatch()

    def _recover_node(self, name: str) -> None:
        """Bring a dead node's cores back as a fresh, empty executor."""
        executor = self._executors[name]
        if executor.alive:
            return
        executor.alive = True
        executor.free_cores = executor.spec.cores
        self._node_recover_at.pop(name, None)
        self.ctx.obs.event("node_recovered", node=name)
        self._dispatch()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def _record_io_events(self, tctx, node: "NodeSpec", start: float) -> None:
        metrics = self.ctx.metrics
        name = node.name
        remote_in = tctx.shuffle_read_remote + sum(
            tctx.cache_remote_by_src.values()
        )
        if remote_in > 0:
            metrics.record_event("net_bytes", name, start, remote_in)
        for src, nbytes in tctx.shuffle_read_remote_by_src.items():
            metrics.record_event("net_bytes", src, start, nbytes)
        for src, nbytes in tctx.cache_remote_by_src.items():
            metrics.record_event("net_bytes", src, start, nbytes)
        disk_bytes = (
            tctx.input_bytes + tctx.shuffle_write + tctx.shuffle_read_local
        )
        if disk_bytes > 0:
            metrics.record_event(
                "disk_transactions",
                name,
                start,
                self.runner.cost_model.disk_transactions(disk_bytes),
            )

    # ------------------------------------------------------------------
    # Introspection (tests, utilization accounting)
    # ------------------------------------------------------------------

    def free_cores(self, node: str) -> int:
        return self._executors[node].free_cores
