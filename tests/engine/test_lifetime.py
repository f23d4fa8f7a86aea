"""A closed context is freed by refcount: nothing it owns points back at it.

And a shuffle dies with its dependency: once no RDD can read it, the next
job's start drops its map outputs.

Each case runs with the cyclic collector disabled, closes its context and
drops the last reference. The context must be gone at once (its weakref
dead), and a full collection afterwards must find no object of this
package: no scheduler, stage, RDD, hub or recursive walk left in a cycle
for a later gen-2 collection to free. The same cases run under
``python -X dev`` in CI, where a ``close()`` that leaks a spill file (or,
from Python 3.13, a sqlite connection) fails on the ``ResourceWarning``.
"""

from __future__ import annotations

import gc
import os
import sqlite3
import weakref

import pytest

from repro.chopper.runner import RunSpec, measured_run
from repro.cluster import paper_cluster, uniform_cluster
from repro.common.errors import SchedulingError
from repro.engine import AnalyticsContext, EngineConf
from repro.engine.costmodel import CostModelConfig
from repro.engine.listener import Listener
from repro.workloads import KMeansWorkload, SQLWorkload
from tests.engine.test_speculation import straggler_cluster


def _owned(obj) -> bool:
    """An instance of a class of this package, or one of its functions."""
    if type(obj).__module__.startswith("repro"):
        return True
    return type(obj).__name__ == "function" and (obj.__module__ or "").startswith(
        "repro"
    )


def _repro_garbage() -> list:
    """What a full collection would free now, restricted to this package."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return [type(o).__qualname__ for o in gc.garbage if _owned(o)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def assert_freed_by_refcount(run) -> None:
    """``run()`` returns a context it has used; close it and let go."""
    gc.collect()
    gc.disable()
    try:
        ctx = run()
        ctx.close()
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None, "the closed context outlived its last reference"
        assert _repro_garbage() == []
    finally:
        gc.enable()


def rdd_job():
    ctx = AnalyticsContext(
        uniform_cluster(n_workers=4, cores=4), EngineConf(default_parallelism=8)
    )
    pairs = ctx.parallelize([(i % 7, i) for i in range(200)], 8)
    assert len(pairs.reduce_by_key(lambda a, b: a + b).collect()) == 7
    return ctx


def kmeans_spill():
    w = KMeansWorkload(
        virtual_gb=1.0, physical_records=400, init_rounds=1, lloyd_iterations=1
    )
    conf = EngineConf(
        default_parallelism=16, memory_budget=0.1 * w.virtual_bytes(1.0)
    )
    ctx = AnalyticsContext(paper_cluster(), conf)
    w.run(ctx)
    assert ctx.spill is not None and ctx.spill.spill_events > 0
    return ctx


class ShuffleCounter(Listener):
    """The number of shuffles registered at the end of each job."""

    def __init__(self, manager) -> None:
        self.manager = manager
        self.counts: list = []

    def on_job_end(self, job_stats) -> None:
        self.counts.append(len(self.manager._shuffles))


def kmeans_shuffles():
    ctx = AnalyticsContext(paper_cluster(), EngineConf())
    counter = ShuffleCounter(ctx.shuffle_manager)
    ctx.listener_bus.add(counter)
    KMeansWorkload(physical_records=5000).run(ctx)
    # Four jobs shuffle; each shuffle dies with the iteration's RDDs.
    assert len(counter.counts) == 16
    assert max(counter.counts) == 1, counter.counts
    return ctx


def sql_cached(path: str, layout: str):
    w = SQLWorkload(
        virtual_gb=1.0, physical_records=800, max_order=100, orders_layout=layout
    )
    conf = EngineConf(
        default_parallelism=16, result_cache="sqlite", result_cache_path=path
    )
    ctx = AnalyticsContext(paper_cluster(), conf)
    w.run(ctx)
    return ctx


def chaos():
    """Node loss mid-shuffle (fetch failures, a resubmitted map stage)
    with speculation racing the stragglers."""
    cost = CostModelConfig(
        task_overhead=0.01, per_byte_compute=1e-4,
        jitter_sigma=0.0, driver_dispatch_interval=0.0,
    )
    conf = EngineConf(
        default_parallelism=12, cost=cost, speculation=True,
        node_failure_times={"fast-1": 3.0},
    )
    ctx = AnalyticsContext(straggler_cluster(), conf)
    pairs = ctx.parallelize([(i % 7, 1) for i in range(6000)], 12)
    pairs.reduce_by_key(lambda a, b: a + b, 6).collect()
    assert ctx.task_scheduler.nodes_lost == 1
    assert ctx.task_scheduler.speculative_launches > 0
    assert ctx.dag_scheduler.stage_resubmissions > 0
    return ctx


def aborted():
    """A job that runs out of task attempts with attempts still running."""
    ctx = AnalyticsContext(
        uniform_cluster(n_workers=4, cores=4),
        EngineConf(
            default_parallelism=40, task_failure_rate=0.6, max_task_attempts=1,
            speculation=True,
        ),
    )
    pairs = ctx.parallelize(range(4000), 40).map(lambda x: (x % 7, 1))
    try:
        pairs.reduce_by_key(lambda a, b: a + b, num_partitions=8).collect()
    except SchedulingError:
        pass
    else:
        raise AssertionError("the job did not abort")
    return ctx


def measured():
    w = SQLWorkload(virtual_gb=1.0, physical_records=800, max_order=100)
    spec = RunSpec(
        w, paper_cluster, EngineConf(default_parallelism=16),
        ("profiling", "hash", 16), 1.0, "run",
        frozenset({"metrics", "logs", "spans", "body"}),
    )
    outcome, _blob = measured_run(spec)
    # measured_run closed it; close() is idempotent.
    return outcome.ctx


class TestFreedByRefcount:
    def test_rdd_job(self):
        assert_freed_by_refcount(rdd_job)

    def test_budgeted_kmeans_that_spills(self):
        assert_freed_by_refcount(kmeans_spill)

    @pytest.mark.parametrize("layout", ["range", "hash"])
    def test_sql_with_sqlite_result_cache(self, tmp_path, layout):
        path = str(tmp_path / "cache.db")
        for _phase in ("cold", "warm"):
            assert_freed_by_refcount(lambda: sql_cached(path, layout))

    def test_node_loss_with_speculation(self):
        assert_freed_by_refcount(chaos)

    def test_aborted_job(self):
        assert_freed_by_refcount(aborted)

    def test_measured_run(self):
        assert_freed_by_refcount(measured)

    def test_kmeans_keeps_at_most_one_shuffle(self):
        assert_freed_by_refcount(kmeans_shuffles)


class TestShuffleRelease:
    @staticmethod
    def budgeted_shuffle():
        """A context holding one shuffle, written under a memory budget
        that keeps it resident, and the RDD that reads it."""
        ctx = AnalyticsContext(
            uniform_cluster(n_workers=4, cores=4),
            EngineConf(default_parallelism=8, memory_budget=1e12),
        )
        pairs = ctx.parallelize([(i % 7, i) for i in range(200)], 8)
        summed = pairs.reduce_by_key(lambda a, b: a + b)
        assert len(summed.collect()) == 7
        (shuffle_id,) = ctx.shuffle_manager._shuffles
        return ctx, summed, shuffle_id

    def test_dropped_shuffle_leaves_the_spill_resident_set(self):
        ctx, summed, shuffle_id = self.budgeted_shuffle()
        mgr = ctx.shuffle_manager
        outputs = list(mgr._state(shuffle_id).outputs.values())
        assert outputs and all(o in ctx.spill._resident for o in outputs)
        assert ctx.parallelize(range(10), 2).count() == 10
        assert mgr.is_registered(shuffle_id)  # a live RDD still reads it
        del summed
        assert ctx.parallelize(range(10), 2).count() == 10
        assert not mgr.is_registered(shuffle_id)
        assert shuffle_id not in ctx.dag_scheduler._completed_shuffles
        assert not any(o in ctx.spill._resident for o in outputs)
        assert ctx.spill._resident_bytes == 0.0
        ctx.close()

    def test_dropped_shuffle_takes_its_lost_blocks(self):
        ctx, summed, shuffle_id = self.budgeted_shuffle()
        mgr = ctx.shuffle_manager
        lost = mgr.invalidate_node(ctx.cluster.workers[0].name)
        assert lost[shuffle_id] and mgr.has_lost_blocks()
        del summed
        assert ctx.parallelize(range(10), 2).count() == 10
        assert not mgr.has_lost_blocks()
        ctx.close()


class TestClosedContext:
    def test_job_on_closed_context_raises(self):
        ctx = rdd_job()
        before = ctx.parallelize(range(10), 2)
        ctx.close()
        with pytest.raises(SchedulingError, match="^context is closed$"):
            before.count()
        after = ctx.parallelize(range(10), 2)
        with pytest.raises(SchedulingError, match="^context is closed$"):
            after.collect()
        assert len(ctx.job_stats) == 1  # neither attempt ran a job
        # Nor may the advisor's dry run re-cache stages on it.
        with pytest.raises(SchedulingError, match="^context is closed$"):
            ctx.dag_scheduler.provisional_stages(after)

    def test_close_releases_resources_and_keeps_results(self):
        ctx = kmeans_spill()
        spill_dir = ctx.spill.directory
        stages, jobs, clock = len(ctx.stage_stats), len(ctx.job_stats), ctx.now
        spilled = ctx.spill.spill_events
        launched = ctx.obs.metrics.counter_value("scheduler.tasks_launched")
        ctx.close()
        ctx.close()  # idempotent
        assert not os.path.exists(spill_dir)
        assert ctx.sim.pending() == 0
        assert (len(ctx.stage_stats), len(ctx.job_stats), ctx.now) == (
            stages, jobs, clock,
        )
        assert ctx.spill.spill_events == spilled
        assert ctx.obs.metrics.counter_value("scheduler.tasks_launched") == launched
        assert ctx.task_scheduler.task_retries == 0
        assert ctx.dag_scheduler.fetch_failures == 0

    def test_close_keeps_query_cache_counts(self, tmp_path):
        path = str(tmp_path / "cache.db")
        sql_cached(path, "range").close()
        warm = sql_cached(path, "range")
        warm.close()
        assert warm.query_cache.hits >= 1
        assert warm.plan_events
        # Python before 3.13 does not warn about an unclosed connection,
        # so the dev-mode run cannot catch this leak: check it here.
        with pytest.raises(sqlite3.ProgrammingError, match="closed database"):
            warm.query_cache.backend._conn.execute("SELECT 1")
