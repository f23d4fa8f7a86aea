"""Tests for task scheduling: waves, heterogeneity, locality, failures."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NodeSpec, Cluster, paper_cluster, uniform_cluster
from repro.cluster.cluster import GBPS
from repro.common.units import GB
from repro.engine import AnalyticsContext, EngineConf
from repro.engine.costmodel import CostModelConfig
from repro.engine.task_scheduler import _QueuedTask


def make_ctx(cluster, **conf_kwargs):
    conf_kwargs.setdefault("default_parallelism", 8)
    conf_kwargs.setdefault(
        "cost", CostModelConfig(jitter_sigma=0.0, driver_dispatch_interval=0.0)
    )
    return AnalyticsContext(cluster, EngineConf(**conf_kwargs))


class TestWaves:
    def test_fewer_tasks_than_cores_one_wave(self):
        ctx = make_ctx(uniform_cluster(n_workers=2, cores=4))
        ctx.parallelize(range(100), 4).collect()
        stage = ctx.job_stats[-1].stages[0]
        starts = {t.start for t in stage.tasks}
        assert len(starts) == 1  # all launched immediately

    def test_more_tasks_than_cores_queue(self):
        ctx = make_ctx(uniform_cluster(n_workers=2, cores=2))
        ctx.parallelize(range(100), 12).collect()
        stage = ctx.job_stats[-1].stages[0]
        starts = sorted({t.start for t in stage.tasks})
        assert len(starts) > 1  # later waves start after slots free

    def test_makespan_scales_with_waves(self):
        cluster = uniform_cluster(n_workers=1, cores=2)
        ctx_one = make_ctx(cluster)
        ctx_one.parallelize(range(100), 2).collect()
        one_wave = ctx_one.job_stats[-1].duration

        ctx_two = make_ctx(uniform_cluster(n_workers=1, cores=2))
        ctx_two.parallelize(range(100), 4).collect()
        two_waves = ctx_two.job_stats[-1].duration
        assert two_waves > one_wave


class TestHeterogeneity:
    def _hetero_cluster(self):
        workers = [
            NodeSpec("fast", cores=4, speed=2.0, memory=8 * GB, net_bw=10 * GBPS,
                     executor_memory=4 * GB),
            NodeSpec("slow", cores=4, speed=0.5, memory=8 * GB, net_bw=10 * GBPS,
                     executor_memory=4 * GB),
        ]
        master = NodeSpec("m", cores=1, speed=1.0, memory=8 * GB, net_bw=10 * GBPS,
                          executor_memory=GB)
        return Cluster(workers=workers, master=master)

    def test_fast_node_takes_more_tasks(self):
        # Make compute dominate the fixed task overhead so speed matters.
        cfg = CostModelConfig(
            task_overhead=0.001, per_byte_compute=1e-4,
            jitter_sigma=0.0, driver_dispatch_interval=0.0,
        )
        ctx = make_ctx(self._hetero_cluster(), cost=cfg)
        ctx.parallelize(list(range(40_000)), 32).collect()
        stage = ctx.job_stats[-1].stages[0]
        by_node = {"fast": 0, "slow": 0}
        for t in stage.tasks:
            by_node[t.node] += 1
        assert by_node["fast"] > by_node["slow"]

    def test_task_duration_divides_by_speed(self):
        cfg = CostModelConfig(
            task_overhead=0.001, per_byte_compute=1e-4,
            jitter_sigma=0.0, driver_dispatch_interval=0.0,
        )
        ctx = make_ctx(self._hetero_cluster(), cost=cfg)
        ctx.parallelize(list(range(8000)), 8).collect()
        stage = ctx.job_stats[-1].stages[0]
        fast = [t.duration for t in stage.tasks if t.node == "fast"]
        slow = [t.duration for t in stage.tasks if t.node == "slow"]
        if fast and slow:
            assert min(slow) > max(fast) * 1.5


class TestLocality:
    def test_cached_tasks_return_to_cache_node(self):
        ctx = make_ctx(uniform_cluster(n_workers=3, cores=4))
        rdd = ctx.parallelize(list(range(3000)), 6).cache()
        rdd.count()
        locations = {
            i: ctx.block_store.location(rdd.id, i) for i in range(6)
        }
        rdd.count()
        stage = ctx.job_stats[-1].stages[0]
        hits = sum(1 for t in stage.tasks if t.node == locations[t.task_index])
        assert hits == 6  # free cores everywhere: all tasks go home


NODES = ("w0", "w1", "w2")


def scan_dispatch(queue, free, alive, launch):
    """The reference dispatch: scan the whole queue for tasks with a free
    preferred node, then spread the rest FIFO onto the most-free node."""
    deferred = []
    for queued in queue:
        node = next(
            (n for n in queued.prefs if alive.get(n) and free[n] > 0), None
        )
        if node is None:
            deferred.append(queued)
        else:
            launch(queued, node)
    queue[:] = deferred
    while queue:
        best = None
        for n in sorted(free):
            if alive[n] and free[n] > 0 and (best is None or free[n] > free[best]):
                best = n
        if best is None:
            break
        launch(queue.pop(0), best)


operation = st.one_of(
    # A task: preferred nodes (an unknown name included), and whether its
    # launch fails its fetch and hands the core straight back.
    st.tuples(
        st.just("push"),
        st.lists(st.sampled_from(NODES + ("gone",)), max_size=3, unique=True),
        st.booleans(),
    ),
    st.tuples(st.just("cores"), st.sampled_from(NODES), st.integers(0, 3)),
    st.tuples(st.just("alive"), st.sampled_from(NODES), st.booleans()),
    st.tuples(st.just("dispatch")),
)


class TestDispatchOrder:
    @settings(max_examples=200)
    @given(st.lists(operation, max_size=40))
    def test_index_launches_what_the_queue_scan_launches(self, ops):
        """The per-node index picks the same tasks, onto the same nodes, in
        the same order as a scan of the whole queue: across stale index
        entries, dead nodes, several free nodes at once, and launches that
        hand their core back mid-scan."""
        ctx = make_ctx(uniform_cluster(n_workers=len(NODES), cores=2))
        sched = ctx.task_scheduler
        executors = sched._executors
        launched, expected = [], []

        def launch(queued, executor, speculative=False, batch=None):
            task = queued.task
            launched.append((task.id, executor.spec.name))
            if not task.hands_back:
                executor.free_cores -= 1

        sched._launch = launch
        queue = []
        free = {n: 2 for n in NODES}
        alive = {n: True for n in NODES}

        def model_launch(task, node):
            expected.append((task.id, node))
            if not task.hands_back:
                free[node] -= 1

        for i, op in enumerate(ops):
            if op[0] == "push":
                task = SimpleNamespace(
                    id=i, prefs=op[1], preferred_nodes=op[1], hands_back=op[2]
                )
                sched._push(_QueuedTask(stage_run=None, task=task))
                queue.append(task)
            elif op[0] == "cores":
                executors[op[1]].free_cores = free[op[1]] = op[2]
            elif op[0] == "alive":
                executors[op[1]].alive = alive[op[1]] = op[2]
            else:
                sched._dispatch()
                scan_dispatch(queue, free, alive, model_launch)
                assert launched == expected
                assert len(sched._queue) == len(queue)


class TestFailureInjection:
    def test_failures_retry_and_still_produce_correct_results(self):
        ctx = make_ctx(
            uniform_cluster(n_workers=2, cores=2), task_failure_rate=0.2
        )
        out = ctx.parallelize([(i % 3, 1) for i in range(60)], 6).reduce_by_key(
            lambda a, b: a + b, 3
        ).collect_as_map()
        assert out == {0: 20, 1: 20, 2: 20}

    def test_failures_cost_time(self):
        def run(rate):
            ctx = make_ctx(
                uniform_cluster(n_workers=2, cores=2),
                task_failure_rate=rate,
                max_task_attempts=8,
            )
            ctx.parallelize(list(range(2000)), 16).collect()
            return ctx.now

        assert run(0.3) > run(0.0)

    def test_retry_does_not_count_its_failed_attempt_as_queue_wait(self):
        # 48 tasks on 112 cores: none ever waits for a core, retried or
        # not. The failed attempt's run time is not time spent queued.
        ctx = AnalyticsContext(
            paper_cluster(),
            EngineConf(default_parallelism=40, task_failure_rate=0.3,
                       max_task_attempts=8),
        )
        ctx.parallelize(range(4000), 40).map(lambda x: (x % 7, 1)).reduce_by_key(
            lambda a, b: a + b, num_partitions=8
        ).collect()
        scheduler, registry = ctx.task_scheduler, ctx.obs.metrics
        assert scheduler.task_retries > 0
        waits = registry.histogram("scheduler.queue_wait_seconds")
        assert waits.max == 0.0
        # One sample per non-speculative grant, first attempt or retry.
        assert waits.count == (
            registry.counter_total("scheduler.tasks_launched")
            - scheduler.speculative_launches
        )

    def test_invalid_rate_rejected(self):
        with pytest.raises(Exception):
            EngineConf(task_failure_rate=1.5)


class TestCostEffects:
    def test_oversize_partition_penalty(self):
        """One giant partition costs more than the same data split up."""
        cfg = CostModelConfig(
            partition_knee=1024.0, task_overhead=0.0,
            jitter_sigma=0.0, driver_dispatch_interval=0.0,
        )

        def run(n_parts):
            ctx = AnalyticsContext(
                uniform_cluster(n_workers=1, cores=1),
                EngineConf(default_parallelism=4, cost=cfg),
            )
            ctx.parallelize(list(range(2000)), n_parts).collect()
            return ctx.now

        assert run(1) > run(16)

    def test_per_task_overhead_dominates_many_tiny_partitions(self):
        cfg = CostModelConfig(
            task_overhead=0.5, jitter_sigma=0.0, driver_dispatch_interval=0.0
        )

        def run(n_parts):
            ctx = AnalyticsContext(
                uniform_cluster(n_workers=1, cores=2),
                EngineConf(default_parallelism=4, cost=cfg),
            )
            ctx.parallelize(list(range(100)), n_parts).collect()
            return ctx.now

        assert run(64) > run(4)

    def test_remote_shuffle_slower_on_slow_links(self):
        def run(net_bw):
            ctx = AnalyticsContext(
                uniform_cluster(n_workers=4, cores=2, net_bw=net_bw),
                EngineConf(default_parallelism=8),
            )
            pairs = ctx.parallelize([(i, i) for i in range(5000)], 8)
            pairs.group_by_key(8).count()
            return ctx.now

        assert run(1e5) > run(10 * GBPS)
