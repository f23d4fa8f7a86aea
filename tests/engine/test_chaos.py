"""Node-loss chaos and lineage-based stage resubmission tests.

The core correctness property: a job that loses a node mid-shuffle must
(a) raise typed :class:`FetchFailure`s internally, (b) resubmit the
parent map stage for exactly the lost map partitions, and (c) still
produce results identical to a failure-free run.
"""

from __future__ import annotations

import collections

import pytest

from repro.cluster import paper_cluster, uniform_cluster
from repro.common.errors import (
    ConfigurationError,
    SchedulingError,
    StageAbortedError,
)
from repro.engine import AnalyticsContext, EngineConf, dag_scheduler
from repro.engine.costmodel import CostModelConfig
from repro.engine.task_scheduler import NODE_FAILURE_WINDOW
from repro.obs import Tracer

N_RECORDS = 8000
N_KEYS = 13


def quiet_cost() -> CostModelConfig:
    return CostModelConfig(jitter_sigma=0.0, driver_dispatch_interval=0.0)


def make_ctx(**conf_kwargs) -> AnalyticsContext:
    conf_kwargs.setdefault("default_parallelism", 8)
    conf_kwargs.setdefault("cost", quiet_cost())
    return AnalyticsContext(
        uniform_cluster(n_workers=3, cores=2), EngineConf(**conf_kwargs)
    )


def shuffle_job(ctx):
    pairs = ctx.parallelize([(i % N_KEYS, 1) for i in range(N_RECORDS)], 8)
    return pairs.reduce_by_key(lambda a, b: a + b, 6).collect_as_map()


EXPECTED = {k: len(range(k, N_RECORDS, N_KEYS)) for k in range(N_KEYS)}


def reduce_window(ctx) -> tuple:
    """(start, first completion) of the reduce stage of a finished run."""
    reduce_stats = next(s for s in ctx.stage_stats if s.kind == "result")
    starts = [t.start for t in reduce_stats.tasks]
    ends = [t.end for t in reduce_stats.tasks]
    return min(starts), min(ends)


def mid_reduce_kill_time() -> float:
    """A kill time strictly inside the reduce stage of the baseline run."""
    baseline = make_ctx()
    assert shuffle_job(baseline) == EXPECTED
    start, first_end = reduce_window(baseline)
    assert first_end > start
    return (start + first_end) / 2.0


def assert_context_usable(ctx) -> None:
    """A job that died left nothing behind; the next job just runs."""
    scheduler = ctx.task_scheduler
    for worker in ctx.cluster.workers:
        if scheduler._executors[worker.name].alive:
            assert scheduler.free_cores(worker.name) == worker.cores
    assert ctx.sim.pending() == 0
    assert len(scheduler._queue) == 0
    out = ctx.parallelize(range(100), 4).map(lambda x: x + 2).collect()
    assert sum(out) == 5150


class TestConfigValidation:
    def test_unknown_worker_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown worker"):
            make_ctx(node_failure_times={"nope": 1.0})

    def test_negative_failure_time_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConf(node_failure_times={"w0": -1.0})

    def test_killing_every_worker_permanently_rejected(self):
        with pytest.raises(ConfigurationError, match="every worker"):
            make_ctx(node_failure_times={"w0": 1.0, "w1": 1.0, "w2": 1.0})

    def test_killing_every_worker_ok_with_recovery(self):
        ctx = make_ctx(
            node_failure_times={"w0": 1.0, "w1": 1.0, "w2": 1.0},
            node_recovery_delay=1.0,
        )
        assert set(ctx.task_scheduler._planned_failures) == {"w0", "w1", "w2"}

    def test_rate_plan_is_seeded_and_deterministic(self):
        plan_a = make_ctx(
            node_failure_rate=0.5, node_recovery_delay=1.0, seed=7
        ).task_scheduler._planned_failures
        plan_b = make_ctx(
            node_failure_rate=0.5, node_recovery_delay=1.0, seed=7
        ).task_scheduler._planned_failures
        assert plan_a == plan_b
        plan_all = make_ctx(
            node_failure_rate=1.0, node_recovery_delay=1.0,
        ).task_scheduler._planned_failures
        assert set(plan_all) == {"w0", "w1", "w2"}
        assert all(0.0 <= t < NODE_FAILURE_WINDOW for t in plan_all.values())


class TestNodeLossRecovery:
    def run_chaos(self, kill_time, **conf_kwargs):
        ctx = make_ctx(
            node_failure_times={"w0": kill_time}, **conf_kwargs
        )
        tracer = Tracer()
        ctx.obs.set_tracer(tracer)
        out = shuffle_job(ctx)
        return ctx, tracer, out

    def test_results_identical_to_failure_free_run(self):
        ctx, _tracer, out = self.run_chaos(mid_reduce_kill_time())
        assert out == EXPECTED
        assert ctx.task_scheduler.nodes_lost == 1
        assert ctx.dag_scheduler.fetch_failures > 0
        assert ctx.dag_scheduler.stage_resubmissions >= 1

    def test_only_lost_map_partitions_resubmitted(self):
        ctx, _tracer, out = self.run_chaos(mid_reduce_kill_time())
        assert out == EXPECTED
        reruns = [s for s in ctx.stage_stats if s.attempt > 0]
        assert len(reruns) == 1
        rerun = reruns[0]
        assert rerun.kind == "shuffle_map"
        # The baseline map stage ran all 8 partitions; the recovery run
        # covers only what died with w0 — strictly fewer than all.
        full_map = next(
            s for s in ctx.stage_stats if s.kind == "shuffle_map" and s.attempt == 0
        )
        assert 0 < len(rerun.tasks) < len(full_map.tasks)
        # Every rerun task produced map output again, none on the dead node.
        assert all(t.node != "w0" for t in rerun.tasks)
        assert all(t.shuffle_write > 0 for t in rerun.tasks)

    def test_metrics_mirror_attributes(self):
        ctx, _tracer, _ = self.run_chaos(mid_reduce_kill_time())
        registry = ctx.obs.metrics
        assert registry.counter_value("scheduler.nodes_lost") == 1
        assert (
            registry.counter_value("scheduler.fetch_failures")
            == ctx.dag_scheduler.fetch_failures
        )
        assert (
            registry.counter_value("scheduler.stage_resubmissions")
            == ctx.dag_scheduler.stage_resubmissions
        )
        assert registry.counter_value("executor.fetch_failures") > 0

    def test_chaos_spans_emitted(self):
        _ctx, tracer, _ = self.run_chaos(mid_reduce_kill_time())
        by_name = collections.Counter(
            e.name for e in tracer.events if e.cat == "chaos"
        )
        assert by_name["node-lost"] == 1
        assert by_name["fetch-failure"] >= 1
        assert by_name["stage-resubmit"] >= 1
        resubmit = next(
            e for e in tracer.events if e.name == "stage-resubmit"
        )
        assert resubmit.args["attempt"] == 1
        assert resubmit.args["missing_maps"] > 0
        # Chaos spans are driver-side: they land on the driver's chaos lane.
        assert resubmit.node is None

    def test_dead_node_runs_no_further_tasks(self):
        kill_time = mid_reduce_kill_time()
        ctx, _tracer, out = self.run_chaos(kill_time)
        assert out == EXPECTED
        for stats in ctx.stage_stats:
            for task in stats.tasks:
                if task.node == "w0":
                    assert task.start < kill_time
        assert not ctx.task_scheduler._executors["w0"].alive

    def test_stage_abort_when_attempts_exhausted(self, monkeypatch):
        monkeypatch.setattr(dag_scheduler, "MAX_STAGE_ATTEMPTS", 1)
        ctx = make_ctx(node_failure_times={"w0": mid_reduce_kill_time()})
        with pytest.raises(StageAbortedError, match="MAX_STAGE_ATTEMPTS"):
            shuffle_job(ctx)
        assert_context_usable(ctx)

    def test_partial_reruns_excluded_from_collector(self):
        from repro.chopper.stats import StatisticsCollector

        ctx = make_ctx(node_failure_times={"w0": mid_reduce_kill_time()})
        collector = StatisticsCollector("wordcount", 1.0).attach(ctx)
        assert shuffle_job(ctx) == EXPECTED
        collector.finish(ctx)
        assert any(s.attempt > 0 for s in ctx.stage_stats)
        # Clean observations only: one map + one result stage.
        kinds = [o.kind for o in collector.record.observations]
        assert sorted(kinds) == ["result", "shuffle_map"]


class TestLossOfAnEarlierJobsShuffle:
    """A job reads map output an earlier job wrote; a node dies under it."""

    @staticmethod
    def two_jobs(ctx):
        pairs = ctx.parallelize([(i % N_KEYS, 1) for i in range(N_RECORDS)], 8)
        counts = pairs.reduce_by_key(lambda a, b: a + b, 6)
        assert counts.count() == N_KEYS
        return counts.collect_as_map()

    def test_second_job_recovers_by_lineage(self):
        baseline = make_ctx()
        assert self.two_jobs(baseline) == EXPECTED
        first_job_end = baseline.job_stats[0].completed_at
        reduce_stats = baseline.stage_stats[-1]
        # Map-stage-less second job: only its result stage ran.
        assert [s.kind for s in baseline.job_stats[1].stages] == ["result"]
        start = min(t.start for t in reduce_stats.tasks)
        first_end = min(t.end for t in reduce_stats.tasks)
        kill_time = (start + first_end) / 2.0  # absolute, on the context clock
        assert first_job_end < kill_time

        ctx = make_ctx(node_failure_times={"w0": kill_time})
        assert self.two_jobs(ctx) == EXPECTED
        assert ctx.task_scheduler.nodes_lost == 1
        assert ctx.dag_scheduler.fetch_failures > 0
        assert ctx.dag_scheduler.stage_resubmissions >= 1
        rerun = [s for s in ctx.job_stats[1].stages if s.attempt > 0]
        assert [s.kind for s in rerun] == ["shuffle_map"]


class TestTaskAbort:
    """``failed N times; aborting stage``: the job dies, the context lives."""

    @staticmethod
    def failing_ctx(**conf) -> AnalyticsContext:
        return AnalyticsContext(
            paper_cluster(),
            EngineConf(
                default_parallelism=40, task_failure_rate=0.6,
                max_task_attempts=1, **conf,
            ),
        )

    @staticmethod
    def doomed_job(ctx):
        pairs = ctx.parallelize(range(4000), 40).map(lambda x: (x % 7, 1))
        return pairs.reduce_by_key(lambda a, b: a + b, num_partitions=8).collect()

    @pytest.mark.parametrize("conf", [{}, {"speculation": True}], ids=["plain", "speculation"])
    def test_failed_job_does_not_poison_its_context(self, conf):
        """The dead job's attempts held 34 cores and 34 completion events,
        and the next job's event loop fired them (raising *this* job's
        abort again)."""
        ctx = self.failing_ctx(**conf)
        with pytest.raises(SchedulingError, match="failed 1 times; aborting stage"):
            self.doomed_job(ctx)
        clock = ctx.now
        assert clock > 0
        ctx.conf.task_failure_rate = 0.0
        assert_context_usable(ctx)
        assert ctx.now > clock  # the clock was left where the job died

    def test_aborted_attempts_record_nothing(self, monkeypatch):
        ctx = self.failing_ctx()
        tracer = Tracer()
        ctx.obs.set_tracer(tracer)
        recorded = collections.Counter()
        record_interval = ctx.metrics.record_interval

        def counting(series, *args):
            recorded[series] += 1
            record_interval(series, *args)

        monkeypatch.setattr(ctx.metrics, "record_interval", counting)
        with pytest.raises(SchedulingError):
            self.doomed_job(ctx)
        outcomes = collections.Counter(
            e.args["outcome"] for e in tracer.events if e.cat == "task"
        )
        assert outcomes["aborted"] > 0 and outcomes["failed"] == 1
        registry = ctx.obs.metrics
        launched = registry.counter_value("scheduler.tasks_launched")
        assert launched == outcomes["aborted"] + outcomes["failed"] + outcomes["ok"]
        # Core time is recorded for attempts that ran to an end (cpu and
        # memory for a finished one, cpu only for the failed one), never
        # for the ones the abort dropped.
        assert recorded == {
            "cpu": outcomes["ok"] + 1,
            **({"mem_working": outcomes["ok"]} if outcomes["ok"] else {}),
        }
        assert registry.counter_value("scheduler.tasks_failed") == 1
        assert registry.counter_value("scheduler.tasks_completed") == outcomes["ok"]

    def test_user_exception_also_cleans_up(self):
        ctx = make_ctx()

        def boom(x):
            if x == 777:
                raise ZeroDivisionError("user code")
            return x

        with pytest.raises(ZeroDivisionError):
            ctx.parallelize(range(1000), 8).map(boom).collect()
        assert_context_usable(ctx)


class TestNodeRecovery:
    def test_node_rejoins_after_recovery_delay(self):
        ctx = make_ctx(
            node_failure_times={"w0": 0.0}, node_recovery_delay=0.2
        )
        assert shuffle_job(ctx) == EXPECTED
        assert ctx.task_scheduler.nodes_lost == 1
        assert ctx.task_scheduler._executors["w0"].alive
        assert ctx.obs.metrics.counter_value("scheduler.nodes_recovered") == 1

    def test_recovery_after_job_end_happens_at_next_job(self):
        # Recovery timed past the job's last event is deferred (never
        # drags the clock); the next job re-arms it and the node rejoins
        # once its deadline passes on that job's clock.
        ctx = make_ctx(
            node_failure_times={"w0": 0.0}, node_recovery_delay=1.5
        )
        assert shuffle_job(ctx) == EXPECTED
        assert ctx.now < 1.5  # the deadline lies beyond this job
        assert not ctx.task_scheduler._executors["w0"].alive
        assert shuffle_job(ctx) == EXPECTED
        assert ctx.now > 1.5
        assert ctx.task_scheduler._executors["w0"].alive

    def test_recovered_node_takes_new_work(self):
        ctx = make_ctx(
            node_failure_times={"w0": 0.0}, node_recovery_delay=0.5
        )
        assert shuffle_job(ctx) == EXPECTED
        # A second job on the same context schedules onto w0 again.
        out = ctx.parallelize(range(1000), 6).map(lambda x: x * 2).collect()
        assert sorted(out) == sorted(x * 2 for x in range(1000))
        nodes = {
            t.node for s in ctx.stage_stats[-1:] for t in s.tasks
        }
        assert "w0" in nodes

    def test_node_not_killed_twice(self):
        ctx = make_ctx(
            node_failure_times={"w0": 0.0}, node_recovery_delay=0.5
        )
        assert shuffle_job(ctx) == EXPECTED
        assert shuffle_job(ctx) == EXPECTED
        assert ctx.task_scheduler.nodes_lost == 1


class TestChaosIsDisarmedBetweenJobs:
    def test_late_failure_time_does_not_stretch_job(self):
        baseline = make_ctx()
        assert shuffle_job(baseline) == EXPECTED
        quiet_end = baseline.now
        # A kill scheduled long after the job's work must not drag the
        # clock out to the chaos schedule.
        chaotic = make_ctx(node_failure_times={"w0": quiet_end + 1000.0})
        assert shuffle_job(chaotic) == EXPECTED
        assert chaotic.now == pytest.approx(quiet_end)
        assert chaotic.task_scheduler.nodes_lost == 0
