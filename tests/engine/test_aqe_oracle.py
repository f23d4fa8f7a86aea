"""AQE determinism oracle: collected results identical AQE on/off.

The adaptive-execution contract is absolute: re-planning the reduce side
(coalescing tiny partitions) may change *timing* but never a collected
value or its order — across serial execution, threaded task
bodies, process-pooled sweeps, and chaos node-loss recovery. Every test
here runs a skew-provoking pipeline twice and compares raw outputs.
"""

from __future__ import annotations

import pytest

from repro.chopper import ChopperRunner
from repro.chopper.workload_db import WorkloadDB
from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.engine.costmodel import CostModelConfig
from repro.engine.partitioner import HashPartitioner
from repro.workloads import SQLWorkload, WordCountWorkload

# 50% of records carry key 0: the hash reduce side gets one partition
# ~8x its siblings. Map-side-combined pipelines shrink every partition
# below the target, so they coalesce; identity ones keep the hot
# partition, which AQE leaves as it is.
DATA = [((i % 40) if i % 2 else 0, i) for i in range(12000)]

AQE_KNOBS = dict(
    adaptive_execution=True,
    aqe_target_partition_bytes=16.0 * 1024,
)


def quiet_cost() -> CostModelConfig:
    return CostModelConfig(jitter_sigma=0.0, driver_dispatch_interval=0.0)


def run_pipeline(build, **conf_kwargs):
    conf_kwargs.setdefault("default_parallelism", 16)
    conf_kwargs.setdefault("cost", quiet_cost())
    ctx = AnalyticsContext(
        uniform_cluster(n_workers=3, cores=4), EngineConf(**conf_kwargs)
    )
    try:
        out = build(ctx)
        counters = {
            k: v[0]["value"]
            for k, v in ctx.obs.metrics.snapshot()["counters"].items()
            if k.startswith("aqe.") or k == "scheduler.stage_resubmissions"
        }
        return out, counters, ctx
    finally:
        ctx.close()


def pipe_identity_hot(ctx):
    """Skewed identity shuffle + record-local chain: every partition is
    past the target, so AQE keeps the static layout."""
    return (
        ctx.parallelize(DATA, 8)
        .partition_by(HashPartitioner(16))
        .values()
        .map(lambda v: v * 2)
        .collect()
    )


def pipe_aggregate(ctx):
    """Map-side-combined fold: every partition coalesces into one task."""
    return (
        ctx.parallelize(DATA, 8)
        .reduce_by_key(lambda a, b: a + b, 16)
        .collect()
    )


def pipe_group(ctx):
    return (
        ctx.parallelize(DATA, 8)
        .group_by_key(16)
        .map_values(len)
        .collect()
    )


# 80% of records carry key 0: range bounds sampled by record count
# leave one partition hot and the trailing half of them empty.
SORT_DATA = [((i % 40) if i % 5 == 0 else 0, i) for i in range(12000)]


def pipe_sort_empty_tail(ctx):
    """sortByKey with sampled bounds: coalescing folds the empty tail."""
    return ctx.parallelize(SORT_DATA, 8).sort_by_key().collect()


def pipe_join(ctx):
    left = ctx.parallelize(DATA[:2000], 4)
    right = ctx.parallelize([(k, k * 10) for k in range(40)], 2)
    return left.join(right, 8).collect()


def pipe_sql(ctx):
    return SQLWorkload(
        physical_records=3000, skew=1.9
    ).run(ctx).value


PIPELINES = [
    pipe_identity_hot,
    pipe_aggregate,
    pipe_group,
    pipe_sort_empty_tail,
    pipe_join,
    pipe_sql,
]


@pytest.mark.parametrize("pipe", PIPELINES, ids=lambda p: p.__name__)
class TestAqeOnOffIdentity:
    def test_serial(self, pipe):
        base, _, _ = run_pipeline(pipe)
        on, _, _ = run_pipeline(pipe, **AQE_KNOBS)
        assert base == on

    def test_threads4(self, pipe):
        base, _, _ = run_pipeline(pipe)
        on, _, _ = run_pipeline(pipe, physical_parallelism=4, **AQE_KNOBS)
        assert base == on


class TestAqeActuallyFires:
    """The identity tests above are vacuous if no re-plan ever happens."""

    def test_coalesce_fires(self):
        _, counters, _ = run_pipeline(pipe_aggregate, **AQE_KNOBS)
        assert counters.get("aqe.partitions_coalesced", 0) >= 2
        assert counters.get("aqe.tasks_saved", 0) >= 1

    def test_off_by_default_no_counters(self):
        _, counters, _ = run_pipeline(pipe_identity_hot)
        assert not any(k.startswith("aqe.") for k in counters)


def replans(pipe):
    """Each stage's (name, P, adapted P) and every re-plan's span args."""
    from repro.obs import Tracer

    tracer = Tracer()

    def traced(ctx):
        ctx.obs.set_tracer(tracer)
        return pipe(ctx)

    _, _, ctx = run_pipeline(traced, **AQE_KNOBS)
    stages = [
        (s.name, s.num_partitions, s.adapted_num_partitions)
        for s in ctx.stage_stats
    ]
    fields = ("stage", "original_partitions", "adapted_partitions", "coalesced",
              "before", "after", "gini_before", "gini_after")
    events = [
        {k: e.args[k] for k in fields}
        for e in tracer.events if e.name == "aqe-replan"
    ]
    return stages, events


SQL_JOIN_SIDE = [0.0, 1260.0, 1260.0, 0.0, 1400.0, 0.0, 0.0, 1540.0,
                 1120.0, 0.0, 0.0, 1120.0, 0.0, 1120.0, 1120.0, 0.0]


class TestCoalescePlanPinned:
    """What coalescing decides where nothing is hot or ordered-skewed.

    Recorded while AQE could still split hot partitions and re-derive
    range bounds: neither ever engaged on these pipelines, so deleting
    them must not move the plans.
    """

    def test_aggregate(self):
        assert replans(pipe_aggregate) == (
            [("shuffle_map:parallelize#2", 8, None), ("result:reduceByKey#1", 16, 1)],
            [{
                "stage": "result:reduceByKey#1", "original_partitions": 16,
                "adapted_partitions": 1, "coalesced": 16,
                "before": [832.0, 832.0, 832.0, 1152.0, 832.0, 832.0, 1152.0,
                           832.0, 832.0, 832.0, 1152.0, 832.0, 832.0, 1152.0,
                           832.0, 1152.0],
                "after": [14912.0], "gini_before": 0.0738, "gini_after": 0.0,
            }],
        )

    def test_sql(self):
        def coalesced(stage, before, after, gini_before):
            return {
                "stage": stage, "original_partitions": 16,
                "adapted_partitions": 1, "coalesced": 16, "before": before,
                "after": [after], "gini_before": gini_before, "gini_after": 0.0,
            }

        assert replans(pipe_sql) == (
            [
                ("shuffle_map:joinKey[right]#4", 16, None),
                ("shuffle_map:groupKey#3", 16, None),
                ("shuffle_map:groupKey#2", 16, None),
                ("result:keySample#1", 16, 1),
                ("shuffle_map:orderKey#6", 16, 1),
                ("result:values#5", 16, 1),
            ],
            [
                coalesced("result:keySample#1", SQL_JOIN_SIDE, 9940.0, 0.5308),
                coalesced("shuffle_map:orderKey#6", SQL_JOIN_SIDE, 9940.0, 0.5308),
                coalesced(
                    "result:values#5", [336.0, 840.0, 168.0] + [0.0] * 13,
                    1344.0, 0.875,
                ),
            ],
        )


class TestAqeChaosRecovery:
    """A resubmitted map stage must re-derive the same adaptive plan."""

    def _mid_reduce_kill_time(self, pipe):
        _, _, _ctx = run_pipeline(pipe, **AQE_KNOBS)
        # the LAST result stage: sort pipelines run a sampling job first
        stats = [s for s in _ctx.stage_stats if s.kind == "result"][-1]
        start = min(t.start for t in stats.tasks)
        first_end = min(t.end for t in stats.tasks)
        assert first_end > start
        return (start + first_end) / 2.0

    @pytest.mark.parametrize(
        "pipe", [pipe_identity_hot, pipe_aggregate, pipe_sort_empty_tail],
        ids=lambda p: p.__name__,
    )
    def test_node_loss_identical(self, pipe):
        kill = self._mid_reduce_kill_time(pipe)
        base, _, _ = run_pipeline(pipe)
        chaos_kwargs = dict(
            node_failure_times={"w0": kill}, node_recovery_delay=5.0
        )
        on, counters, _ = run_pipeline(pipe, **AQE_KNOBS, **chaos_kwargs)
        off, _, _ = run_pipeline(pipe, **chaos_kwargs)
        assert counters.get("scheduler.stage_resubmissions", 0) >= 1
        assert on == base
        assert off == base


class TestAqeProcessPool:
    """procs4: the ChopperRunner process-pooled sweep with AQE on must
    produce the same workload DB as the same sweep measured in-process."""

    def _sweep(self, jobs):
        runner = ChopperRunner(
            WordCountWorkload(skew=1.9),
            base_conf=EngineConf(default_parallelism=16, **AQE_KNOBS),
            db=WorkloadDB(),
        )
        runner.profile(
            p_grid=[4, 8], kinds=["hash"], scales=[0.04, 0.08], jobs=jobs
        )
        name = runner.workload.name
        return runner.db.observations(name), runner.db.dag(name)

    def test_pooled_sweep_db_identical(self):
        assert self._sweep(jobs=1) == self._sweep(jobs=2)


class TestAdaptedCountsFeedWorkloadDb:
    """CHOPPER's collector stores the adapted (duration, P) pair."""

    def test_observation_uses_adapted_partitions(self):
        from repro.chopper.stats import StatisticsCollector

        def build(ctx):
            collector = StatisticsCollector("t", input_bytes=1.0)
            with collector.attached(ctx):
                pipe_aggregate(ctx)
            return collector.record

        record, counters, _ = run_pipeline(build, **AQE_KNOBS)
        assert counters.get("aqe.partitions_coalesced", 0) >= 2
        reduce_obs = next(
            o for o in record.observations if o.kind == "result"
        )
        assert reduce_obs.num_partitions < 16
