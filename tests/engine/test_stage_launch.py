"""The single stage-launch path.

Three guards around "a stage launch is one function of (stage, task
specs, attempt)":

* the stage's narrow pipeline is walked once per ``Stage`` object, not
  per launch and per task (structural: the traversal count of a job does
  not depend on its partition count);
* the three lists derived from that walk keep the exact orders the
  hand-written walks produced (they feed "first match" lookups and float
  folds);
* a one-split task runs the task body the static ``spec=None`` task
  ran (numbers pinned from the commit before the fork was deleted), and
  a coalesced task equals its one-split tasks back to back.
"""

from __future__ import annotations

from operator import add

import pytest

from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf, HashPartitioner
from repro.engine.dependencies import OneToOneDependency
from repro.engine.rdd import RDD
from repro.engine.task import Task
from tests.conftest import quiet_cost


def make_ctx(parallelism: int = 4, **conf) -> AnalyticsContext:
    return AnalyticsContext(
        uniform_cluster(n_workers=2, cores=2),
        EngineConf(default_parallelism=parallelism, cost=quiet_cost(), **conf),
    )


# ----------------------------------------------------------------------
# (a) Pipeline traversals do not scale with the partition count
# ----------------------------------------------------------------------


class _Probe(RDD):
    """Pass-through RDD that counts reads of its lineage edges.

    Whatever its style, a traversal of the stage's pipeline has to read
    ``deps`` here to find the parent. Partition count, size scale and
    the task body are answered without touching ``deps``, so scheduling
    is the only reader left.
    """

    def __init__(self, parent: RDD) -> None:
        self.reads = 0
        self._parent = parent
        self._n = parent.num_partitions
        super().__init__(parent.ctx, [OneToOneDependency(parent)], "probe")

    @property
    def deps(self):
        self.reads += 1
        return self._deps

    @deps.setter
    def deps(self, value) -> None:
        self._deps = value

    num_partitions = property(lambda self: self._n)
    size_scale = property(lambda self: 1.0)

    def materialize(self, split, task):
        return self._parent.materialize(split, task)


def _cached_scan(ctx: AnalyticsContext, parallelism: int) -> _Probe:
    cached = ctx.parallelize(range(parallelism * 2), parallelism).cache()
    cached.collect()  # fill the block store: the next job reads the cache
    return _Probe(cached)


def _copartition_join(ctx: AnalyticsContext, parallelism: int) -> _Probe:
    left = ctx.parallelize([(i, i) for i in range(parallelism * 2)], 4)
    right = ctx.parallelize([(i, -i) for i in range(parallelism * 2)], 4)
    return _Probe(left.join(right, parallelism))


class TestPipelineWalkedOncePerStage:
    @staticmethod
    def _traversal_reads(build, parallelism: int, **conf) -> int:
        ctx = make_ctx(parallelism, **conf)
        probe = build(ctx, parallelism)
        before = probe.reads
        assert len(probe.collect()) == parallelism * 2
        stats = ctx.job_stats[-1].stages[-1]
        assert len(stats.tasks) == parallelism
        return probe.reads - before

    @pytest.mark.parametrize(
        "build, conf",
        [
            (_cached_scan, {}),
            (_copartition_join, {"copartition_scheduling": True}),
        ],
        ids=["cached-rdd", "copartition-join"],
    )
    def test_traversals_independent_of_partition_count(self, build, conf):
        """10x the tasks, the same number of lineage reads: locality
        preferences read the stage's one walk instead of re-traversing
        the pipeline for every task."""
        few = self._traversal_reads(build, 30, **conf)
        many = self._traversal_reads(build, 300, **conf)
        assert few > 0, "the probe is not on the scheduler's path"
        assert many == few


# ----------------------------------------------------------------------
# (c) Derived-list order is behaviour
# ----------------------------------------------------------------------


def _final_stage(ctx: AnalyticsContext, rdd: RDD):
    return ctx.dag_scheduler.provisional_stages(rdd)[-1]


def _walk_ids(stage):
    return (
        [r.id for r in stage.input_rdds()],
        [d.shuffle_id for d in stage.incoming_shuffle_deps()],
        [r.id for r in stage.cached_rdds()],
    )


class TestDerivedListOrder:
    """Literal sequences recorded from the three hand-written walks."""

    @pytest.fixture
    def sides(self):
        ctx = make_ctx(8)
        part = HashPartitioner(3)
        # a: already partitioned by `part` (narrow into an aligned
        # cogroup); b: unpartitioned (shuffled into it).
        a = ctx.parallelize([(i % 5, i) for i in range(40)], 2).reduce_by_key(
            add, partitioner=part
        )
        b = ctx.parallelize([(i % 5, -i) for i in range(40)], 2)
        assert (a.id, b.id) == (2, 3)
        return ctx, part, a, b

    def test_aligned_cogroup_narrow_side_first(self, sides):
        ctx, part, a, b = sides
        stage = _final_stage(ctx, a.join(b, partitioner=part))
        # deps = [narrow a, shuffle b]: a's own shuffle (descended into)
        # precedes the cogroup's later shuffle dep.
        assert _walk_ids(stage) == ([4, 2], [0, 2], [])

    def test_aligned_cogroup_shuffle_side_first(self, sides):
        ctx, part, a, b = sides
        stage = _final_stage(ctx, b.join(a, partitioner=part))
        # deps = [shuffle b, narrow a]: the cogroup's shuffle dep is
        # appended before the walk descends into a.
        assert _walk_ids(stage) == ([4, 2], [1, 0], [])

    def test_union_of_shuffled_rdds(self, sides):
        ctx, _part, a, b = sides
        union = ctx.union(
            [
                a.map(lambda kv: kv).cache(),
                b.reduce_by_key(add, 3).cache(),
                a.map(lambda kv: kv),  # a reached twice: visited once
            ]
        )
        stage = _final_stage(ctx, union.map(lambda kv: kv))
        assert _walk_ids(stage) == ([2, 5], [0, 1], [4, 5])

    def test_cache_flag_is_read_at_call_time(self, sides):
        ctx, _part, a, _b = sides
        mapped = a.map(lambda kv: kv)
        stage = _final_stage(ctx, mapped.map(lambda kv: kv))
        assert stage.cached_rdds() == []
        mapped.cache()  # after the stage object walked its pipeline
        assert stage.cached_rdds() == [mapped]


# ----------------------------------------------------------------------
# (b) A one-split task is the static task; a coalesced one is its splits
# ----------------------------------------------------------------------

# Recorded at the parent commit from ``Task(stage, i)`` (``spec=None``)
# run through ``TaskRunner.execute``, map task i on node w{i % 2}, result
# tasks on w0, for the job in ``_TwoStageJob``.
# (compute_bytes, records_out, input_bytes, max_partition_bytes, shuffle_write)
PARENT_MAP_TOTALS = [
    (5100.0, 102, 5100.0, 5100.0, 556.0),
    (5205.0, 103, 5205.0, 5205.0, 862.0),
    (5209.0, 102, 5209.0, 5209.0, 770.0),
    (5356.0, 103, 5356.0, 5356.0, 568.0),
]
# Registered map output: bytes per map task, for each reduce partition.
PARENT_BLOCK_SIZES = [
    [114.0, 165.0, 167.0, 116.0],
    [164.0, 266.0, 218.0, 168.0],
    [114.0, 165.0, 167.0, 116.0],
    [164.0, 266.0, 218.0, 168.0],
]
PARENT_RESULTS = [
    [("k5", 4012), ("kk5", 12026), ("kkk5", 14080)],
    [("k1", 4006), ("k3", 4312), ("kk1", 12628), ("kk3", 11726),
     ("kkk1", 14300), ("kkk3", 14080)],
    [("k4", 4008), ("kk4", 12628), ("kkk4", 14300)],
    [("k0", 2002), ("k9", 4010), ("kk0", 6314), ("kk9", 12028),
     ("kkk0", 7150), ("kkk9", 14080)],
]
# (compute_bytes, records_out, max_partition_bytes, shuffle_read_local,
#  shuffle_read_remote, shuffle_blocks_fetched)
PARENT_RESULT_TOTALS = [
    (715.0, 6, 562.0, 281.0, 281.0, 4),
    (1122.0, 12, 816.0, 382.0, 434.0, 4),
    (715.0, 6, 562.0, 281.0, 281.0, 4),
    (1122.0, 12, 816.0, 382.0, 434.0, 4),
]


def _sorted_records(_split, records):
    return sorted(records)


class _TwoStageJob:
    """A map stage and a result stage driven by hand through the runner."""

    def __init__(self) -> None:
        self.ctx = ctx = make_ctx(4)
        pairs = ctx.parallelize(
            [("k" * (1 + i // 150) + str(i * i % 11), i) for i in range(410)], 4
        )
        final = pairs.reduce_by_key(add, 4).map(lambda kv: (kv[0], kv[1] * 2))
        self.map_stage, self.result_stage = ctx.dag_scheduler.provisional_stages(
            final
        )
        dep = self.map_stage.shuffle_dep
        self.shuffle_id = dep.shuffle_id
        ctx.shuffle_manager.register(self.shuffle_id, 4, dep.num_reduce_partitions)
        self.nodes = {w.name: w for w in ctx.cluster.workers}

    def run(self, stage, index, splits, node, result_fn=None):
        task = Task(stage, index, tuple(splits))
        _cost, tctx, result = self.ctx.task_scheduler.runner.execute(
            stage, task, self.nodes[node], result_fn
        )
        assert tctx.task_index == index
        return tctx, result

    def run_plain_maps(self) -> list:
        return [
            self.run(self.map_stage, i, (i,), f"w{i % 2}")[0] for i in range(4)
        ]

    def bucket_bytes(self) -> list:
        """Per reduce partition, the bytes each map task's bucket holds."""
        manager = self.ctx.shuffle_manager
        index = manager._index(manager._state(self.shuffle_id))
        sizes = []
        for rid in range(4):
            maps, _starts, _stops, nbytes = index.rows(rid)
            row = [0.0] * 4
            for map_id, size in zip(maps.tolist(), nbytes.tolist()):
                row[map_id] = size
            sizes.append(row)
        return sizes

    def counter(self, name: str) -> float:
        return self.ctx.obs.metrics.counter_total(name)


def _map_totals(tctx):
    return (
        tctx.compute_bytes, tctx.records_out, tctx.input_bytes,
        tctx.max_partition_bytes, tctx.shuffle_write,
    )


def _result_totals(tctx):
    return (
        tctx.compute_bytes, tctx.records_out, tctx.max_partition_bytes,
        tctx.shuffle_read_local, tctx.shuffle_read_remote,
        tctx.shuffle_blocks_fetched,
    )


class TestSpecDrivenTaskBody:
    def test_plain_spec_is_the_static_task(self):
        job = _TwoStageJob()
        assert [_map_totals(t) for t in job.run_plain_maps()] == PARENT_MAP_TOTALS
        assert job.bucket_bytes() == PARENT_BLOCK_SIZES
        assert job.counter("executor.map_tasks") == 4
        for i in range(4):
            tctx, result = job.run(
                job.result_stage, i, (i,), "w0", _sorted_records
            )
            assert result == [PARENT_RESULTS[i]]  # one entry per split
            assert _result_totals(tctx) == PARENT_RESULT_TOTALS[i]
        assert job.counter("executor.result_tasks") == 4

    def test_task_index_is_not_the_split(self):
        """A plain spec computes the split it names, whatever physical
        index the plan gave the task (a coalesced plan renumbers them)."""
        job = _TwoStageJob()
        job.run_plain_maps()
        tctx, result = job.run(job.result_stage, 7, (1,), "w0", _sorted_records)
        assert result == [PARENT_RESULTS[1]]
        assert _result_totals(tctx) == PARENT_RESULT_TOTALS[1]

    def test_coalesced_map_task_equals_its_plain_tasks(self):
        job = _TwoStageJob()
        for index, splits in enumerate([(0, 1), (2, 3)]):
            tctx, result = job.run(job.map_stage, index, splits, "w0")
            assert result == [None, None]
            parts = [PARENT_MAP_TOTALS[s] for s in splits]
            assert _map_totals(tctx) == (
                sum(p[0] for p in parts),
                sum(p[1] for p in parts),
                sum(p[2] for p in parts),
                max(p[3] for p in parts),
                sum(p[4] for p in parts),
            )
        # Every split's output landed under its own map id.
        assert job.bucket_bytes() == PARENT_BLOCK_SIZES
        assert job.counter("executor.map_tasks") == 2  # one per physical task

    def test_coalesced_result_task_equals_its_plain_tasks(self):
        job = _TwoStageJob()
        job.run_plain_maps()
        tctx, result = job.run(
            job.result_stage, 0, (0, 1), "w0", _sorted_records
        )
        assert result == PARENT_RESULTS[0:2]
        first, second = PARENT_RESULT_TOTALS[0:2]
        assert _result_totals(tctx) == (
            first[0] + second[0],
            first[1] + second[1],
            max(first[2], second[2]),
            first[3] + second[3],
            first[4] + second[4],
            first[5] + second[5],
        )
        assert job.counter("executor.result_tasks") == 1
