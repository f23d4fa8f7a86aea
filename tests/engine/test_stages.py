"""Tests for stage formation, signatures, and stage-level scheduling."""

from repro.engine import HashPartitioner
from repro.engine.stage import RESULT, SHUFFLE_MAP


def job_stage_kinds(ctx):
    return [s.kind for s in ctx.job_stats[-1].stages]


class TestStageFormation:
    def test_narrow_chain_is_one_stage(self, ctx):
        rdd = ctx.parallelize(range(10), 2).map(lambda x: x).filter(lambda x: True)
        rdd.collect()
        assert job_stage_kinds(ctx) == [RESULT]

    def test_shuffle_cuts_stage(self, ctx):
        pairs = ctx.parallelize([(1, 1)], 2)
        pairs.reduce_by_key(lambda a, b: a + b, 2).collect()
        assert job_stage_kinds(ctx) == [SHUFFLE_MAP, RESULT]

    def test_two_chained_shuffles(self, ctx):
        pairs = ctx.parallelize([(i % 3, i) for i in range(20)], 3)
        out = (
            pairs.reduce_by_key(lambda a, b: a + b, 2)
            .map(lambda kv: (kv[1] % 2, 1))
            .reduce_by_key(lambda a, b: a + b, 2)
        )
        out.collect()
        assert job_stage_kinds(ctx) == [SHUFFLE_MAP, SHUFFLE_MAP, RESULT]

    def test_join_produces_parallel_map_stages(self, ctx):
        a = ctx.parallelize([(1, "a")], 2)
        b = ctx.parallelize([(1, "b")], 2)
        a.join(b, 2).collect()
        kinds = job_stage_kinds(ctx)
        assert kinds.count(SHUFFLE_MAP) == 2
        assert kinds[-1] == RESULT

    def test_copartitioned_join_skips_map_stages(self, ctx):
        part = HashPartitioner(3)
        a = ctx.parallelize([(1, 1)], 2).reduce_by_key(lambda x, y: x, partitioner=part)
        b = ctx.parallelize([(1, 2)], 2).reduce_by_key(lambda x, y: x, partitioner=part)
        a.join(b).collect()
        kinds = job_stage_kinds(ctx)
        # Two scan shuffles (into the aggregations) + fused result stage:
        # the aggregations themselves are narrow into the join.
        assert kinds.count(SHUFFLE_MAP) == 2
        assert len(kinds) == 3

    def test_shuffle_read_twice_in_one_job_is_one_stage(self, ctx):
        sums = ctx.parallelize([(i % 4, i) for i in range(20)], 2).reduce_by_key(
            lambda a, b: a + b, 2
        )
        doubled = sums.map_values(lambda v: 2 * v)
        out = sums.join(doubled, 3).collect_as_map()
        # Both join sides read the sums' shuffle: its scan stage runs once.
        assert job_stage_kinds(ctx) == [SHUFFLE_MAP, SHUFFLE_MAP, SHUFFLE_MAP, RESULT]
        assert out == {k: (v, 2 * v) for k, v in sums.collect_as_map().items()}

    def test_result_partition_count_follows_reducer(self, ctx):
        pairs = ctx.parallelize([(i, i) for i in range(10)], 4)
        pairs.reduce_by_key(lambda a, b: a + b, 7).collect()
        result = ctx.job_stats[-1].stages[-1]
        assert result.num_partitions == 7


class TestShuffleReuse:
    def test_second_action_on_a_shuffled_rdd_runs_no_map_task(self, ctx):
        pairs = ctx.parallelize([(i % 5, i) for i in range(100)], 4)
        r = pairs.reduce_by_key(lambda a, b: a + b, 3)
        assert r.count() == 5
        assert job_stage_kinds(ctx) == [SHUFFLE_MAP, RESULT]
        assert sorted(r.collect()) == [
            (k, sum(range(k, 100, 5))) for k in range(5)
        ]
        # The map output the first job wrote is read again, not rebuilt.
        assert job_stage_kinds(ctx) == [RESULT]
        assert len(ctx.stage_stats) == 3


class TestSignatures:
    def test_iterations_share_signature(self, ctx):
        """Same-structure stages (paper's KMeans 12-17) share a signature."""
        base = ctx.parallelize([(i % 3, i) for i in range(20)], 3).cache()
        sigs = []
        for _ in range(3):
            base.reduce_by_key(lambda a, b: a + b, 2).collect()
            sigs.append(
                tuple(s.signature for s in ctx.job_stats[-1].stages)
            )
        assert sigs[0] == sigs[1] == sigs[2]

    def test_different_structure_different_signature(self, ctx):
        base = ctx.parallelize([(1, 1)], 2)
        base.reduce_by_key(lambda a, b: a + b, 2).collect()
        sig_reduce = ctx.job_stats[-1].stages[-1].signature
        base.group_by_key(2).collect()
        sig_group = ctx.job_stats[-1].stages[-1].signature
        # The shared map stage is structurally identical, but the consumer
        # (result) stages differ.
        assert sig_reduce != sig_group

    def test_signature_independent_of_partition_count(self, ctx):
        base = ctx.parallelize([(1, 1)], 2)
        base.reduce_by_key(lambda a, b: a + b, 2).collect()
        sig_a = ctx.job_stats[-1].stages[-1].signature
        base.reduce_by_key(lambda a, b: a + b, 5).collect()
        sig_b = ctx.job_stats[-1].stages[-1].signature
        assert sig_a == sig_b

    def test_distinct_sources_distinct_signatures(self, ctx):
        a = ctx.source(lambda s, n: [(s, 1)], 2, op_name="table-a")
        b = ctx.source(lambda s, n: [(s, 1)], 2, op_name="table-b")
        assert a.signature != b.signature

    def test_map_vs_result_stage_of_same_rdd_differ(self, ctx):
        pairs = ctx.parallelize([(1, 1)], 2).map(lambda kv: kv)
        pairs.reduce_by_key(lambda a, b: a + b, 2).collect()
        stages = ctx.job_stats[-1].stages
        assert stages[0].signature != stages[1].signature


class TestStageStats:
    def test_input_bytes_positive(self, ctx):
        ctx.parallelize(list(range(1000)), 4).collect()
        assert ctx.job_stats[-1].stages[0].input_bytes > 0

    def test_shuffle_bytes_metric_is_max_of_read_write(self, ctx):
        pairs = ctx.parallelize([(i % 3, 1) for i in range(100)], 4)
        pairs.reduce_by_key(lambda a, b: a + b, 2).collect()
        for stage in ctx.job_stats[-1].stages:
            assert stage.shuffle_bytes == max(
                stage.shuffle_read_bytes, stage.shuffle_write_bytes
            )

    def test_map_stage_writes_result_stage_reads(self, ctx):
        pairs = ctx.parallelize([(i % 3, 1) for i in range(100)], 4)
        pairs.reduce_by_key(lambda a, b: a + b, 2).collect()
        map_stage, result_stage = ctx.job_stats[-1].stages
        assert map_stage.shuffle_write_bytes > 0
        assert map_stage.shuffle_read_bytes == 0
        assert result_stage.shuffle_read_bytes > 0
        # Read volume equals write volume: nothing lost in transit.
        assert result_stage.shuffle_read_bytes == map_stage.shuffle_write_bytes

    def test_task_count_matches_partitions(self, ctx):
        ctx.parallelize(range(10), 5).collect()
        stage = ctx.job_stats[-1].stages[0]
        assert len(stage.tasks) == 5

    def test_stage_duration_positive_and_bounded_by_job(self, ctx):
        pairs = ctx.parallelize([(i % 3, 1) for i in range(100)], 4)
        pairs.reduce_by_key(lambda a, b: a + b, 2).collect()
        job = ctx.job_stats[-1]
        for stage in job.stages:
            assert 0 < stage.duration <= job.duration + 1e-9

    def test_partitioner_kind_recorded_for_reduce_stage(self, ctx):
        pairs = ctx.parallelize([(i % 3, 1) for i in range(20)], 4)
        pairs.reduce_by_key(lambda a, b: a + b, 2).collect()
        result = ctx.job_stats[-1].stages[-1]
        assert result.partitioner_kind == "hash"

    def test_skew_metric(self, ctx):
        ctx.parallelize(range(100), 4).collect()
        stage = ctx.job_stats[-1].stages[0]
        assert stage.skew() >= 1.0
