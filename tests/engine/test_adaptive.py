"""Unit tests for the AQE decision logic on synthetic histograms.

The pure functions in :mod:`repro.engine.adaptive` decide what the DAG
scheduler does at runtime; these tests pin their behavior on hand-built
size histograms, independent of any engine execution. The end-to-end
bit-identity properties live in ``test_aqe_oracle.py``.
"""

from __future__ import annotations

import pytest

from repro.cluster import uniform_cluster
from repro.common.errors import ConfigurationError
from repro.common.sizing import estimate_size
from repro.engine import AnalyticsContext, EngineConf
from repro.engine.adaptive import (
    MAX_SUBPARTITIONS,
    AdaptiveTaskSpec,
    bucket_records,
    hot_partitions,
    plan_partitions,
    should_switch,
    slice_map_ranges,
    splittable_shuffle,
)
from repro.engine.partitioner import HashPartitioner, RangePartitioner
from tests.engine.test_shuffle import buckets_of

MB = 1024.0 * 1024.0


class TestHotPartitions:
    def test_uniform_has_no_hot(self):
        assert hot_partitions(
            [10.0] * 8, target_bytes=1.0
        ) == set()

    def test_hot_partition_flagged(self):
        sizes = [10.0, 10.0, 10.0, 100.0]
        assert hot_partitions(
            sizes, target_bytes=1.0
        ) == {3}

    def test_threshold_is_strict(self):
        # exactly threshold x median is NOT hot (strict >)
        sizes = [10.0, 10.0, 10.0, 40.0]
        assert (
            hot_partitions(sizes, target_bytes=1.0)
            == set()
        )

    def test_small_absolute_sizes_not_hot(self):
        # 100x the median but under target_bytes: splitting buys nothing
        sizes = [1.0, 1.0, 1.0, 100.0]
        assert (
            hot_partitions(sizes, target_bytes=200.0)
            == set()
        )

    def test_median_ignores_empty_partitions(self):
        # range partitioners leave empty trailing buckets; a zero median
        # must not make every non-empty partition "hot"
        sizes = [0.0] * 6 + [10.0, 11.0]
        assert (
            hot_partitions(sizes, target_bytes=1.0)
            == set()
        )

    def test_all_empty(self):
        assert hot_partitions(
            [0.0, 0.0], target_bytes=1.0
        ) == set()


class TestShouldSwitch:
    def test_balanced_histogram_keeps_partitioner(self):
        assert not should_switch([10.0, 11.0, 9.0, 10.0])

    def test_skewed_histogram_switches(self):
        assert should_switch([10.0, 10.0, 10.0, 50.0])

    def test_degenerate_inputs_never_switch(self):
        assert not should_switch([])
        assert not should_switch([100.0])
        assert not should_switch([0.0, 100.0])


class TestSliceMapRanges:
    def test_even_bytes_even_cuts(self):
        assert slice_map_ranges([100.0] * 8, 4) == [
            (0, 2), (2, 4), (4, 6), (6, 8),
        ]

    def test_ranges_are_contiguous_and_complete(self):
        per_map = [5.0, 80.0, 5.0, 5.0, 80.0, 5.0, 5.0, 15.0]
        ranges = slice_map_ranges(per_map, 4)
        assert ranges[0][0] == 0 and ranges[-1][1] == len(per_map)
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        assert all(hi > lo for lo, hi in ranges)

    def test_want_capped_by_map_count(self):
        ranges = slice_map_ranges([10.0, 10.0], 8)
        assert ranges == [(0, 1), (1, 2)]

    def test_degenerate_inputs_single_range(self):
        assert slice_map_ranges([], 4) == [(0, 0)]
        assert slice_map_ranges([10.0] * 4, 1) == [(0, 4)]
        assert slice_map_ranges([0.0] * 4, 2) == [(0, 4)]


class TestPlanPartitions:
    def test_no_change_returns_none(self):
        # partitions already near target: nothing to coalesce or split
        assert (
            plan_partitions(
                [60.0 * MB] * 8, target_bytes=64 * MB
            )
            is None
        )

    def test_single_partition_returns_none(self):
        assert (
            plan_partitions(
                [1.0], target_bytes=64 * MB
            )
            is None
        )

    def test_tiny_partitions_coalesced_toward_target(self):
        sizes = [1.0 * MB] * 16
        plan = plan_partitions(
            sizes, target_bytes=4 * MB
        )
        assert plan is not None
        assert plan.n_split == 0
        assert plan.n_coalesced == 16
        assert [s.splits for s in plan.specs] == [
            tuple(range(i, i + 4)) for i in range(0, 16, 4)
        ]
        # coalesced runs must cover every original partition exactly once
        covered = [p for s in plan.specs for p in s.splits]
        assert covered == list(range(16))
        assert plan.after_sizes == [4.0 * MB] * 4

    def test_coalesce_respects_target_boundary(self):
        sizes = [3.0 * MB, 3.0 * MB, 3.0 * MB]
        plan = plan_partitions(
            sizes, target_bytes=6 * MB
        )
        assert plan is not None
        assert [s.splits for s in plan.specs] == [(0, 1), (2,)]

    def test_hot_partition_split_into_slices(self):
        sizes = [10.0 * MB, 10.0 * MB, 10.0 * MB, 400.0 * MB]
        per_map = [100.0 * MB] * 4

        plan = plan_partitions(
            sizes,
            target_bytes=100 * MB,
            shuffle_id=7,
            map_sizes=lambda rid: per_map,
        )
        assert plan is not None
        assert plan.n_split == 1
        slices = [s for s in plan.specs if s.is_slice]
        assert len(slices) == 4
        assert all(s.splits == (3,) for s in slices)
        assert all(s.shuffle_id == 7 for s in slices)
        assert [s.slice_index for s in slices] == [0, 1, 2, 3]
        assert all(s.n_slices == 4 for s in slices)
        # slice ranges tile the map outputs
        assert slices[0].map_range[0] == 0
        assert slices[-1].map_range[1] == 4

    def test_no_split_without_map_sizes(self):
        # aggregating pipelines pass map_sizes=None: the hot partition
        # must run unsplit (slice-wise folds are not bit-identical)
        sizes = [10.0 * MB, 10.0 * MB, 10.0 * MB, 400.0 * MB]
        plan = plan_partitions(
            sizes, target_bytes=100 * MB
        )
        if plan is not None:
            assert plan.n_split == 0
            assert not any(s.is_slice for s in plan.specs)

    def test_max_slices_respected(self):
        sizes = [1.0 * MB, 1.0 * MB, 64.0 * MB]
        per_map = [1.0 * MB] * 64
        plan = plan_partitions(
            sizes,
            target_bytes=2 * MB,  # asks for 32 slices
            shuffle_id=1,
            map_sizes=lambda rid: per_map,
        )
        assert plan is not None
        assert sum(1 for s in plan.specs if s.is_slice) == MAX_SUBPARTITIONS

    def test_plan_is_deterministic(self):
        sizes = [3.0 * MB, 1.0 * MB, 50.0 * MB, 2.0 * MB, 1.0 * MB]
        per_map = [12.5 * MB] * 4
        kwargs = dict(
            target_bytes=5 * MB,
            shuffle_id=0,
            map_sizes=lambda rid: per_map,
        )
        a = plan_partitions(sizes, **kwargs)
        b = plan_partitions(sizes, **kwargs)
        assert a is not None
        assert a.specs == b.specs
        assert a.after_sizes == b.after_sizes


class TestAdaptiveTaskSpec:
    def test_plain(self):
        spec = AdaptiveTaskSpec(splits=(3,))
        assert not spec.is_slice

    def test_slice(self):
        spec = AdaptiveTaskSpec(
            splits=(3,), map_range=(0, 2), shuffle_id=1, n_slices=2
        )
        assert spec.is_slice

    def test_coalesced(self):
        spec = AdaptiveTaskSpec(splits=(3, 4, 5))
        assert not spec.is_slice


class TestSplittableShuffle:
    def setup_method(self):
        self.ctx = AnalyticsContext(
            uniform_cluster(n_workers=2, cores=2),
            EngineConf(default_parallelism=4),
        )

    def teardown_method(self):
        self.ctx.close()

    def _result_stage(self, rdd):
        return self.ctx.dag_scheduler.provisional_stages(rdd)[-1]

    def test_identity_shuffle_with_record_local_chain(self):
        pairs = self.ctx.parallelize([(i, i) for i in range(20)], 4)
        rdd = (
            pairs.partition_by(HashPartitioner(4))
            .values()
            .map(lambda v: v + 1)
            .filter(lambda v: v > 0)
        )
        dep = splittable_shuffle(self._result_stage(rdd))
        assert dep is not None

    def test_aggregate_shuffle_not_splittable(self):
        pairs = self.ctx.parallelize([(i % 3, 1) for i in range(20)], 4)
        rdd = pairs.reduce_by_key(lambda a, b: a + b, 4)
        assert splittable_shuffle(self._result_stage(rdd)) is None

    def test_sorted_shuffle_not_splittable(self):
        pairs = self.ctx.parallelize([(i, i) for i in range(20)], 4)
        rdd = pairs.sort_by_key(4)
        assert splittable_shuffle(self._result_stage(rdd)) is None

    def test_non_record_local_step_blocks_split(self):
        pairs = self.ctx.parallelize([(i, i) for i in range(20)], 4)
        rdd = (
            pairs.partition_by(HashPartitioner(4))
            .glom()  # partition-level op: no RecordOp
        )
        assert splittable_shuffle(self._result_stage(rdd)) is None

    def test_cached_chain_blocks_split(self):
        pairs = self.ctx.parallelize([(i, i) for i in range(20)], 4)
        rdd = pairs.partition_by(HashPartitioner(4)).values().cache()
        assert splittable_shuffle(self._result_stage(rdd)) is None


def scalar_buckets(records, partitioner, key_fn, write_scale):
    """Per-record reference for the bucketing kernel: one
    ``Partitioner.partition`` + ``estimate_size`` call per record."""
    recs, nbytes = {}, {}
    for record in records:
        rid = partitioner.partition(key_fn(record))
        recs.setdefault(rid, []).append(record)
        nbytes[rid] = nbytes.get(rid, 0.0) + estimate_size(record)
    return {rid: (recs[rid], nbytes[rid] * write_scale) for rid in recs}


class TestBucketRecords:
    @pytest.mark.parametrize(
        "records",
        [
            [(i % 7, i) for i in range(100)],
            [(f"k{i % 5}", float(i)) for i in range(60)],
            [(i % 3, "x" * i) for i in range(40)],  # per-record sizes differ
            [(1, 2), (2, "mixed"), (1, None)],  # sizes_array declines
        ],
    )
    def test_matches_scalar_reference(self, records):
        part = HashPartitioner(4)
        out = bucket_records(records, part, lambda r: r[0], write_scale=2.0)
        want = scalar_buckets(records, part, lambda r: r[0], 2.0)
        # records in input order per bucket, bytes bit-identical, and the
        # write total folds the buckets in reduce-id order
        assert buckets_of(out) == [(rid, *want[rid]) for rid in sorted(want)]

    def test_empty(self):
        out = bucket_records([], HashPartitioner(2), lambda r: r, 1.0)
        assert len(out) == 0 and buckets_of(out) == []


class TestFromWeightedKeys:
    def test_balances_weighted_mass(self):
        # key 0 holds half the mass: it must get its own partition
        keys = [0] * 50 + list(range(1, 51))
        weights = [1.0] * len(keys)
        part = RangePartitioner.from_weighted_keys(keys, weights, 2)
        assert part.num_partitions == 2
        zero_bucket = part.partition(0)
        others = {part.partition(k) for k in range(1, 51)}
        assert others != {zero_bucket}

    def test_equal_keys_stay_together(self):
        # bounds never cut inside an equal-key run
        keys = [1] * 10 + [2] * 10
        part = RangePartitioner.from_weighted_keys(keys, [1.0] * 20, 4)
        assert part.partition(1) != part.partition(2)
        ones = {part.partition(1)}
        assert len(ones) == 1

    def test_empty_keys(self):
        part = RangePartitioner.from_weighted_keys([], [], 3)
        assert part.num_partitions == 3

    def test_deterministic(self):
        keys = [i % 13 for i in range(200)]
        weights = [float(1 + i % 5) for i in range(200)]
        a = RangePartitioner.from_weighted_keys(keys, weights, 5)
        b = RangePartitioner.from_weighted_keys(keys, weights, 5)
        assert a == b


class TestConfValidation:
    def test_target_bytes_positive(self):
        with pytest.raises(ConfigurationError):
            EngineConf(aqe_target_partition_bytes=0)
