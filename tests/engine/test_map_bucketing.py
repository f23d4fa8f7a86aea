"""Map-side output bucketing against its per-record reference.

``TaskRunner._run_map_task`` buckets a task's output with one
``partition_many`` call and the ``MapOutput.bucketed`` kernel, which
hands ``put_map_output`` one container sorted by reduce id plus a sparse
bucket index. These tests read the buckets back off that consolidated
output and pin down that they are byte-for-byte the buckets of the naive
per-record reference (``Partitioner.partition`` + ``estimate_size`` per
record, a dict of lists), in the same first-occurrence order and with
the same write total, on both the combined (``reduce_by_key``) and
pass-through (``group_by_key``) map paths and in both record formats.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import pytest

from repro.cluster import uniform_cluster
from repro.common.sizing import estimate_size
from repro.engine import AnalyticsContext, EngineConf
from repro.engine.costmodel import CostModelConfig
from repro.engine.executor import TaskRunner
from repro.engine.shuffle import ShuffleManager
from tests.engine.test_shuffle import buckets_of, map_output


def _reference_run_map_task(self, stage, split, tctx):
    """The pre-optimization bucketing: tuple rebuild per record."""
    dep = stage.shuffle_dep
    assert dep is not None
    records = stage.rdd.materialize(split, tctx)

    if dep.map_side_combine:
        agg = dep.aggregator
        combined: Dict[Any, Any] = {}
        for record in records:
            k = dep.key_fn(record)
            v = record[1]
            if k in combined:
                combined[k] = agg.merge_value(combined[k], v)
            else:
                combined[k] = agg.create_combiner(v)
        out_records: List = list(combined.items())
        write_scale = 1.0
    else:
        out_records = records
        write_scale = stage.rdd.size_scale

    buckets: Dict[int, Tuple[List, float]] = {}
    for record in out_records:
        rid = dep.partitioner.partition(dep.key_fn(record))
        recs, nbytes = buckets.get(rid, ([], 0.0))
        buckets[rid] = (
            recs + [record],
            nbytes + estimate_size(record) * write_scale,
        )

    written = self.ctx.shuffle_manager.put_map_output(
        dep.shuffle_id, split, tctx.node, map_output(buckets)
    )
    tctx.note_shuffle_write(written)


def _capture_payloads(monkeypatch, job, reference: bool, **conf):
    """Run ``job`` once; return every put_map_output payload, in order."""
    payloads = []
    original_put = ShuffleManager.put_map_output

    def recording_put(self, shuffle_id, map_id, node, output):
        # shuffle_id comes from a process-global counter, so it differs
        # between the two comparison runs; the payload proper is (map
        # split, bucket contents and byte sizes in write order, bytes
        # written).
        buckets = buckets_of(output)  # before registration drops the order
        written = original_put(self, shuffle_id, map_id, node, output)
        payloads.append((map_id, buckets, written))
        return written

    monkeypatch.setattr(ShuffleManager, "put_map_output", recording_put)
    if reference:
        monkeypatch.setattr(TaskRunner, "_run_map_task", _reference_run_map_task)
    cost = CostModelConfig(jitter_sigma=0.0, driver_dispatch_interval=0.0)
    # physical_parallelism pinned to 1: this test intercepts
    # put_map_output at the worker boundary, where threaded execution
    # calls it in completion order (the *applied* order stays serial).
    ctx = AnalyticsContext(
        uniform_cluster(n_workers=2, cores=2),
        EngineConf(
            default_parallelism=4, cost=cost, physical_parallelism=1, **conf
        ),
    )
    result = job(ctx)
    monkeypatch.undo()
    return payloads, result


def _skewed_pairs(ctx):
    # A hot key plus a long tail: buckets of very different sizes.
    data = [(i % 5 if i % 3 else 0, i) for i in range(4000)]
    return ctx.parallelize(data, 4)


JOBS = {
    "combined": lambda ctx: _skewed_pairs(ctx)
    .reduce_by_key(lambda a, b: a + b, 3)
    .collect_as_map(),
    "passthrough": lambda ctx: _skewed_pairs(ctx)
    .group_by_key(3)
    .map_values(len)
    .collect_as_map(),
}


class TestMapBucketingRegression:
    @pytest.mark.parametrize("record_format", ["list", "columnar"])
    @pytest.mark.parametrize("name", sorted(JOBS))
    def test_payloads_match_naive_reference(
        self, monkeypatch, name, record_format
    ):
        job = JOBS[name]
        got, result = _capture_payloads(
            monkeypatch, job, reference=False, record_format=record_format
        )
        want, ref_result = _capture_payloads(monkeypatch, job, reference=True)
        assert result == ref_result
        # Identical buckets, byte sums, ordering and write totals (==).
        assert got == want

    def test_payloads_nontrivial(self, monkeypatch):
        payloads, _ = _capture_payloads(
            monkeypatch, JOBS["passthrough"], reference=False
        )
        assert payloads, "job produced no map output"
        # Every reduce bucket carries records and a positive byte size.
        assert any(len(buckets) > 1 for _, buckets, _written in payloads)
        # ... and some task met its buckets out of reduce-id order, so the
        # first-occurrence write order is really exercised.
        assert any(
            [rid for rid, _, _ in buckets] != sorted(rid for rid, _, _ in buckets)
            for _, buckets, _written in payloads
        )
        for _mid, buckets, written in payloads:
            assert written > sum(nbytes for _, _, nbytes in buckets) > 0
            for _rid, recs, nbytes in buckets:
                assert recs and nbytes > 0
