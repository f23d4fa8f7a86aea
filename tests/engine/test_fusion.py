"""Narrow-stage operator fusion: one kernel, identical observables.

``operator_fusion=True`` compiles adjacent map/filter/mapValues steps
into a single per-partition pass (loop-fused, or vectorized on columnar
batches when every step supplies an opt-in ``vec`` kernel). Everything
the simulation observes — results, per-step byte accounting, the clock,
caching, error behaviour — must be identical to the step-at-a-time path.
"""

import json

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.engine.rdd import MapPartitionsRDD
from repro.obs import MetricsRegistry


def make_ctx(**kwargs):
    kwargs.setdefault("default_parallelism", 4)
    return AnalyticsContext(paper_cluster(), EngineConf(**kwargs))


def chain(ctx):
    return (
        ctx.parallelize([("w%d" % (i % 5), i) for i in range(40)], 4)
        .filter(lambda kv: kv[1] % 2 == 0)
        .map_values(lambda v: v + 1)
        .map(lambda kv: (kv[0], kv[1] * 2))
    )


def run_fingerprint(**conf_kwargs):
    registry = MetricsRegistry()
    ctx = AnalyticsContext(
        paper_cluster(),
        EngineConf(default_parallelism=4, **conf_kwargs),
        metrics_registry=registry,
    )
    result = chain(ctx).reduce_by_key(lambda a, b: a + b, numeric_add=True)
    collected = sorted(result.collect())
    return collected, ctx.now, json.dumps(registry.snapshot(), default=str)


class TestFusionChain:
    def test_chain_detected(self):
        ctx = make_ctx(operator_fusion=True)
        top = chain(ctx)
        fused = top._fusion_chain()
        assert fused is not None
        assert [s._record_op.kind for s in fused] == [
            "filter", "map_values", "map"
        ]

    def test_chain_off_without_conf(self):
        ctx = make_ctx()
        assert chain(ctx)._fusion_chain() is None

    def test_single_step_not_fused(self):
        ctx = make_ctx(operator_fusion=True)
        rdd = ctx.parallelize([("a", 1)], 2).map(lambda kv: kv)
        assert rdd._fusion_chain() is None

    def test_chain_breaks_at_partition_level_op(self):
        ctx = make_ctx(operator_fusion=True)
        rdd = (
            ctx.parallelize([("a", 1)], 2)
            .map(lambda kv: kv)
            .flat_map(lambda kv: [kv])  # no RecordOp: breaks the chain
            .map(lambda kv: kv)
            .map_values(lambda v: v)
        )
        fused = rdd._fusion_chain()
        assert fused is not None and len(fused) == 2

    def test_chain_breaks_at_cached_step(self):
        ctx = make_ctx(operator_fusion=True)
        cached = chain(ctx).cache()
        top = cached.map_values(lambda v: v).map(lambda kv: kv)
        fused = top._fusion_chain()
        assert fused is not None
        assert cached not in fused and len(fused) == 2

    def test_fused_results_and_accounting_identical(self):
        assert run_fingerprint() == run_fingerprint(operator_fusion=True)

    def test_fused_columnar_identical(self):
        assert run_fingerprint() == run_fingerprint(
            operator_fusion=True,
            record_format="columnar",
        )

    def test_cached_top_of_chain_identical(self):
        def run(**kwargs):
            ctx = make_ctx(**kwargs)
            top = chain(ctx).cache()
            first = sorted(top.collect())
            second = sorted(top.collect())  # cache-hit path
            return first, second, ctx.now

        assert run() == run(operator_fusion=True)

    def test_fused_error_behaviour_matches_unfused(self):
        # A malformed record must blow up identically (same exception
        # type from the same unpacking) whether or not the chain fused.
        def run(**kwargs):
            ctx = make_ctx(**kwargs)
            rdd = (
                ctx.parallelize([("a", 1), "oops"], 1)
                .map_values(lambda v: v)
                .map(lambda kv: kv)
            )
            with pytest.raises(Exception) as info:
                rdd.collect()
            return type(info.value.__cause__ or info.value)

        assert run() == run(operator_fusion=True)


class TestVecKernels:
    def test_vec_chain_runs_on_columns(self):
        ctx = make_ctx(
            operator_fusion=True, record_format="columnar",
        )
        rdd = (
            ctx.parallelize([("w%d" % i, i) for i in range(20)], 2)
            .filter(
                lambda kv: kv[1] >= 5,
                vec=lambda keys, values: values >= 5,
            )
            .map_values(float, vec=lambda values: values.astype(np.float64))
        )
        out = sorted(rdd.reduce_by_key(
            lambda a, b: a + b, numeric_add=True, map_side_combine=False
        ).collect())
        expect = sorted((f"w{i}", float(i)) for i in range(5, 20))
        assert out == expect
        for k, v in out:
            assert type(k) is str and type(v) is float

    def test_vec_and_scalar_paths_agree(self):
        def run(**kwargs):
            ctx = make_ctx(**kwargs)
            rdd = (
                ctx.parallelize([("w%d" % (i % 7), i) for i in range(50)], 4)
                .filter(
                    lambda kv: len(kv[0]) >= 2,
                    vec=lambda keys, values: np.char.str_len(keys) >= 2,
                )
                .map_values(float, vec=lambda v: v.astype(np.float64))
            )
            agg = rdd.reduce_by_key(
                lambda a, b: a + b, numeric_add=True, map_side_combine=False
            )
            return sorted(agg.collect()), ctx.now

        base = run()
        assert base == run(operator_fusion=True)
        assert base == run(
            operator_fusion=True, record_format="columnar",
        )


class TestMapPartitionsPlumbing:
    def test_record_op_absent_on_partition_ops(self):
        ctx = make_ctx()
        rdd = ctx.parallelize([1, 2], 2).flat_map(lambda x: [x])
        assert isinstance(rdd, MapPartitionsRDD)
        assert rdd._record_op is None
