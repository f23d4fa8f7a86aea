"""Correctness tests for the workload drivers (small physical samples)."""

import numpy as np
import pytest

from repro.cluster import uniform_cluster
from repro.common.errors import WorkloadError
from repro.engine import AnalyticsContext, EngineConf
from repro.workloads import (
    KMeansWorkload,
    PCAWorkload,
    PageRankWorkload,
    SQLWorkload,
    WordCountWorkload,
)


def make_ctx(parallelism=24):
    return AnalyticsContext(
        uniform_cluster(n_workers=3, cores=8),
        EngineConf(default_parallelism=parallelism),
    )


class TestKMeans:
    def test_stage_structure(self):
        ctx = make_ctx()
        workload = KMeansWorkload(
            virtual_gb=2.0, physical_records=1500, k=4, dim=3,
            lloyd_iterations=3, init_rounds=5,
        )
        workload.run(ctx)
        stats = ctx.stage_stats
        assert len(stats) == 20
        # Only stages 12-17 (iterations) and 18-19 (final count) shuffle.
        shuffling = [i for i, s in enumerate(stats) if s.shuffle_bytes > 0]
        assert shuffling == [12, 13, 14, 15, 16, 17, 18, 19]

    def test_iterations_share_signature(self):
        ctx = make_ctx()
        workload = KMeansWorkload(
            virtual_gb=2.0, physical_records=1000, k=3, dim=3
        )
        workload.run(ctx)
        sigs = [s.signature for s in ctx.stage_stats]
        assert sigs[12] == sigs[14] == sigs[16]
        assert sigs[13] == sigs[15] == sigs[17]
        assert sigs[0] != sigs[1]  # load vs sample pass are distinct

    def test_recovers_cluster_structure(self):
        """With well-separated generators, centers land near the truth."""
        ctx = make_ctx()
        workload = KMeansWorkload(
            virtual_gb=1.0, physical_records=2000, k=5, dim=2,
            lloyd_iterations=4, init_rounds=3, seed=3,
        )
        result = workload.run(ctx)
        centers = result.value
        from repro.workloads.datagen import KMeansDataGen

        truth = KMeansDataGen(
            virtual_bytes=1.0, physical_records=1, dim=2, n_clusters=5, seed=3
        ).centers()
        # Every true center has a learned center within the noise scale.
        for t in truth:
            dists = np.linalg.norm(centers - t, axis=1)
            assert dists.min() < 2.0

    def test_sizes_sum_to_n(self):
        ctx = make_ctx()
        workload = KMeansWorkload(virtual_gb=1.0, physical_records=800, k=3)
        result = workload.run(ctx)
        assert sum(result.details["sizes"].values()) == result.details["n"]


class TestPCA:
    def test_stage_structure(self):
        ctx = make_ctx()
        workload = PCAWorkload(virtual_gb=2.0, physical_records=1200)
        workload.run(ctx)
        assert len(ctx.stage_stats) == 12

    def test_recovers_dominant_direction(self):
        ctx = make_ctx()
        workload = PCAWorkload(
            virtual_gb=1.0, physical_records=2500, dim=8, components=2,
        )
        result = workload.run(ctx)
        components = result.value
        assert components.shape == (2, 8)
        # Components are unit vectors.
        assert np.allclose(np.linalg.norm(components, axis=1), 1.0, atol=1e-6)
        # The intrinsic-dim mixing means a couple of components explain a
        # large share of variance.
        assert result.details["explained"] > 0.4

    def test_matches_numpy_pca(self):
        ctx = make_ctx()
        workload = PCAWorkload(
            virtual_gb=1.0, physical_records=2000, dim=6, components=1,
            power_iterations=5,
        )
        result = workload.run(ctx)
        v = result.value[0]
        from repro.workloads.datagen import PCADataGen

        gen = PCADataGen(
            virtual_bytes=workload.input_bytes,
            physical_records=workload.physical_records,
            dim=6, seed=workload.seed,
        )
        data = np.array(gen.rdd(ctx, 8).collect())
        centered = data - data.mean(axis=0)
        _u, _s, vt = np.linalg.svd(centered, full_matrices=False)
        cosine = abs(float(v @ vt[0]))
        assert cosine > 0.99


class TestSQL:
    def test_matches_pure_python(self):
        ctx = make_ctx()
        workload = SQLWorkload(virtual_gb=2.0, physical_records=3000)
        result = workload.run(ctx)

        # Recompute the query in plain Python from the same generators.
        from repro.workloads.datagen import SQLTableGen

        gen = SQLTableGen(
            virtual_bytes=workload.input_bytes,
            physical_records=workload.physical_records,
            n_customers=workload.n_customers,
            n_regions=workload.n_regions,
            seed=workload.seed,
        )
        check_ctx = make_ctx()
        orders = gen.orders_rdd(check_ctx, 4).collect()
        customers = dict(gen.customers_rdd(check_ctx, 4).collect())
        revenue = {}
        for _oid, cust, _prod, amount in orders:
            region = customers[cust]
            revenue[region] = revenue.get(region, 0.0) + amount
        expected = sorted(revenue.items())
        assert dict(result.value) == pytest.approx(dict(expected))
        assert [r for r, _ in result.value] == [r for r, _ in expected]

    def test_sorted_output(self):
        ctx = make_ctx()
        result = SQLWorkload(virtual_gb=1.0, physical_records=1500).run(ctx)
        regions = [r for r, _ in result.value]
        assert regions == sorted(regions)

    def test_fixed_agg_variant_marks_user_fixed(self):
        ctx = make_ctx()
        SQLWorkload(
            virtual_gb=1.0, physical_records=1200, fixed_agg_partitions=13
        ).run(ctx)
        assert any(s.user_fixed for s in ctx.stage_stats)


class TestWordCount:
    def test_counts_match_python(self):
        ctx = make_ctx()
        workload = WordCountWorkload(
            virtual_gb=1.0, physical_records=400, top_n=5
        )
        result = workload.run(ctx)
        from repro.workloads.datagen import TextDataGen

        gen = TextDataGen(
            virtual_bytes=workload.input_bytes,
            physical_records=workload.physical_records,
            vocabulary=workload.vocabulary,
            seed=workload.seed,
        )
        lines = gen.rdd(make_ctx(), 4).collect()
        counts = {}
        for line in lines:
            for word in line.split():
                counts[word] = counts.get(word, 0) + 1
        expected_top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        assert result.value == expected_top


class TestPageRank:
    def test_ranks_sum_and_skew(self):
        ctx = make_ctx()
        workload = PageRankWorkload(
            virtual_gb=1.0, physical_records=3000, n_vertices=100,
            iterations=3, link_partitions=8,
        )
        result = workload.run(ctx)
        top = result.value
        assert len(top) == 10
        assert all(rank > 0 for _v, rank in top)
        # The quadratic destination skew favors low vertex ids.
        top_ids = [v for v, _ in top[:5]]
        assert min(top_ids) < 20

    def test_iterative_joins_are_copartitioned(self):
        """Links are hash-partitioned once; each iteration's join reads
        the links side without a shuffle."""
        ctx = make_ctx()
        PageRankWorkload(
            virtual_gb=1.0, physical_records=2000, n_vertices=50,
            iterations=2, link_partitions=8,
        ).run(ctx)
        # Shuffle-map stages: edges scan (1) + contrib aggregation per
        # iteration (2). No per-iteration links re-shuffle.
        map_stages = [s for s in ctx.stage_stats if s.kind == "shuffle_map"]
        assert len(map_stages) == 3


class TestPhysicalRecords:
    @pytest.mark.parametrize("cls", [KMeansWorkload, SQLWorkload])
    @pytest.mark.parametrize("records", [float("nan"), 2.5, True, 0])
    def test_must_be_a_positive_int(self, cls, records):
        with pytest.raises(WorkloadError, match="physical_records"):
            cls(physical_records=records)


class TestScaling:
    def test_scale_shrinks_virtual_input(self):
        workload = KMeansWorkload(virtual_gb=4.0, physical_records=500)
        assert workload.virtual_bytes(0.25) == pytest.approx(
            workload.virtual_bytes(1.0) / 4
        )
        with pytest.raises(WorkloadError):
            workload.virtual_bytes(0.0)

    def test_scaled_run_is_faster(self):
        workload = KMeansWorkload(virtual_gb=4.0, physical_records=800)
        ctx_full = make_ctx()
        workload.run(ctx_full, scale=1.0)
        ctx_small = make_ctx()
        workload.run(ctx_small, scale=0.25)
        assert ctx_small.now < ctx_full.now
