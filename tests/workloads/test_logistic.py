"""Tests for the logistic-regression workload."""

import numpy as np

from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.workloads import LogisticRegressionWorkload
from repro.workloads.datagen import LabeledDataGen


def make_ctx():
    return AnalyticsContext(
        uniform_cluster(n_workers=3, cores=8), EngineConf(default_parallelism=24)
    )


class TestGenerator:
    def test_labels_follow_true_weights(self, ctx):
        gen = LabeledDataGen(virtual_bytes=1e9, physical_records=600, dim=6)
        records = gen.rdd(ctx, 6).collect()
        truth = gen.true_weights()
        agree = sum(
            1 for x, y in records if (float(x @ truth) > 0) == bool(y)
        )
        assert agree / len(records) > 0.75  # noise keeps it below 1.0

    def test_labels_are_binary(self, ctx):
        gen = LabeledDataGen(virtual_bytes=1e9, physical_records=300)
        assert {y for _x, y in gen.rdd(ctx, 4).collect()} <= {0, 1}


class TestWorkload:
    def test_stage_structure(self):
        ctx = make_ctx()
        workload = LogisticRegressionWorkload(
            virtual_gb=1.0, physical_records=1000, iterations=4
        )
        workload.run(ctx)
        assert len(ctx.stage_stats) == 10
        # Iterations share a signature (same structure, broadcast weights).
        iter_sigs = {ctx.stage_stats[i].signature for i in (1, 3, 5, 7)}
        assert len(iter_sigs) == 1

    def test_learns_separating_direction(self):
        ctx = make_ctx()
        workload = LogisticRegressionWorkload(
            virtual_gb=1.0, physical_records=3000, dim=8, iterations=6
        )
        result = workload.run(ctx)
        truth = LabeledDataGen(
            virtual_bytes=1.0, physical_records=1, dim=8, seed=workload.seed
        ).true_weights()
        learned = result.value / np.linalg.norm(result.value)
        assert float(learned @ truth) > 0.95
        assert result.details["accuracy"] > 0.8

    def test_deterministic(self):
        def run():
            ctx = make_ctx()
            workload = LogisticRegressionWorkload(
                virtual_gb=1.0, physical_records=800, iterations=3
            )
            return workload.run(ctx).value

        assert np.allclose(run(), run())

    def test_chopper_pipeline_compatible(self):
        """The workload profiles, trains, and optimizes end to end."""
        from repro.chopper import ChopperRunner, improvement

        runner = ChopperRunner(
            LogisticRegressionWorkload(
                virtual_gb=4.0, physical_records=1200, iterations=3
            ),
            cluster_factory=lambda: uniform_cluster(n_workers=3, cores=8),
            base_conf=EngineConf(default_parallelism=48),
        )
        runner.profile(p_grid=(16, 48, 96, 160), scales=(1.0,))
        runner.train()
        vanilla, chopper = runner.compare()
        assert np.allclose(vanilla.result.value, chopper.result.value)
        assert improvement(vanilla, chopper) > -0.05
