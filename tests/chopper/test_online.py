"""Tests for online adaptation (dynamic config updates)."""

import pytest
from repro.chopper import ChopperRunner, OnlineChopper
from repro.chopper.stats import StatisticsCollector
from repro.cluster import uniform_cluster
from repro.common.errors import ModelError
from repro.engine import AnalyticsContext, EngineConf
from repro.workloads import KMeansWorkload, ShuffleWordCountWorkload


@pytest.fixture(scope="module")
def trained():
    workload = KMeansWorkload(
        virtual_gb=4.0, physical_records=1000, lloyd_iterations=3, init_rounds=2
    )
    runner = ChopperRunner(
        workload,
        cluster_factory=lambda: uniform_cluster(n_workers=3, cores=8),
        base_conf=EngineConf(default_parallelism=48),
    )
    runner.profile(p_grid=(16, 48, 96, 160), scales=(1.0,))
    runner.train()
    return runner


def online_for(runner, **kw):
    return OnlineChopper(
        runner.db,
        runner.workload.name,
        runner.workload.virtual_bytes(),
        runner.weights,
        cluster_parallelism=24,
        **kw,
    )


class TestOnlineChopper:
    def test_validation(self, trained):
        with pytest.raises(ModelError):
            online_for(trained, refit_every=0)

    def test_collects_and_refits_during_run(self, trained):
        ctx = AnalyticsContext(
            uniform_cluster(n_workers=3, cores=8),
            EngineConf(default_parallelism=48, copartition_scheduling=True),
        )
        online = online_for(trained, refit_every=4)
        before = len(trained.db.observations("kmeans"))
        with online.attach(ctx):
            result = trained.workload.run(ctx)
        after = len(trained.db.observations("kmeans"))
        stage_count = 14  # 2 + 2 * init_rounds + 2 * lloyd_iterations + 2
        assert after - before == stage_count
        assert online.refits == stage_count // 4
        assert result.value is not None

    def test_detach_restores_context(self, trained):
        ctx = AnalyticsContext(
            uniform_cluster(n_workers=3, cores=8),
            EngineConf(default_parallelism=48),
        )
        online = online_for(trained)
        with online.attach(ctx):
            pass
        assert ctx.advisor is None
        # Listener removed: later stages are not recorded.
        before = len(trained.db.observations("kmeans"))
        ctx.parallelize(range(10), 2).count()
        assert len(trained.db.observations("kmeans")) == before

    def test_config_updates_in_place(self, trained):
        online = online_for(trained)
        config_object = online.config
        entries_before = dict(config_object.entries)
        online.refresh()
        assert online.config is config_object  # same object the advisor holds
        assert set(config_object.entries) == set(entries_before)

    def test_online_run_still_beats_vanilla(self, trained):
        vanilla = trained.run_vanilla()
        ctx = AnalyticsContext(
            uniform_cluster(n_workers=3, cores=8),
            EngineConf(default_parallelism=48, copartition_scheduling=True),
        )
        online = online_for(trained, refit_every=6)
        collector = StatisticsCollector("kmeans", trained.workload.virtual_bytes())
        collector.attach(ctx)
        with online.attach(ctx):
            trained.workload.run(ctx)
        record = collector.finish(ctx)
        assert record.total_time < vanilla.total_time * 1.02


class TestPartialRerunsAreNotObservations:
    def test_online_and_collector_record_the_same_chaos_run(self):
        """A lineage-recovery re-run (attempt > 0) covers only the lost
        map partitions; training on its (D, P, t_exe) mistrains."""
        workload = ShuffleWordCountWorkload(virtual_gb=1.0, physical_records=400)
        runner = ChopperRunner(
            workload, base_conf=EngineConf(default_parallelism=16)
        )
        runner.profile(p_grid=(8, 16, 32), kinds=("hash",), scales=(1.0,))
        runner.train()
        online = OnlineChopper(
            runner.db, workload.name, workload.virtual_bytes(), runner.weights
        )
        collector = StatisticsCollector(workload.name, workload.virtual_bytes())
        ctx = AnalyticsContext(
            conf=EngineConf(
                default_parallelism=16,
                node_failure_times={"A": 1230.0},
                node_recovery_delay=5.0,
            )
        )
        # Listen only (no advisor), so the run is the chaos run as timed.
        ctx.listener_bus.add(online)
        before = len(runner.db.observations(workload.name))
        with collector.attached(ctx):
            workload.run(ctx)
        assert sorted(s.attempt for s in ctx.stage_stats) == [0, 0, 0, 1]
        assert len(collector.record.observations) == 3
        fed = runner.db.observations(workload.name)[before:]
        assert fed == collector.record.observations
