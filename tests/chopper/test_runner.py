"""Integration tests for the CHOPPER runner pipeline (small workloads)."""

import os
import sqlite3

import pytest

from repro.chopper import ChopperRunner, improvement
from repro.chopper.config_gen import WorkloadConfig
from repro.cluster import uniform_cluster
from repro.common.errors import ModelError, WorkloadError
from repro.engine import EngineConf
from repro.relational.cache import SQLiteCacheBackend
from repro.workloads import KMeansWorkload, SQLWorkload


def small_runner(workload=None, **kw):
    wl = workload or KMeansWorkload(
        physical_records=800, lloyd_iterations=2, init_rounds=2, virtual_gb=4.0
    )
    return ChopperRunner(
        wl,
        cluster_factory=lambda: uniform_cluster(n_workers=3, cores=8),
        base_conf=EngineConf(default_parallelism=48),
        **kw,
    )


@pytest.fixture(scope="module")
def trained_runner():
    runner = small_runner()
    runner.profile(p_grid=(16, 48, 96, 160), scales=(0.5, 1.0))
    runner.train()
    return runner


class TestProfile:
    def test_profile_populates_db(self, trained_runner):
        runner = trained_runner
        assert runner.db.has_dag("kmeans")
        assert len(runner.db.observations("kmeans")) > 50

    def test_dag_matches_workload_structure(self, trained_runner):
        dag = trained_runner.db.dag("kmeans")
        # 2 + 2*2 init + iteration pair + final pair signatures collapse
        # repeated stages, so the DAG is compact.
        assert 6 <= len(dag.stages) <= 10
        iter_stages = [s for s in dag.stages if s.repeats > 1]
        assert iter_stages  # init/iteration signatures repeat

    def test_train_before_profile_raises(self):
        with pytest.raises(ModelError):
            small_runner().train()


class TestOptimize:
    def test_config_covers_dag(self, trained_runner):
        config = trained_runner.optimize()
        dag = trained_runner.db.dag("kmeans")
        assert set(config.entries) == set(dag.signatures())

    def test_per_stage_mode(self, trained_runner):
        config = trained_runner.optimize(mode="per-stage")
        assert len(config) > 0
        assert all(e.group is None for e in config.entries.values())

    def test_unknown_mode(self, trained_runner):
        with pytest.raises(ModelError):
            trained_runner.optimize(mode="psychic")

    def test_config_roundtrips_through_file(self, trained_runner, tmp_path):
        config = trained_runner.optimize()
        path = tmp_path / "kmeans.json"
        config.save(path)
        assert len(WorkloadConfig.load(path)) == len(config)


class TestCompare:
    def test_chopper_not_worse(self, trained_runner):
        van, chop = trained_runner.compare()
        assert improvement(van, chop) > -0.05  # at worst break-even

    def test_results_identical(self, trained_runner):
        van, chop = trained_runner.compare()
        assert van.result.value == pytest.approx(chop.result.value)

    def test_outcome_metadata(self, trained_runner):
        van = trained_runner.run_vanilla()
        assert van.label == "vanilla"
        assert van.total_time > 0
        assert van.total_shuffle_bytes > 0
        # 2 + 2 * init_rounds + 2 * lloyd_iterations + 2
        assert len(van.record.observations) == 12

    def test_explicit_config_run(self, trained_runner):
        config = trained_runner.optimize()
        outcome = trained_runner.run_chopper(config=config)
        assert outcome.label == "chopper"
        assert outcome.ctx.conf.copartition_scheduling


class TestSQLPipeline:
    def test_sql_end_to_end(self):
        runner = small_runner(
            workload=SQLWorkload(physical_records=2000, virtual_gb=6.0)
        )
        runner.profile(p_grid=(16, 48, 96), scales=(1.0,))
        runner.train()
        van, chop = runner.compare()
        # Same query answer under both systems.
        assert dict(van.result.value) == pytest.approx(dict(chop.result.value))


class FailsAfterFirstQuery(SQLWorkload):
    def run(self, ctx, scale=1.0):
        super().run(ctx, scale=scale)
        raise WorkloadError("the second query failed")


class TestRunsReleaseTheirContext:
    """Every measured run closes its context: on-disk state is the same
    at any ``jobs`` and is released before ``profile()`` returns or an
    error propagates (not whenever the garbage collector gets to it)."""

    SELECTIVE = dict(virtual_gb=2, physical_records=2000, max_order=200)

    def conf(self, tmp_path, tag=""):
        return EngineConf(
            memory_budget=64e6, spill_dir=str(tmp_path / f"spill{tag}"),
            result_cache="sqlite",
            result_cache_path=str(tmp_path / f"cache{tag}.db"),
        )

    def test_on_disk_state_does_not_depend_on_jobs(self, tmp_path):
        rows, spilled = [], []
        for jobs in (1, 2):
            conf = self.conf(tmp_path, jobs)
            runner = ChopperRunner(SQLWorkload(**self.SELECTIVE), base_conf=conf)
            runner.profile(
                p_grid=(100,), kinds=("hash",), scales=(1.0,), jobs=jobs
            )
            spilled.append(os.listdir(conf.spill_dir))  # no gc.collect()
            backend = SQLiteCacheBackend(conf.result_cache_path)
            rows.append(backend.coverage())
            backend.close()
        assert rows[0] == rows[1] != []
        assert spilled == [[], []]

    def test_failed_run_releases_spill_dir_and_cache(self, tmp_path):
        conf = self.conf(tmp_path)
        runner = ChopperRunner(
            FailsAfterFirstQuery(**self.SELECTIVE), base_conf=conf
        )
        with pytest.raises(WorkloadError, match="second query"):
            runner.run_vanilla()
        assert os.listdir(conf.spill_dir) == []
        db = sqlite3.connect(conf.result_cache_path, timeout=0)
        db.execute("BEGIN IMMEDIATE")  # no writer still holds the file
        db.close()
