"""Physical parallelism must be invisible in simulated results.

``EngineConf.physical_parallelism`` (threaded task bodies) and
``ChopperRunner.profile(jobs=...)`` (process-pooled sweep runs) are pure
wall-clock optimizations: every simulated observable — job results, the
simulated clock, metric snapshots (values *and* series creation order),
workload-DB contents, chosen configs, chaos recovery — must be
bit-identical to serial execution. These tests run the same workload at
parallelism 1 and N and compare everything.
"""

import json

import pytest

from repro.chopper import ChopperRunner, parallel
from repro.chopper.workload_db import WorkloadDB
from repro.cluster import paper_cluster
from repro.common.errors import ConfigurationError
from repro.engine import AnalyticsContext, EngineConf
from repro.engine.costmodel import CostModelConfig
from repro.obs import MetricsRegistry
from repro.workloads import KMeansWorkload, WordCountWorkload


def fingerprint(par, workload_cls, scale=0.05, **conf_kwargs):
    """Everything observable from one run, as comparable values.

    The metrics snapshot is serialized *without* sorting so the
    comparison also pins series creation order (registries are
    insertion-ordered; a reordered parallel execution would show).
    """
    conf = EngineConf(
        physical_parallelism=par, default_parallelism=10, **conf_kwargs
    )
    registry = MetricsRegistry()
    ctx = AnalyticsContext(paper_cluster(), conf, metrics_registry=registry)
    result = workload_cls().run(ctx, scale=scale)
    return (
        ctx.now,
        repr(result.value),
        json.dumps(registry.snapshot(), default=str),
    )


class TestThreadedTaskParallelism:
    def test_wordcount_identical(self):
        assert fingerprint(1, WordCountWorkload) == fingerprint(3, WordCountWorkload)

    def test_kmeans_cached_iterative_identical(self):
        assert fingerprint(1, KMeansWorkload) == fingerprint(4, KMeansWorkload)

    def test_jitter_speculation_identical(self):
        kwargs = dict(speculation=True, cost=CostModelConfig(jitter_sigma=0.4))
        assert fingerprint(1, WordCountWorkload, **kwargs) == (
            fingerprint(4, WordCountWorkload, **kwargs)
        )

    def test_task_failures_identical(self):
        kwargs = dict(task_failure_rate=0.15)
        assert fingerprint(1, WordCountWorkload, **kwargs) == (
            fingerprint(4, WordCountWorkload, **kwargs)
        )

    def test_chaos_node_loss_recovery_identical(self):
        # Node loss + lineage recovery: parallel rounds touching a
        # degraded shuffle fall back to the inline serial path, so the
        # whole recovery trajectory must match serial exactly.
        kwargs = dict(node_failure_times={"B": 2.0}, node_recovery_delay=5.0)
        assert fingerprint(1, KMeansWorkload, **kwargs) == (
            fingerprint(4, KMeansWorkload, **kwargs)
        )

    def test_chaos_permanent_loss_identical(self):
        kwargs = dict(node_failure_times={"C": 1.0})
        assert fingerprint(1, KMeansWorkload, **kwargs) == (
            fingerprint(4, KMeansWorkload, **kwargs)
        )


def sweep_db(par=1, jobs=1):
    runner = ChopperRunner(
        WordCountWorkload(),
        base_conf=EngineConf(physical_parallelism=par, default_parallelism=16),
        db=WorkloadDB(),
    )
    runner.profile(p_grid=[4, 8], kinds=["hash"], scales=[0.04, 0.08], jobs=jobs)
    name = runner.workload.name
    return (runner.db.observations(name), runner.db.dag(name)), runner


class TestSweepParallelism:
    def test_threaded_sweep_db_identical(self):
        serial, _ = sweep_db(par=1)
        threaded, _ = sweep_db(par=4)
        assert serial == threaded

    def test_process_pool_sweep_db_identical(self):
        serial, runner_s = sweep_db(jobs=1)
        pooled, runner_p = sweep_db(jobs=2)
        assert serial == pooled
        # The chosen configs downstream of the DB must agree too.
        runner_s.train()
        runner_p.train()
        conf_s = runner_s.optimize(scale=0.08)
        conf_p = runner_p.optimize(scale=0.08)
        assert conf_s.to_json() == conf_p.to_json()

    def test_unpicklable_workload_falls_back(self, force_pool):
        runner = ChopperRunner(
            WordCountWorkload(),
            cluster_factory=lambda: paper_cluster(),  # lambdas don't pickle
            base_conf=EngineConf(default_parallelism=16),
            db=WorkloadDB(),
        )
        n = runner.profile(p_grid=[4], kinds=["hash"], scales=[0.04], jobs=4)
        assert n == 2
        assert parallel.last_dispatch == "inline-unpicklable"

    def test_bad_jobs_rejected(self):
        runner = ChopperRunner(WordCountWorkload(), db=WorkloadDB())
        with pytest.raises(ConfigurationError):
            runner.profile(p_grid=[4], kinds=["hash"], scales=[0.04], jobs=0)


class TestConfKnobs:
    def test_physical_parallelism_validated(self):
        with pytest.raises(ConfigurationError):
            EngineConf(physical_parallelism=0)
