"""Columnar shuffle blocks must be invisible in simulated results.

``record_format="columnar"`` (with or without fusion) is a wall-clock optimization of the *real* computation; every
simulated observable — results, the clock, metric snapshots including
series creation order, workload DBs, chosen CHOPPER configs, chaos
recovery trajectories — must be byte-identical to the seed list path.
"""

import json

from repro.chopper import ChopperRunner
from repro.chopper.workload_db import WorkloadDB
from repro.cluster import paper_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.obs import MetricsRegistry
from repro.workloads import (
    KMeansWorkload,
    ShuffleWordCountWorkload,
    SQLWorkload,
    WordCountWorkload,
)

COLUMNAR = dict(record_format="columnar", operator_fusion=True)


def fingerprint(workload_cls, scale=0.05, **conf_kwargs):
    conf = EngineConf(default_parallelism=10, **conf_kwargs)
    registry = MetricsRegistry()
    ctx = AnalyticsContext(paper_cluster(), conf, metrics_registry=registry)
    result = workload_cls().run(ctx, scale=scale)
    return (
        ctx.now,
        repr(result.value),
        repr(sorted(result.details.items())),
        json.dumps(registry.snapshot(), default=str),
    )


class TestColumnarRuns:
    def test_wordcount_identical(self):
        assert fingerprint(WordCountWorkload) == fingerprint(
            WordCountWorkload, **COLUMNAR
        )

    def test_shuffle_wordcount_identical(self):
        assert fingerprint(ShuffleWordCountWorkload) == fingerprint(
            ShuffleWordCountWorkload, **COLUMNAR
        )

    def test_sql_identical(self):
        # Joins/cogroups: tuple values and string regions cross the wire.
        assert fingerprint(SQLWorkload) == fingerprint(SQLWorkload, **COLUMNAR)

    def test_kmeans_identical(self):
        # ndarray values stay list columns; the format must pass through.
        assert fingerprint(KMeansWorkload) == fingerprint(
            KMeansWorkload, **COLUMNAR
        )

    def test_columnar_without_fusion_identical(self):
        assert fingerprint(WordCountWorkload) == fingerprint(
            WordCountWorkload, record_format="columnar"
        )

    def test_chaos_node_loss_identical(self):
        # Node loss + lineage-based stage resubmission: shuffle blocks
        # are dropped and rebuilt mid-run; the columnar rebuild must
        # retrace the list path's recovery exactly.
        chaos = dict(node_failure_times={"B": 2.0}, node_recovery_delay=5.0)
        assert fingerprint(KMeansWorkload, **chaos) == fingerprint(
            KMeansWorkload, **chaos, **COLUMNAR
        )
        assert fingerprint(ShuffleWordCountWorkload, **chaos) == fingerprint(
            ShuffleWordCountWorkload, **chaos, **COLUMNAR
        )

    def test_columnar_under_physical_parallelism(self):
        # Deferred task effects carry batches opaquely; threaded replay
        # must still be bit-identical.
        serial = fingerprint(ShuffleWordCountWorkload, **COLUMNAR)
        threaded = fingerprint(
            ShuffleWordCountWorkload, physical_parallelism=4, **COLUMNAR
        )
        assert serial == threaded


def sweep_db_and_config(**conf_kwargs):
    runner = ChopperRunner(
        WordCountWorkload(),
        base_conf=EngineConf(default_parallelism=16, **conf_kwargs),
        db=WorkloadDB(),
    )
    runner.profile(p_grid=[4, 8], kinds=["hash"], scales=[0.04, 0.08], jobs=1)
    runner.train()
    config = runner.optimize(scale=0.08)
    name = runner.workload.name
    return runner.db.observations(name), runner.db.dag(name), config.to_json()


class TestColumnarChopperPipeline:
    def test_workload_db_and_config_identical(self):
        assert sweep_db_and_config() == sweep_db_and_config(**COLUMNAR)
