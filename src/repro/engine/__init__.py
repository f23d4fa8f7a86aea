"""Spark-semantics in-memory DAG analytics engine (simulated time).

The substrate the paper runs on: RDDs with lazy lineage, hash/range
partitioners, a DAGScheduler that cuts stages at shuffle boundaries, a
shuffle manager with map-output tracking, a block-store cache, a
locality-aware task scheduler over a heterogeneous simulated cluster, and
per-stage statistics — everything CHOPPER observes and controls.
"""

from repro.engine.context import AnalyticsContext, Broadcast, EngineConf
from repro.engine.costmodel import CostModel, CostModelConfig
from repro.engine.dependencies import (
    Aggregator,
    Dependency,
    NarrowDependency,
    OneToOneDependency,
    RangeNarrowDependency,
    ShuffleDependency,
)
from repro.engine.listener import (
    JobStats,
    Listener,
    ListenerBus,
    StageStats,
    TaskMetrics,
)
from repro.engine.partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    stable_hash,
)
from repro.engine.rdd import (
    RDD,
    MapPartitionsRDD,
    SourceRDD,
    UnionRDD,
)
from repro.engine.shuffled import CogroupRDD, ShuffledRDD
from repro.engine.stage import RESULT, SHUFFLE_MAP, Stage

__all__ = [
    "AnalyticsContext",
    "Broadcast",
    "EngineConf",
    "CostModel",
    "CostModelConfig",
    "Aggregator",
    "Dependency",
    "NarrowDependency",
    "OneToOneDependency",
    "RangeNarrowDependency",
    "ShuffleDependency",
    "JobStats",
    "Listener",
    "ListenerBus",
    "StageStats",
    "TaskMetrics",
    "HashPartitioner",
    "RangePartitioner",
    "Partitioner",
    "stable_hash",
    "RDD",
    "SourceRDD",
    "MapPartitionsRDD",
    "UnionRDD",
    "ShuffledRDD",
    "CogroupRDD",
    "Stage",
    "SHUFFLE_MAP",
    "RESULT",
]
