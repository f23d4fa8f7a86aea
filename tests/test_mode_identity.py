"""One mode-identity oracle: no EngineConf toggle changes what a run returns.

``EngineConf`` is the only channel that selects a mode. Every workload in
:mod:`repro.workloads` runs at tiny size under each toggle, set
explicitly, and must return exactly what the default configuration
returns — for the physical toggles (threads, columnar + fused blocks,
spill) at the same simulated clock and shuffle volume as well. Each
toggle carries a non-vacuity guard: identity proves nothing for a mode
that never fired.
"""

from __future__ import annotations

import functools
import hashlib
import pathlib
import pickle
import re
from typing import Callable, Dict, NamedTuple

import pytest

import repro
from repro import workloads
from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.engine.costmodel import CostModelConfig
from repro.engine.executor import TaskRunner
from repro.obs import MetricsRegistry

# Every workload the package exports, at a size that runs in ~0.1 s.
# Skewed keys give AQE and the spill path something to bite on; the sql
# filter gives pruning a predicate.
WORKLOADS: Dict[str, Callable[[], workloads.Workload]] = {
    "kmeans": lambda: workloads.KMeansWorkload(physical_records=400),
    "pca": lambda: workloads.PCAWorkload(physical_records=400),
    "wordcount": lambda: workloads.WordCountWorkload(
        physical_records=400, skew=1.9
    ),
    "wordcount-shuffle": lambda: workloads.ShuffleWordCountWorkload(
        physical_records=400, skew=1.9
    ),
    "sql": lambda: workloads.SQLWorkload(
        physical_records=800, skew=1.9, max_order=150
    ),
}


class Run(NamedTuple):
    digest: str  # of everything the workload returned
    sim: tuple  # (simulated seconds, shuffle bytes written)
    pooled_tasks: int  # task bodies that ran on the thread pool
    spill_events: int
    stages_replanned: float
    partitions_pruned: float
    rule_hits: int
    nodes_lost: float


def run(name: str, **conf) -> Run:
    """Run the workload twice in one context (the second pass reads what
    the first left behind: cached blocks, zone maps) and fingerprint it."""
    registry = MetricsRegistry()
    # No dispatch stagger: a stage's tasks are granted together, which is
    # what hands the thread pool batches of more than one.
    cost = CostModelConfig(driver_dispatch_interval=0.0)
    ctx = AnalyticsContext(
        uniform_cluster(n_workers=3, cores=4),
        EngineConf(default_parallelism=16, cost=cost, **conf),
        metrics_registry=registry,
    )
    pooled = [0]
    deferred = TaskRunner.execute_deferred

    def counting(self, *args, **kwargs):
        pooled[0] += 1
        return deferred(self, *args, **kwargs)

    TaskRunner.execute_deferred = counting
    try:
        workload = WORKLOADS[name]()
        results = [workload.run(ctx, scale=0.05) for _ in range(2)]
        payload = pickle.dumps(
            [(r.value, sorted(r.details.items())) for r in results]
        )
        return Run(
            digest=hashlib.sha256(payload).hexdigest(),
            sim=(ctx.now, registry.counter_total("shuffle.write_bytes")),
            pooled_tasks=pooled[0],
            spill_events=ctx.spill.spill_events if ctx.spill else 0,
            stages_replanned=registry.counter_total("aqe.stages_replanned"),
            partitions_pruned=registry.counter_total("scan.partitions_pruned"),
            rule_hits=sum(
                sum(event["rule_hits"].values()) for event in ctx.plan_events
            ),
            nodes_lost=registry.counter_total("scheduler.nodes_lost"),
        )
    finally:
        TaskRunner.execute_deferred = deferred
        ctx.close()


@functools.lru_cache(maxsize=None)
def baseline(name: str) -> Run:
    return run(name)


relational = {
    name for name, make in WORKLOADS.items() if hasattr(make(), "build_query")
}


def test_every_exported_workload_is_covered():
    exported = {
        getattr(workloads, name).name
        for name in workloads.__all__
        if name.endswith("Workload") and name != "Workload"
    }
    assert exported == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestSameResultsSameClock:
    """Physical toggles: where the bytes live and which thread computes
    them must not move a simulated number."""

    def test_threads4(self, name):
        threaded = run(name, physical_parallelism=4)
        assert threaded.digest == baseline(name).digest
        assert threaded.sim == baseline(name).sim
        assert baseline(name).pooled_tasks == 0
        assert threaded.pooled_tasks > 1  # a batch of > 1 ran on the pool

    def test_columnar_fused(self, name):
        columnar = run(name, record_format="columnar", operator_fusion=True)
        assert columnar.digest == baseline(name).digest
        assert columnar.sim == baseline(name).sim

    def test_memory_budget(self, name):
        spilled = run(name, memory_budget=8192.0)
        assert spilled.digest == baseline(name).digest
        assert spilled.sim == baseline(name).sim
        assert spilled.spill_events > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestSameResults:
    """Planning toggles and faults change the schedule, never a value."""

    def test_logical_optimizer_off(self, name):
        raw = run(name, logical_optimizer=False)
        assert raw.digest == baseline(name).digest
        assert raw.rule_hits == 0
        if name in relational:
            assert baseline(name).rule_hits > 0

    def test_partition_pruning_off(self, name):
        unpruned = run(name, partition_pruning=False)
        assert unpruned.digest == baseline(name).digest
        assert unpruned.partitions_pruned == 0
        if name in relational:
            assert baseline(name).partitions_pruned > 0

    def test_adaptive_execution(self, name):
        adaptive = run(name, adaptive_execution=True)
        assert adaptive.digest == baseline(name).digest
        assert baseline(name).stages_replanned == 0
        assert adaptive.stages_replanned > 0

    def test_node_loss(self, name):
        chaos = run(
            name, node_failure_times={"w0": 0.05}, node_recovery_delay=5.0
        )
        assert chaos.digest == baseline(name).digest
        assert chaos.nodes_lost == 1


def test_no_source_file_reads_the_environment():
    """EngineConf and the CLI flags that fill it are the one channel."""
    root = pathlib.Path(repro.__file__).parent
    pattern = re.compile(r"\benviron\b|\bgetenv\b")
    offenders = [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
