"""Tests for the statistics collector."""

import pytest

from repro.chopper import ChopperRunner, WorkloadDB
from repro.chopper.stats import RunRecord, StatisticsCollector
from repro.engine import EngineConf
from repro.obs import RunLedger
from repro.workloads import (
    ShuffleWordCountWorkload,
    SQLWorkload,
    WordCountWorkload,
)


class TestStatisticsCollector:
    def test_collects_stage_observations(self, ctx):
        collector = StatisticsCollector("wl", input_bytes=1e9)
        with collector.attached(ctx):
            pairs = ctx.parallelize([(i % 3, 1) for i in range(60)], 4)
            pairs.reduce_by_key(lambda a, b: a + b, 2).collect()
        record = collector.record
        assert len(record.observations) == 2
        assert [o.kind for o in record.observations] == ["shuffle_map", "result"]
        assert record.total_time == ctx.now

    def test_orders_are_sequential(self, ctx):
        collector = StatisticsCollector("wl", input_bytes=1e9)
        with collector.attached(ctx):
            ctx.parallelize(range(10), 2).collect()
            ctx.parallelize(range(10), 2).collect()
        orders = [o.order for o in collector.record.observations]
        assert orders == [0, 1]

    def test_detached_after_finish(self, ctx):
        collector = StatisticsCollector("wl", input_bytes=1e9)
        collector.attach(ctx)
        ctx.parallelize(range(10), 2).collect()
        collector.finish(ctx)
        ctx.parallelize(range(10), 2).collect()
        assert len(collector.record.observations) == 1

    def test_total_time_excludes_prior_work(self, ctx):
        ctx.parallelize(range(1000), 4).collect()
        before = ctx.now
        assert before > 0
        collector = StatisticsCollector("wl", input_bytes=1e9)
        with collector.attached(ctx):
            ctx.parallelize(range(1000), 4).collect()
        assert collector.record.total_time == pytest.approx(ctx.now - before)

class TestLedgerReplay:
    """The ledger is CHOPPER's memory of past runs (§III-B)."""

    # Node A dies mid-run: lost map partitions re-run as one partial
    # stage (attempt=1) per affected shuffle. The sql join carries every
    # DAG key (cogroup_sides == 2, parent and source signatures).
    @pytest.mark.parametrize(
        "workload, dies_at, attempts, cogroup_sides",
        [
            (ShuffleWordCountWorkload(virtual_gb=1.0, physical_records=400),
             1230.0, [0, 0, 0, 1], 0),
            (SQLWorkload(virtual_gb=1.0, physical_records=2000),
             60.0, [0] * 6 + [1], 2),
        ],
        ids=["shuffle", "sql"],
    )
    def test_record_rebuilt_from_disk_equals_live_record(
        self, tmp_path, workload, dies_at, attempts, cogroup_sides
    ):
        runner = ChopperRunner(
            workload,
            base_conf=EngineConf(
                default_parallelism=16, node_failure_times={"A": dies_at},
                node_recovery_delay=5.0,
            ),
        )
        runner.ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        live = runner.run_vanilla().record
        (entry,) = runner.ledger.entries()
        assert sorted(s["attempt"] for s in entry["stages"]) == attempts
        assert len(live.observations) == len(attempts) - 1
        assert max(o.cogroup_sides for o in live.observations) == cogroup_sides
        # Dataclass equality: every float survives JSON exactly.
        assert RunRecord.from_ledger_entry(entry) == live

    def test_db_fed_from_ledger_trains_the_same_models(self, tmp_path):
        live = ChopperRunner(
            WordCountWorkload(virtual_gb=2.0, physical_records=500),
            base_conf=EngineConf(default_parallelism=16),
        )
        live.ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        live.profile(p_grid=(8, 16, 32, 64), kinds=("hash",), scales=(1.0,))
        replayed = WorkloadDB()
        assert replayed.add_ledger(live.ledger, live.workload.name) == 5
        name = live.workload.name
        assert replayed.observations(name) == live.db.observations(name)
        assert replayed.dag(name) == live.db.dag(name)
        assert replayed.train(name) == live.train() > 0
