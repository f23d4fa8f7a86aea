"""Tests for the statistics collector."""

import filecmp

import pytest

from repro.chopper import ChopperRunner, WorkloadDag
from repro.chopper.stats import RunRecord, StageObservation, StatisticsCollector
from repro.engine import EngineConf
from repro.obs import RunLedger
from repro.workloads import ShuffleWordCountWorkload, WordCountWorkload

# Node A dies during the reduce: the map stage's lost partitions re-run
# as one partial stage (attempt=1) among the run's four stage events.
NODE_LOSS = dict(node_failure_times={"A": 1230.0}, node_recovery_delay=5.0)


class TestStatisticsCollector:
    def test_collects_stage_observations(self, ctx):
        collector = StatisticsCollector("wl", input_bytes=1e9)
        with collector.attached(ctx):
            pairs = ctx.parallelize([(i % 3, 1) for i in range(60)], 4)
            pairs.reduce_by_key(lambda a, b: a + b, 2).collect()
        record = collector.record
        assert record.stage_count == 2
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
        assert collector.record.stage_count == 1

    def test_total_time_excludes_prior_work(self, ctx):
        ctx.parallelize(range(1000), 4).collect()
        before = ctx.now
        assert before > 0
        collector = StatisticsCollector("wl", input_bytes=1e9)
        with collector.attached(ctx):
            ctx.parallelize(range(1000), 4).collect()
        assert collector.record.total_time == pytest.approx(ctx.now - before)

    def test_observation_roundtrip(self):
        obs = StageObservation(
            signature="s", kind="result", partitioner_kind="range",
            input_bytes=1e9, num_partitions=100, duration=5.0,
            shuffle_bytes=42.0, order=3, parent_signatures=("p",),
            cogroup_sides=2, user_fixed=True, source_signatures=("src",),
        )
        assert StageObservation.from_dict(obs.to_dict()) == obs

    def test_by_signature_grouping(self):
        record = RunRecord(workload="w", input_bytes=1.0)
        for i, sig in enumerate(["a", "b", "a"]):
            record.observations.append(
                StageObservation(
                    signature=sig, kind="result", partitioner_kind=None,
                    input_bytes=1.0, num_partitions=1, duration=1.0,
                    shuffle_bytes=0.0, order=i,
                )
            )
        grouped = record.by_signature()
        assert len(grouped["a"]) == 2
        assert len(grouped["b"]) == 1


class TestLedgerReplay:
    """The ledger is CHOPPER's memory of past runs (§III-B)."""

    def test_record_rebuilt_from_disk_equals_live_record(self, tmp_path):
        runner = ChopperRunner(
            ShuffleWordCountWorkload(virtual_gb=1.0, physical_records=400),
            base_conf=EngineConf(default_parallelism=16, **NODE_LOSS),
        )
        runner.ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        live = runner.run_vanilla().record
        (entry,) = runner.ledger.entries()
        assert sorted(s["attempt"] for s in entry["stages"]) == [0, 0, 0, 1]
        assert live.stage_count == 3
        # Dataclass equality: every float survives JSON exactly.
        assert RunRecord.from_ledger_entry(entry) == live

    def test_db_fed_from_ledger_trains_the_same_models(self, tmp_path):
        live = ChopperRunner(
            WordCountWorkload(virtual_gb=2.0, physical_records=500),
            base_conf=EngineConf(default_parallelism=16),
        )
        live.ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        live.profile(p_grid=(8, 16, 32, 64), kinds=("hash",), scales=(1.0,))
        replayed = ChopperRunner(live.workload, base_conf=live.base_conf)
        records = [
            RunRecord.from_ledger_entry(e) for e in live.ledger.entries()
        ]
        for record in records:
            replayed.db.add_run(record)
        replayed.db.set_dag(live.workload.name, WorkloadDag.from_run(records[0]))
        assert replayed.train() == live.train() > 0
        live.db.save(tmp_path / "live.json")
        replayed.db.save(tmp_path / "replayed.json")
        assert filecmp.cmp(
            tmp_path / "live.json", tmp_path / "replayed.json", shallow=False
        )
