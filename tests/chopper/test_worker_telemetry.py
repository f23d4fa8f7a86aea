"""Cross-process telemetry aggregation through the worker pool.

Pool workers meter into fresh per-run sinks and ship the state back in
their result segments; the driver merges in spec order, labeling each
pool-dispatched run's series with its deterministic chunk slot. These
tests force the pool on (the ``force_pool`` fixture) so they exercise the
real fork + shared-memory path even for the tiny test workloads.
"""

import json

import pytest

from repro.chopper import ChopperRunner
from repro.chopper import parallel as par
from repro.engine import EngineConf
from repro.obs import EventLog, MetricsRegistry, ResourceProfiler
from repro.workloads import WordCountWorkload


pytestmark = pytest.mark.usefixtures("force_pool")


def _runner():
    runner = ChopperRunner(
        WordCountWorkload(physical_records=2000),
        base_conf=EngineConf(default_parallelism=8),
    )
    runner.metrics_registry = MetricsRegistry()
    runner.event_log = EventLog()
    runner.profiler = ResourceProfiler()
    return runner


class TestPoolSweepTelemetry:
    def test_worker_labeled_series_and_log_records(self):
        runner = _runner()
        runner.profile(p_grid=(4, 8), scales=(0.02,), jobs=4)
        assert par.last_dispatch == "pool"

        snapshot = runner.metrics_registry.snapshot()
        labeled = [
            s
            for s in snapshot["counters"]["scheduler.tasks_completed"]
            if "worker" in s["labels"]
        ]
        # Four chunks -> four worker slots, each with completed tasks.
        assert {s["labels"]["worker"] for s in labeled} == {
            "w0", "w1", "w2", "w3",
        }
        assert all(s["value"] > 0 for s in labeled)

        workers_logged = {
            r["worker"] for r in runner.event_log.records if "worker" in r
        }
        assert workers_logged == {"w0", "w1", "w2", "w3"}

        # The unlabeled total matches the sum the worker series describe
        # plus the inline-run share (spec 0 runs on the driver).
        total = runner.metrics_registry.counter_total(
            "scheduler.tasks_completed"
        )
        assert total > sum(s["value"] for s in labeled)

    def test_worker_profiles_merge_into_sweep_rollup(self):
        runner = _runner()
        runner.profile(p_grid=(4,), scales=(0.02,), jobs=2)
        assert par.last_dispatch == "pool"
        rolled = runner.profiler.rollup()
        assert rolled["host"]["wall_s"] > 0
        assert sum(s["tasks"] for s in rolled["stages"].values()) > 0

    def test_compare_ships_telemetry_too(self):
        runner = _runner()
        runner.profile(p_grid=(4, 8), scales=(0.02,), jobs=1)
        runner.train()
        before = len(runner.event_log.records)
        vanilla, chopper = runner.compare(scale=0.02, jobs=2)
        # Spec 0 runs on the driver (it warms the block cache the forked
        # workers inherit); contexts never cross the process boundary.
        assert par.last_dispatch == "pool"
        assert vanilla.ctx is not None and chopper.ctx is None
        labels = {
            r.get("run")
            for r in runner.event_log.records[before:]
        }
        assert {"vanilla", "chopper"} <= labels


class TestDeterministicAttribution:
    def test_repeat_pool_sweeps_are_byte_identical(self):
        first = _runner()
        first.profile(p_grid=(4, 8), scales=(0.02,), jobs=3)
        second = _runner()
        second.profile(p_grid=(4, 8), scales=(0.02,), jobs=3)
        assert json.dumps(
            first.metrics_registry.snapshot(), sort_keys=True
        ) == json.dumps(second.metrics_registry.snapshot(), sort_keys=True)
        assert json.dumps(first.event_log.records) == json.dumps(
            second.event_log.records
        )
