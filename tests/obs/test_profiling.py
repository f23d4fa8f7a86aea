"""Tests for real-resource profiling (repro.obs.profiling)."""

import json

from repro.cluster import paper_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.obs import ResourceProfiler
from repro.workloads import WordCountWorkload


class TestProbes:
    def test_task_probe_aggregates_per_stage(self):
        profiler = ResourceProfiler()
        profiler.start()
        try:
            for _ in range(3):
                with profiler.task_probe("map#0"):
                    sum(range(10_000))
            with profiler.task_probe("reduce#1"):
                held = [0] * 50_000
            assert len(held) == 50_000
        finally:
            profiler.stop()
        rolled = profiler.rollup()
        assert rolled["stages"]["map#0"]["tasks"] == 3
        assert rolled["stages"]["map#0"]["wall_s"] > 0
        assert rolled["stages"]["reduce#1"]["tasks"] == 1
        assert rolled["stages"]["reduce#1"]["alloc_bytes"] > 0

    def test_probe_is_null_when_stopped(self):
        profiler = ResourceProfiler()
        with profiler.task_probe("map#0"):
            pass
        assert profiler.rollup()["stages"] == {}

    def test_host_rollup_shape(self):
        profiler = ResourceProfiler()
        profiler.start()
        profiler.stop()
        host = profiler.rollup()["host"]
        assert host["wall_s"] >= 0
        assert host["cpu_s"] >= 0
        assert set(host["gc"]) == {"collections", "pause_s", "max_pause_s"}

    def test_rollup_is_json_ready_and_sorted(self):
        profiler = ResourceProfiler()
        profiler.start()
        try:
            with profiler.task_probe("b"):
                pass
            with profiler.task_probe("a"):
                pass
        finally:
            profiler.stop()
        rolled = profiler.rollup()
        json.dumps(rolled)
        assert list(rolled["stages"]) == ["a", "b"]


class TestMerge:
    def test_merge_accumulates_stages_and_host(self):
        src = ResourceProfiler()
        src.start()
        try:
            with src.task_probe("map#0"):
                sum(range(1000))
        finally:
            src.stop()
        rolled = src.rollup()
        sink = ResourceProfiler()
        sink.merge(rolled)
        sink.merge(rolled)
        merged = sink.rollup()
        assert merged["stages"]["map#0"]["tasks"] == 2
        assert merged["host"]["wall_s"] == 2 * rolled["host"]["wall_s"]
        assert (
            merged["host"]["tracemalloc_peak_bytes"]
            == rolled["host"]["tracemalloc_peak_bytes"]
        )


class TestEngineIntegration:
    def test_profiler_never_changes_simulated_results(self):
        def run(profiler):
            ctx = AnalyticsContext(
                paper_cluster(),
                EngineConf(default_parallelism=8),
                profiler=profiler,
            )
            workload = WordCountWorkload(physical_records=2000)
            result = workload.run(ctx, scale=0.02)
            stats = [
                (s.name, s.duration, s.shuffle_bytes) for s in ctx.stage_stats
            ]
            ctx.close()
            return result.value, ctx.now, stats

        plain = run(None)
        profiler = ResourceProfiler()
        profiler.start()
        profiled = run(profiler)
        profiler.stop()
        assert plain == profiled
        rolled = profiler.rollup()
        assert rolled["stages"]  # every stage got task probes
        assert sum(s["tasks"] for s in rolled["stages"].values()) > 0
