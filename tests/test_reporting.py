"""Tests for the plain-text reporting helpers."""

import pytest

from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.reporting import gantt, stage_report, utilization_report


@pytest.fixture
def run_ctx():
    ctx = AnalyticsContext(
        uniform_cluster(n_workers=2, cores=4), EngineConf(default_parallelism=8)
    )
    pairs = ctx.parallelize([(i % 5, i) for i in range(400)], 6)
    pairs.reduce_by_key(lambda a, b: a + b, 4).collect()
    return ctx


class TestStageReport:
    def test_contains_all_stages(self, run_ctx):
        text = stage_report(run_ctx.stage_stats, title="demo")
        assert "demo" in text
        assert "shuffle_map" in text and "result" in text
        assert "total stage time" in text

    def test_columns_present(self, run_ctx):
        text = stage_report(run_ctx.stage_stats)
        for col in ("stage", "kind", "P", "time", "shuffle", "skew"):
            assert col in text

    def test_empty_is_safe(self):
        assert "total stage time" in stage_report([])


class TestGantt:
    def test_shows_every_worker(self, run_ctx):
        text = gantt(run_ctx, width=40)
        for worker in run_ctx.cluster.workers:
            assert worker.name in text

    def test_width_respected(self, run_ctx):
        text = gantt(run_ctx, width=30)
        bars = [line for line in text.splitlines() if "|" in line]
        for bar in bars:
            inner = bar.split("|")[1]
            assert len(inner) == 30

    def test_busy_cores_visible(self, run_ctx):
        text = gantt(run_ctx, width=40)
        # Some columns show concurrent tasks (digits).
        assert any(ch.isdigit() for ch in text.split("|", 1)[1])

    def test_no_tasks(self):
        ctx = AnalyticsContext(
            uniform_cluster(n_workers=1, cores=1),
            EngineConf(default_parallelism=2),
        )
        assert gantt(ctx) == "(no tasks)"


class TestUtilizationReport:
    def test_rows_per_node(self, run_ctx):
        text = utilization_report(run_ctx)
        for worker in run_ctx.cluster.workers:
            assert worker.name in text
        assert "cpu" in text and "disk tx/s" in text

