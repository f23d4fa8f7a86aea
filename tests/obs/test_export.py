"""Tests for Prometheus / OTLP metric exporters (repro.obs.export)."""

import pytest

from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.obs import MetricsRegistry
from repro.obs.export import (
    sanitize_name,
    to_otlp,
    to_prometheus,
    validate_prometheus,
)


def _registry():
    reg = MetricsRegistry()
    reg.counter("shuffle.write_bytes").inc(100)
    reg.counter("shuffle.write_bytes", node="A").inc(60)
    reg.counter("shuffle.write_bytes", node="B").inc(40)
    reg.gauge("cluster.total_cores").set(40)
    h = reg.histogram("task.duration")
    for v in range(1, 101):
        h.observe(float(v))
    return reg


class TestSanitizeName:
    def test_dots_become_underscores(self):
        assert sanitize_name("shuffle.write_bytes") == "shuffle_write_bytes"

    def test_invalid_leading_char_prefixed(self):
        assert sanitize_name("9lives").startswith("_")

    def test_valid_names_pass_through(self):
        assert sanitize_name("a_ok:name") == "a_ok:name"


class TestPrometheus:
    def test_counters_get_total_suffix_and_type(self):
        text = to_prometheus(_registry().snapshot())
        assert "# TYPE shuffle_write_bytes_total counter" in text
        assert 'shuffle_write_bytes_total{node="A"} 60' in text
        assert "shuffle_write_bytes_total 100" in text

    def test_gauges_and_histogram_summaries(self):
        text = to_prometheus(_registry().snapshot())
        assert "# TYPE cluster_total_cores gauge" in text
        assert "# TYPE task_duration summary" in text
        assert 'task_duration{quantile="0.5"}' in text
        assert "task_duration_sum 5050" in text
        assert "task_duration_count 100" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", path='a"b\\c\nd').inc()
        text = to_prometheus(reg.snapshot())
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        validate_prometheus(text)

    def test_output_validates(self):
        samples = validate_prometheus(to_prometheus(_registry().snapshot()))
        assert samples > 5


class TestValidate:
    def test_rejects_garbage_line(self):
        with pytest.raises(ValueError, match="line 1"):
            validate_prometheus("this is ! not * prometheus\n")

    def test_rejects_undeclared_family(self):
        with pytest.raises(ValueError, match="TYPE"):
            validate_prometheus("orphan_metric 1\n")

    def test_rejects_non_numeric_value(self):
        text = "# TYPE x counter\nx_total pony\n"
        with pytest.raises(ValueError):
            validate_prometheus(text)


class TestOtlp:
    def test_structure_and_datapoints(self):
        doc = to_otlp(_registry().snapshot())
        (resource,) = doc["resourceMetrics"]
        attrs = {
            a["key"]: a["value"]["stringValue"]
            for a in resource["resource"]["attributes"]
        }
        assert attrs["service.name"] == "repro"
        (scope,) = resource["scopeMetrics"]
        metrics = {m["name"]: m for m in scope["metrics"]}
        counter = metrics["shuffle.write_bytes"]
        assert counter["sum"]["isMonotonic"] is True
        assert len(counter["sum"]["dataPoints"]) == 3
        assert "gauge" in metrics["cluster.total_cores"]
        summary = metrics["task.duration"]["summary"]["dataPoints"][0]
        assert summary["count"] == 100
        assert summary["sum"] == 5050.0
        assert summary["quantileValues"]

    def test_datapoint_labels_become_attributes(self):
        doc = to_otlp(_registry().snapshot())
        counter = next(
            m
            for m in doc["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
            if m["name"] == "shuffle.write_bytes"
        )
        labeled = [
            p for p in counter["sum"]["dataPoints"] if p.get("attributes")
        ]
        assert {
            a["value"]["stringValue"]
            for p in labeled
            for a in p["attributes"]
        } == {"A", "B"}


class TestRealRunSnapshot:
    def test_a_runs_snapshot_exports_in_both_formats(self):
        # Not a synthetic registry: the series a context really creates
        # (eager zeros, labeled per-node counters, the wait histogram).
        ctx = AnalyticsContext(
            uniform_cluster(n_workers=2, cores=2), EngineConf(default_parallelism=4)
        )
        pairs = ctx.parallelize(range(200), 4).map(lambda x: (x % 3, 1))
        pairs.reduce_by_key(lambda a, b: a + b, 2).collect()
        snapshot = ctx.obs.metrics.snapshot()
        assert validate_prometheus(to_prometheus(snapshot)) > 5
        (resource,) = to_otlp(snapshot)["resourceMetrics"]
        names = {m["name"] for m in resource["scopeMetrics"][0]["metrics"]}
        assert "scheduler.tasks_completed" in names
