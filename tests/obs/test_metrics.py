"""Tests for the metrics registry (counters, gauges, histograms)."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.obs import MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("tasks")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("tasks").inc(-1)

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("bytes", node="n1").inc(10)
        reg.counter("bytes", node="n2").inc(5)
        assert reg.counter_value("bytes", node="n1") == 10
        assert reg.counter_value("bytes", node="n2") == 5

    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1) is reg.counter("x", a=1)
        assert reg.counter("x", a=1) is not reg.counter("x", a=2)

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("x", a=1, b=2).inc()
        assert reg.counter("x", b=2, a=1).value == 1

    def test_counter_value_sums_labels_when_unlabeled(self):
        reg = MetricsRegistry()
        reg.counter("bytes", node="n1").inc(10)
        reg.counter("bytes", node="n2").inc(5)
        assert reg.counter_value("bytes") == 15

    def test_counter_value_missing_is_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0.0

    def test_counter_labels_lists_series(self):
        reg = MetricsRegistry()
        reg.counter("bytes", node="n1").inc()
        reg.counter("bytes", node="n2").inc(2)
        labels = reg.counter_labels("bytes")
        assert labels == {(("node", "n1"),): 1.0, (("node", "n2"),): 2.0}


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.inc(2)
        g.inc(-3)
        assert g.value == 4


class TestHistogram:
    def test_observe_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("wait")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        stats = h.to_dict()
        assert stats["count"] == 3
        assert stats["sum"] == 6.0
        assert stats["mean"] == 2.0
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0

    def test_empty_histogram_has_null_extremes(self):
        stats = MetricsRegistry().histogram("wait").to_dict()
        assert stats["count"] == 0
        assert stats["min"] is None and stats["max"] is None


class TestSnapshot:
    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", node="n1").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h").observe(1.5)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == [{"labels": {"node": "n1"}, "value": 2.0}]
        assert snap["gauges"]["g"][0]["value"] == 7
        assert snap["histograms"]["h"][0]["count"] == 1

    def test_save_round_trips_through_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        path = tmp_path / "m.json"
        reg.save(str(path))
        assert json.loads(path.read_text()) == reg.snapshot()


class TestHistogramQuantile:
    def test_quantiles_on_known_distribution(self):
        h = MetricsRegistry().histogram("d")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.5) == pytest.approx(50.5)
        assert h.quantile(0.95) == pytest.approx(95.05)
        assert h.quantile(0.99) == pytest.approx(99.01)

    def test_interpolates_between_samples(self):
        h = MetricsRegistry().histogram("d")
        h.observe(0.0)
        h.observe(10.0)
        assert h.quantile(0.25) == pytest.approx(2.5)

    def test_single_sample(self):
        h = MetricsRegistry().histogram("d")
        h.observe(42.0)
        for q in (0.0, 0.5, 1.0):
            assert h.quantile(q) == 42.0

    def test_empty_histogram_is_zero(self):
        assert MetricsRegistry().histogram("d").quantile(0.5) == 0.0

    def test_unsorted_observation_order_is_irrelevant(self):
        a = MetricsRegistry().histogram("d")
        b = MetricsRegistry().histogram("d")
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        for v in values:
            a.observe(v)
        for v in sorted(values):
            b.observe(v)
        assert a.quantile(0.5) == b.quantile(0.5) == 5.0

    def test_observing_after_quantile_is_seen(self):
        h = MetricsRegistry().histogram("d")
        h.observe(1.0)
        assert h.quantile(1.0) == 1.0
        h.observe(10.0)
        assert h.quantile(1.0) == 10.0

    def test_out_of_range_q_rejected(self):
        h = MetricsRegistry().histogram("d")
        h.observe(1.0)
        with pytest.raises(ConfigurationError):
            h.quantile(1.5)
        with pytest.raises(ConfigurationError):
            h.quantile(-0.1)

    def test_to_dict_includes_quantiles(self):
        h = MetricsRegistry().histogram("d")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        stats = h.to_dict()
        assert stats["p50"] == 2.0
        assert stats["p95"] == pytest.approx(2.9)
        assert stats["p99"] == pytest.approx(2.98)

    def test_empty_to_dict_has_null_quantiles(self):
        stats = MetricsRegistry().histogram("d").to_dict()
        assert stats["p50"] is None and stats["p95"] is None


class TestSnapshotDeterminism:
    def test_counter_labels_sorted_regardless_of_touch_order(self):
        a = MetricsRegistry()
        a.counter("x", node="n2").inc(2)
        a.counter("x", node="n1").inc(1)
        b = MetricsRegistry()
        b.counter("x", node="n1").inc(1)
        b.counter("x", node="n2").inc(2)
        assert list(a.counter_labels("x")) == list(b.counter_labels("x"))

    def test_snapshot_byte_identical_across_touch_orders(self):
        def populate(reg, order):
            for node in order:
                reg.counter("shuffle.remote_bytes", src=node).inc(5)
                reg.histogram("wait", node=node).observe(1.0)
            reg.gauge("depth").set(3)

        a, b = MetricsRegistry(), MetricsRegistry()
        populate(a, ["n1", "n2", "n3"])
        populate(b, ["n3", "n1", "n2"])
        assert json.dumps(a.snapshot(), sort_keys=True) == json.dumps(
            b.snapshot(), sort_keys=True
        )

    def test_snapshot_byte_identical_serial_vs_threaded_run(self):
        # The regression this guards: a threaded engine run touches metric
        # series in a nondeterministic order; the exported snapshot must
        # not care (REPRO_PHYSICAL_PARALLELISM > 1 stays byte-identical).
        from repro.cluster import paper_cluster
        from repro.engine import AnalyticsContext, EngineConf
        from repro.workloads import WordCountWorkload

        def snapshot_bytes(par: int) -> str:
            reg = MetricsRegistry()
            ctx = AnalyticsContext(
                paper_cluster(),
                EngineConf(physical_parallelism=par, default_parallelism=10),
                metrics_registry=reg,
            )
            WordCountWorkload().run(ctx, scale=0.05)
            return json.dumps(reg.snapshot(), sort_keys=True)

        assert snapshot_bytes(1) == snapshot_bytes(4)


class TestFiniteGuards:
    def test_counter_rejects_nan_and_inf(self):
        c = MetricsRegistry().counter("x")
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                c.inc(bad)
        assert c.value == 0.0

    def test_gauge_rejects_nan_and_inf(self):
        g = MetricsRegistry().gauge("x")
        with pytest.raises(ConfigurationError):
            g.set(float("nan"))
        with pytest.raises(ConfigurationError):
            g.inc(float("inf"))
        with pytest.raises(ConfigurationError):
            g.inc(float("-inf"))
        assert g.value == 0.0

    def test_histogram_rejects_nan_and_inf(self):
        h = MetricsRegistry().histogram("x")
        for bad in (float("nan"), float("-inf")):
            with pytest.raises(ConfigurationError):
                h.observe(bad)
        assert h.count == 0


class TestHistogramRetention:
    def test_exact_stats_survive_the_cap(self):
        from repro.obs.metrics import Histogram

        h = Histogram("d", retention_cap=100)
        for v in range(1, 1001):
            h.observe(float(v))
        assert h.count == 1000
        assert h.total == 500500.0
        assert h.min == 1.0 and h.max == 1000.0
        assert len(h.to_dict()) >= 5  # quantiles become estimates

    def test_reservoir_is_name_seeded_and_deterministic(self):
        from repro.obs.metrics import Histogram

        def fill(name):
            h = Histogram(name, retention_cap=50)
            for v in range(1000):
                h.observe(float(v))
            return h

        assert fill("a").to_dict() == fill("a").to_dict()
        assert fill("a").to_dict()["p50"] != fill("b").to_dict()["p50"]

    def test_below_cap_quantiles_stay_exact(self):
        from repro.obs.metrics import Histogram

        h = Histogram("d", retention_cap=200)
        for v in range(1, 101):
            h.observe(float(v))
        assert h.quantile(0.5) == pytest.approx(50.5)

    def test_cap_must_be_positive(self):
        from repro.obs.metrics import Histogram

        with pytest.raises(ConfigurationError):
            Histogram("d", retention_cap=0)


class TestCounterTotal:
    def test_unlabeled_total_is_authoritative(self):
        # The engine convention: labeled series decompose a maintained
        # unlabeled total; summing everything would double-count.
        reg = MetricsRegistry()
        reg.counter("shuffle.write_bytes").inc(100)
        reg.counter("shuffle.write_bytes", node="A").inc(60)
        reg.counter("shuffle.write_bytes", node="B").inc(40)
        assert reg.counter_total("shuffle.write_bytes") == 100

    def test_labeled_only_sums_in_sorted_order(self):
        a = MetricsRegistry()
        a.counter("x", n="1").inc(0.1)
        a.counter("x", n="2").inc(0.2)
        b = MetricsRegistry()
        b.counter("x", n="2").inc(0.2)
        b.counter("x", n="1").inc(0.1)
        assert a.counter_total("x") == b.counter_total("x")

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter_total("nope") == 0.0


class TestDumpMergeState:
    def test_merge_reproduces_source_registry(self):
        src = MetricsRegistry()
        src.counter("c").inc(5)
        src.counter("c", node="A").inc(3)
        src.gauge("g").set(7)
        for v in (1.0, 2.0, 3.0):
            src.histogram("h").observe(v)
        dst = MetricsRegistry()
        dst.merge_state(src.dump_state())
        assert json.dumps(dst.snapshot(), sort_keys=True) == json.dumps(
            src.snapshot(), sort_keys=True
        )

    def test_merge_accumulates_counters_and_histograms(self):
        src = MetricsRegistry()
        src.counter("c").inc(5)
        src.histogram("h").observe(1.0)
        dst = MetricsRegistry()
        dst.merge_state(src.dump_state())
        dst.merge_state(src.dump_state())
        assert dst.counter_total("c") == 10
        assert dst.histogram("h").count == 2

    def test_extra_labels_relabel_every_series(self):
        src = MetricsRegistry()
        src.counter("c").inc(5)
        src.counter("c", node="A").inc(3)
        dst = MetricsRegistry()
        dst.merge_state(src.dump_state(), extra_labels={"worker": "w1"})
        assert dst.counter_value("c", worker="w1") == 5
        assert dst.counter_value("c", node="A", worker="w1") == 3

    def test_merged_capped_histogram_keeps_exact_count_and_sum(self):
        from repro.obs.metrics import Histogram

        src = MetricsRegistry()
        h = Histogram("h", retention_cap=10)
        src._histograms["h"] = {(): h}
        for v in range(1, 101):
            h.observe(float(v))
        dst = MetricsRegistry()
        dst.merge_state(src.dump_state())
        merged = dst.histogram("h")
        assert merged.count == 100
        assert merged.total == 5050.0
        assert merged.min == 1.0 and merged.max == 100.0

