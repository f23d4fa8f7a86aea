"""Tests for time-series metric bucketing."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.simul import MetricsRecorder


class TestIntervals:
    def test_full_bucket_utilization(self):
        rec = MetricsRecorder()
        rec.record_interval("cpu", "a", 0.0, 10.0, 1.0)
        series = rec.bucketize("cpu", 1.0)
        assert series.values.shape[0] == 10
        assert np.allclose(series.values, 1.0)

    def test_partial_overlap_prorated(self):
        rec = MetricsRecorder()
        rec.record_interval("cpu", "a", 0.5, 1.0, 1.0)
        series = rec.bucketize("cpu", 1.0, end=2.0)
        assert series.values[0] == pytest.approx(0.5)
        assert series.values[1] == pytest.approx(0.0)

    def test_value_scales(self):
        rec = MetricsRecorder()
        rec.record_interval("cpu", "a", 0.0, 1.0, 4.0)
        assert rec.bucketize("cpu", 1.0).values[0] == pytest.approx(4.0)

    def test_backwards_interval_rejected(self):
        rec = MetricsRecorder()
        with pytest.raises(ConfigurationError):
            rec.record_interval("cpu", "a", 2.0, 1.0)


class TestPoints:
    def test_point_becomes_rate(self):
        rec = MetricsRecorder()
        rec.record_event("net", "a", 0.5, 100.0)
        series = rec.bucketize("net", 2.0)
        assert series.values[0] == pytest.approx(50.0)  # 100 over 2s bucket

    def test_total_preserved(self):
        rec = MetricsRecorder()
        for t in (0.1, 0.9, 3.5):
            rec.record_event("net", "a", t, 10.0)
        series = rec.bucketize("net", 1.0)
        assert series.total(1.0) == pytest.approx(30.0)


class TestNodeAveraging:
    def test_average_across_nodes(self):
        rec = MetricsRecorder()
        rec.record_interval("cpu", "a", 0.0, 1.0, 1.0)
        rec.record_interval("cpu", "b", 0.0, 1.0, 0.0)
        series = rec.bucketize("cpu", 1.0)
        assert series.values[0] == pytest.approx(0.5)

    def test_single_node_selection(self):
        rec = MetricsRecorder()
        rec.record_interval("cpu", "a", 0.0, 1.0, 1.0)
        rec.record_interval("cpu", "b", 0.0, 1.0, 0.0)
        assert rec.bucketize("cpu", 1.0, node="a").values[0] == pytest.approx(1.0)

    def test_nodes_listing(self):
        rec = MetricsRecorder()
        rec.record_interval("cpu", "b", 0.0, 1.0)
        rec.record_event("cpu", "a", 0.5, 1.0)
        assert rec.nodes("cpu") == ["a", "b"]

    def test_unknown_series_is_zero(self):
        rec = MetricsRecorder()
        rec.record_interval("cpu", "a", 0.0, 5.0)
        series = rec.bucketize("nothing", 1.0)
        assert series.values.sum() == 0.0


class TestSeriesStats:
    def test_mean_peak(self):
        rec = MetricsRecorder()
        rec.record_interval("cpu", "a", 0.0, 1.0, 2.0)
        rec.record_interval("cpu", "a", 1.0, 2.0, 4.0)
        series = rec.bucketize("cpu", 1.0)
        assert series.mean() == pytest.approx(3.0)
        assert series.peak() == pytest.approx(4.0)

    def test_bad_bucket_width(self):
        with pytest.raises(ConfigurationError):
            MetricsRecorder().bucketize("cpu", 0.0)
