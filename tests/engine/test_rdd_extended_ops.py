"""Tests for the extended RDD API (max, min, stats)."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import uniform_cluster
from repro.common.errors import WorkloadError
from repro.engine import AnalyticsContext, EngineConf


def make_ctx():
    return AnalyticsContext(
        uniform_cluster(n_workers=2, cores=2), EngineConf(default_parallelism=4)
    )


class TestNumericActions:

    def test_max_min(self, ctx):
        rdd = ctx.parallelize([3, -1, 7, 2], 3)
        assert rdd.max() == 7
        assert rdd.min() == -1

    def test_stats(self, ctx):
        rdd = ctx.parallelize([1.0, 2.0, 3.0, 4.0], 3)
        stats = rdd.stats()
        assert stats["count"] == 4
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["stdev"] == pytest.approx(1.1180, rel=1e-3)

    def test_stats_empty_raises(self, ctx):
        with pytest.raises(WorkloadError):
            ctx.parallelize([], 2).stats()

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
    # E[x^2] - mean^2 returned a stdev of 1.32e-05 here (numpy: 1.1e-13).
    @example([683.4349449060699] * 3)
    def test_stats_match_numpy(self, xs):
        import numpy as np

        ctx = make_ctx()
        stats = ctx.parallelize(xs, 3).stats()
        assert stats["mean"] == pytest.approx(float(np.mean(xs)), abs=1e-6)
        assert stats["stdev"] == pytest.approx(float(np.std(xs)), abs=1e-5)

    @pytest.mark.parametrize("value", [683.4349449060699, -0.1, 1e9 / 3])
    @pytest.mark.parametrize("n, parts", [(3, 3), (40, 3), (7, 1)])
    def test_stats_of_a_constant_list_has_no_spread(self, value, n, parts):
        stats = make_ctx().parallelize([value] * n, parts).stats()
        assert stats["stdev"] <= 1e-9 * abs(value)
        assert stats["mean"] == pytest.approx(value, rel=1e-12)

    def test_stats_survive_a_large_offset(self):
        import numpy as np

        xs = [1e9 + i for i in range(40)]
        stats = make_ctx().parallelize(xs, 3).stats()
        # E[x^2] - mean^2 returned 11.31 for a spread of 11.54 here.
        assert stats["stdev"] == pytest.approx(float(np.std(xs)), rel=1e-9)
        assert stats["mean"] == pytest.approx(float(np.mean(xs)), rel=1e-12)
