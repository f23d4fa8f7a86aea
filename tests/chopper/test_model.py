"""Tests for the Eq. 1-2 performance models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chopper.model import (
    StagePerfModel,
    design_matrix,
    fit_models_by_partitioner,
)
from repro.chopper.stats import StageObservation
from repro.common.errors import ModelError


def obs(d, p, t, s, kind="hash"):
    return StageObservation(
        signature="sig", kind="result", partitioner_kind=kind,
        input_bytes=d, num_partitions=p, duration=t, shuffle_bytes=s, order=0,
    )


def synth_obs(ds, ps, time_fn, shuffle_fn, kind="hash"):
    return [
        obs(d, p, time_fn(d, p), shuffle_fn(d, p), kind)
        for d in ds for p in ps
    ]


class TestDesignMatrix:
    def test_shape_and_terms(self):
        X = design_matrix(np.array([8.0]), np.array([4.0]), 8.0, 4.0)
        # The paper's 8 terms plus the implementation's intercept column.
        assert X.shape == (1, 9)
        # Scaled D = 1, P = 1 -> every term is 1.
        assert np.allclose(X, 1.0)

    def test_scaling(self):
        X = design_matrix(np.array([4.0]), np.array([1.0]), 8.0, 4.0)
        assert X[0, 0] == pytest.approx(0.125)  # (D/ref)^3
        assert X[0, 3] == pytest.approx(np.sqrt(0.5))


class TestFit:
    def test_needs_two_samples(self):
        with pytest.raises(ModelError):
            StagePerfModel.fit([obs(1e9, 100, 10.0, 1e6)])

    def test_recovers_linear_in_d(self):
        rows = synth_obs(
            [1e9, 2e9, 4e9, 8e9], [100, 200, 400],
            time_fn=lambda d, p: 3e-9 * d,
            shuffle_fn=lambda d, p: 0.0,
        )
        model = StagePerfModel.fit(rows)
        assert model.predict_time(4e9, 200) == pytest.approx(12.0, rel=0.05)

    def test_recovers_u_shape_in_p(self):
        """A time curve with an interior minimum is representable."""
        def t(d, p):
            return 100.0 / p * 50 + 0.02 * p  # min around p=500

        rows = synth_obs([1e9], [100, 200, 300, 500, 800, 1200, 2000], t, lambda d, p: 0)
        model = StagePerfModel.fit(rows)
        mid = model.predict_time(1e9, 500)
        assert mid < model.predict_time(1e9, 100)
        assert mid < model.predict_time(1e9, 2000)

    def test_shuffle_growth_with_p(self):
        rows = synth_obs(
            [1e9], [100, 200, 400, 800],
            time_fn=lambda d, p: 10.0,
            shuffle_fn=lambda d, p: 1000.0 * p,
        )
        model = StagePerfModel.fit(rows)
        assert model.predict_shuffle(1e9, 800) > model.predict_shuffle(1e9, 100) * 4

    def test_predictions_clipped_nonnegative(self):
        rows = synth_obs([1e9, 2e9], [100, 200], lambda d, p: 1.0, lambda d, p: 0.0)
        model = StagePerfModel.fit(rows)
        assert model.predict_time(1.0, 1.0) >= 0.0
        assert model.predict_shuffle(1e12, 5000) >= 0.0

    def test_search_bounds_are_observed_envelope(self):
        rows = synth_obs([1e9], [100, 300, 800], lambda d, p: p, lambda d, p: 0)
        model = StagePerfModel.fit(rows)
        assert model.search_bounds() == (100, 800)

    def test_r2_near_perfect_fit(self):
        # The model fits in log space, so an exactly-additive ground truth
        # is approximated (very well) rather than interpolated.
        rows = synth_obs([1e9, 2e9, 3e9], [100, 200, 300],
                         lambda d, p: 2e-9 * d + 0.01 * p, lambda d, p: 0)
        model = StagePerfModel.fit(rows)
        assert model.r2_time(rows) > 0.95
        assert model.mape_time(rows) < 0.05

    @settings(max_examples=25)
    @given(st.floats(min_value=1e6, max_value=1e12),
           st.integers(min_value=1, max_value=5000))
    def test_predictions_always_finite_nonneg(self, d, p):
        rows = synth_obs([1e9, 2e9, 4e9], [100, 300, 900],
                         lambda dd, pp: 1e-9 * dd + 0.1 * pp,
                         lambda dd, pp: pp * 100.0)
        model = StagePerfModel.fit(rows)
        t = model.predict_time(d, p)
        assert np.isfinite(t) and t >= 0


class TestFitByPartitioner:
    def test_splits_kinds(self):
        rows = (
            synth_obs([1e9, 2e9], [100, 200], lambda d, p: 1.0, lambda d, p: 0, "hash")
            + synth_obs([1e9, 2e9], [100, 200], lambda d, p: 2.0, lambda d, p: 0, "range")
        )
        models = fit_models_by_partitioner(rows)
        assert set(models) == {"hash", "range"}

    def test_none_kind_feeds_both(self):
        rows = synth_obs([1e9, 2e9], [100, 200], lambda d, p: 1.0, lambda d, p: 0,
                         kind=None)
        models = fit_models_by_partitioner(rows)
        assert set(models) == {"hash", "range"}

    def test_no_data_raises(self):
        with pytest.raises(ModelError):
            fit_models_by_partitioner([])
