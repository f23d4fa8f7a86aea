"""Tests for the Eq. 3-4 objective and the P search."""

import pytest

from repro.chopper.cost import (
    CostWeights,
    get_min_par,
    repartition_cost,
    stage_cost,
)
from repro.chopper.model import StagePerfModel
from repro.common.errors import ModelError
from tests.chopper.test_model import synth_obs


def u_shape_model(shuffle_slope=0.0):
    """Time minimal near P=500; shuffle linear in P."""
    return StagePerfModel.fit(
        synth_obs(
            [1e9, 2e9], [100, 200, 300, 500, 800, 1200, 2000],
            time_fn=lambda d, p: d * 1e-9 * (5000.0 / p) + 0.02 * p,
            shuffle_fn=lambda d, p: shuffle_slope * p,
        )
    )


class TestWeights:
    def test_defaults_are_paper_values(self):
        w = CostWeights()
        assert w.alpha == 0.5
        assert w.beta == 0.5
        assert w.default_parallelism == 300

    def test_negative_rejected(self):
        with pytest.raises(ModelError):
            CostWeights(alpha=-0.1)
        with pytest.raises(ModelError):
            CostWeights(alpha=float("nan"))
        with pytest.raises(ModelError):
            CostWeights(shuffle_significance=float("nan"))

    def test_both_zero_rejected(self):
        with pytest.raises(ModelError):
            CostWeights(alpha=0.0, beta=0.0)


class TestStageCost:
    def test_cost_is_one_at_default(self):
        model = u_shape_model(shuffle_slope=1e7)
        w = CostWeights()
        assert stage_cost(model, 1e9, 300, w) == pytest.approx(1.0, rel=0.05)

    def test_time_only_when_shuffle_insignificant(self):
        model = u_shape_model(shuffle_slope=0.0)
        w = CostWeights()
        # With no shuffle, the cost is the pure (renormalized) time ratio.
        c_fast = stage_cost(model, 1e9, 500, w)
        c_slow = stage_cost(model, 1e9, 100, w)
        assert c_fast < c_slow

    def test_shuffle_term_pulls_p_down(self):
        w = CostWeights(shuffle_significance=0.0)
        heavy = u_shape_model(shuffle_slope=1e7)  # shuffle ~ P x 10MB
        light = u_shape_model(shuffle_slope=0.0)
        p_heavy, _ = get_min_par(heavy, 1e9, w)
        p_light, _ = get_min_par(light, 1e9, w)
        assert p_heavy < p_light

    def test_significance_floor_ignores_trivial_shuffle(self):
        # 100 bytes x P of shuffle against a 1 GB input: insignificant.
        tiny = u_shape_model(shuffle_slope=100.0)
        w = CostWeights(shuffle_significance=1e-3)
        p_tiny, _ = get_min_par(tiny, 1e9, w)
        no_shuffle = u_shape_model(shuffle_slope=0.0)
        p_none, _ = get_min_par(no_shuffle, 1e9, w)
        assert abs(p_tiny - p_none) <= 25


class TestGetMinPar:
    def test_finds_interior_minimum(self):
        model = u_shape_model()
        p, cost = get_min_par(model, 1e9, CostWeights())
        # True minimum of d*5/p*... : minimize 5/p*1 + 0.02p -> p ~ 500.
        assert 300 < p < 800
        assert cost < 1.0  # better than the default 300

    def test_respects_explicit_bounds(self):
        model = u_shape_model()
        p, _ = get_min_par(model, 1e9, CostWeights(), p_min=150, p_max=250)
        assert 150 <= p <= 250

    def test_empty_range_raises(self):
        model = u_shape_model()
        with pytest.raises(ModelError):
            get_min_par(model, 1e9, CostWeights(), p_min=5000, p_max=6000)

    def test_stays_in_observed_envelope(self):
        model = u_shape_model()
        p, _ = get_min_par(model, 1e9, CostWeights())
        lo, hi = model.search_bounds()
        assert lo <= p <= hi

    def test_deterministic(self):
        model = u_shape_model()
        assert get_min_par(model, 1e9, CostWeights()) == get_min_par(
            model, 1e9, CostWeights()
        )


class TestRepartitionCost:
    def test_scales_with_data_and_tasks(self):
        assert repartition_cost(1e10, 300) > repartition_cost(1e9, 300)
        assert repartition_cost(1e9, 3000) > repartition_cost(1e9, 300)

    def test_validation(self):
        with pytest.raises(ModelError):
            repartition_cost(-1.0, 10)
        with pytest.raises(ModelError):
            repartition_cost(1.0, 0)
        with pytest.raises(ModelError):
            repartition_cost(float("nan"), 10)
