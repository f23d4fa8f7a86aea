"""The optimization objective — the paper's Equations 3 and 4.

    cost = alpha * t_exe / t_default + beta * s_shuffle / s_default   (Eq. 3)
    min over P (and over partitioner kind, in Algorithm 1)            (Eq. 4)

``t_default`` / ``s_default`` are the stage's time and shuffle volume
under the *default* parallelism, which normalizes the two factors onto a
common scale; alpha = beta = 0.5 by default, "making them equally
important" (§III-B).

:func:`get_min_par` implements the inner minimization: a coarse-to-fine
integer grid search over P within the model's trusted range. (The paper
calls the whole step "solving a simple linear programming problem"; with
a fixed D the objective is a univariate polynomial in P, and an exact
grid search over integer P is both simpler and exact.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.common.errors import ModelError
from repro.chopper.model import StagePerfModel

_EPS = 1e-9


@dataclass(frozen=True)
class CostWeights:
    """alpha/beta of Eq. 3 plus the default parallelism used to normalize.

    ``shuffle_significance`` is a deviation from the paper, documented in
    DESIGN.md: because Eq. 3 normalizes shuffle volume by its own default,
    a stage whose shuffle is physically negligible (kilobytes against a
    multi-gigabyte input) can still see its s-term ratio dwarf the time
    term and drag the optimum toward tiny P. When the predicted default
    shuffle volume is below ``shuffle_significance x D``, the stage is
    treated as time-dominated and costed on time alone.
    """

    alpha: float = 0.5
    beta: float = 0.5
    default_parallelism: int = 300
    shuffle_significance: float = 1e-3

    def __post_init__(self) -> None:
        # Each guard tests the legal condition, so NaN fails it too.
        if not (self.alpha >= 0 and self.beta >= 0 and self.alpha + self.beta > 0):
            raise ModelError("alpha/beta must be non-negative, not both zero")
        if not self.default_parallelism >= 1:
            raise ModelError("default_parallelism must be >= 1")
        if not self.shuffle_significance >= 0:
            raise ModelError("shuffle_significance must be >= 0")


def stage_cost(
    model: StagePerfModel,
    d: float,
    p: float,
    weights: CostWeights,
    t_default: Optional[float] = None,
    s_default: Optional[float] = None,
) -> float:
    """Eq. 3 for one stage at input size ``d`` and parallelism ``p``.

    Defaults are the model's own predictions at the default parallelism
    when not supplied. A stage with no shuffle (s_default ~ 0) is costed
    on time alone, renormalized so costs stay comparable.
    """
    if t_default is None:
        t_default = model.predict_time(d, weights.default_parallelism)
    if s_default is None:
        s_default = model.predict_shuffle(d, weights.default_parallelism)

    t = model.predict_time(d, p)
    s = model.predict_shuffle(d, p)

    t_term = t / t_default if t_default > _EPS else (0.0 if t <= _EPS else np.inf)
    significant = s_default > max(_EPS, weights.shuffle_significance * d)
    if significant:
        return weights.alpha * t_term + weights.beta * (s / s_default)
    # No (or negligible) shuffle baseline: time-only objective on the
    # full weight, so costs stay comparable across stages.
    return (weights.alpha + weights.beta) * t_term


def get_min_par(
    model: StagePerfModel,
    d: float,
    weights: CostWeights,
    p_min: Optional[int] = None,
    p_max: Optional[int] = None,
    coarse_points: int = 48,
    t_default: Optional[float] = None,
    s_default: Optional[float] = None,
) -> Tuple[int, float]:
    """Eq. 4: the P minimizing Eq. 3 for this stage model at size ``d``.

    Coarse pass over ``coarse_points`` values spanning the trusted range,
    then an exhaustive fine pass around the best coarse candidate.
    Returns ``(best_p, best_cost)``.

    ``t_default`` / ``s_default`` are the Eq. 3 baselines — the stage
    under the *default setup*. Pass them explicitly when comparing
    partitioner kinds (Algorithm 1) so both kinds are normalized by the
    same (hash, default-parallelism) baseline; otherwise this model's own
    default prediction is used.
    """
    lo, hi = model.search_bounds()
    if p_min is not None:
        lo = max(lo, p_min)
    if p_max is not None:
        hi = min(hi, p_max)
    if hi < lo:
        raise ModelError(f"empty partition search range [{p_min}, {p_max}]")

    if t_default is None:
        t_default = model.predict_time(d, weights.default_parallelism)
    if s_default is None:
        s_default = model.predict_shuffle(d, weights.default_parallelism)

    def cost_at(p: int) -> float:
        return stage_cost(model, d, float(p), weights, t_default, s_default)

    candidates = np.unique(
        np.clip(np.linspace(lo, hi, num=min(coarse_points, hi - lo + 1)), lo, hi)
        .round()
        .astype(int)
    )
    best_p = int(candidates[0])
    best_cost = cost_at(best_p)
    for p in candidates[1:]:
        c = cost_at(int(p))
        if c < best_cost:
            best_p, best_cost = int(p), c

    # Fine pass: exhaustive within one coarse step around the minimum.
    step = max(1, (hi - lo) // max(1, len(candidates) - 1))
    for p in range(max(lo, best_p - step), min(hi, best_p + step) + 1):
        c = cost_at(p)
        if c < best_cost:
            best_p, best_cost = p, c
    return best_p, best_cost


def repartition_cost(
    d: float,
    p: int,
    per_byte: float = 2.0e-9,
    per_task: float = 0.25,
    cluster_parallelism: int = 136,
) -> float:
    """Estimated wall-clock cost of one inserted repartition phase.

    A repartition moves ~``d`` bytes through an identity shuffle and
    launches ``p`` tasks; both terms amortize over the cluster's cores.
    Used by Algorithm 3's gamma test for user-fixed stages.
    """
    if not (d >= 0 and p >= 1):  # NaN fails too
        raise ModelError("repartition_cost needs d >= 0 and p >= 1")
    return (d * per_byte * 2.0 + p * per_task) / max(1, cluster_parallelism)
