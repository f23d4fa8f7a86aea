"""Stage performance models — the paper's Equations 1 and 2.

For every (stage signature, partitioner kind) CHOPPER fits two surrogate
curves over input size ``D`` and partition count ``P``:

    t_exe     = a1 D^3 + b1 D^2 + c1 D + d1 sqrt(D)
              + e1 P^3 + f1 P^2 + g1 P + h1 sqrt(P)          (Eq. 1)

    s_shuffle = a2 D^3 + b2 D^2 + c2 D + d2 sqrt(D)
              + e2 P^3 + f2 P^2 + g2 P + h2 sqrt(P)          (Eq. 2)

Implementation notes:

* inputs are scaled by reference magnitudes (``d_ref``, ``p_ref``) before
  the polynomial expansion — D is ~1e10 bytes, so raw cubes would destroy
  the least-squares conditioning;
* coefficients may be negative (time routinely *decreases* with P over a
  range — the paper's basis has no other way to express that), so
  predictions are clipped at zero and a tiny ridge term keeps the fit
  stable when samples are few;
* two implementation choices beyond the paper's text (see DESIGN.md):
  an **intercept** column, and fitting in **log space** (the basis
  predicts ``log t`` / ``log s``; predictions exponentiate). Stage-time
  curves often fall like 1/P and span orders of magnitude: a linear
  least-squares fit either overshoots the tail below zero (degenerate
  Eq. 4 argmin on the clipped plateau) or, if relative-weighted, ignores
  the expensive low-P spike the optimizer most needs to avoid. The
  multiplicative fit does neither and is positive by construction;
* the observed (D, P) envelope is stored; the optimizer searches P inside
  it, because cubic extrapolation outside the data is meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.common.errors import ModelError
from repro.chopper.stats import StageObservation

BASIS_NAMES: Tuple[str, ...] = (
    "D^3", "D^2", "D", "sqrt(D)", "P^3", "P^2", "P", "sqrt(P)", "1",
)
N_TERMS = len(BASIS_NAMES)
_RIDGE = 1e-8
# Floors for the log-space targets and a cap on predicted log values
# (exp(40) seconds is ~10^9 years: anything past it is "infinitely bad").
_TIME_FLOOR = 1e-3
_BYTES_FLOOR = 1.0
_LOG_CAP = 40.0


def design_matrix(
    d: np.ndarray, p: np.ndarray, d_ref: float, p_ref: float
) -> np.ndarray:
    """The Eq. 1-2 basis (plus intercept) on reference-scaled inputs."""
    ds = np.asarray(d, dtype=float) / d_ref
    ps = np.asarray(p, dtype=float) / p_ref
    return np.column_stack(
        [
            ds**3, ds**2, ds, np.sqrt(ds),
            ps**3, ps**2, ps, np.sqrt(ps),
            np.ones_like(ds),
        ]
    )


@dataclass
class StagePerfModel:
    """Fitted Eq. 1 (time) and Eq. 2 (shuffle) for one stage+partitioner."""

    coef_time: np.ndarray
    coef_shuffle: np.ndarray
    d_ref: float
    p_ref: float
    d_range: Tuple[float, float]
    p_range: Tuple[int, int]
    n_samples: int

    # -- fitting --------------------------------------------------------

    @classmethod
    def fit(cls, observations: Iterable[StageObservation]) -> "StagePerfModel":
        obs = list(observations)
        if len(obs) < 2:
            raise ModelError(
                f"need at least 2 observations to fit a stage model, got {len(obs)}"
            )
        d = np.array([max(o.input_bytes, 1.0) for o in obs])
        p = np.array([float(o.num_partitions) for o in obs])
        t = np.array([o.duration for o in obs])
        s = np.array([o.shuffle_bytes for o in obs])
        d_ref = float(d.max())
        p_ref = float(p.max())
        X = design_matrix(d, p, d_ref, p_ref)
        coef_time = _ridge_lstsq(X, np.log(np.maximum(t, _TIME_FLOOR)))
        coef_shuffle = _ridge_lstsq(X, np.log(np.maximum(s, _BYTES_FLOOR)))
        return cls(
            coef_time=coef_time,
            coef_shuffle=coef_shuffle,
            d_ref=d_ref,
            p_ref=p_ref,
            d_range=(float(d.min()), float(d.max())),
            p_range=(int(p.min()), int(p.max())),
            n_samples=len(obs),
        )

    # -- prediction -------------------------------------------------------

    def _predict(self, coef: np.ndarray, d: float, p: float) -> float:
        X = design_matrix(np.array([d]), np.array([p]), self.d_ref, self.p_ref)
        log_value = min(float((X @ coef)[0]), _LOG_CAP)
        return float(np.exp(log_value))

    def predict_time(self, d: float, p: float) -> float:
        """Eq. 1: predicted stage execution time (seconds, > 0)."""
        return self._predict(self.coef_time, max(d, 1.0), max(p, 1.0))

    def predict_shuffle(self, d: float, p: float) -> float:
        """Eq. 2: predicted shuffle volume (bytes, > 0).

        An all-zero shuffle series fits to the byte floor (~1 byte),
        which the cost function's significance test treats as zero.
        """
        return self._predict(self.coef_shuffle, max(d, 1.0), max(p, 1.0))

    def search_bounds(self) -> Tuple[int, int]:
        """P range the optimizer may trust: the observed envelope.

        Cubic surrogates extrapolate wildly outside their data — the
        profiling grid defines the searchable space, exactly as the
        paper's test runs bound what CHOPPER has evidence for.
        """
        lo, hi = self.p_range
        return max(1, int(lo)), max(2, int(hi))

    # -- diagnostics -------------------------------------------------------

    def time_residuals(
        self, observations: Sequence[StageObservation]
    ) -> np.ndarray:
        return np.array(
            [
                o.duration - self.predict_time(o.input_bytes, o.num_partitions)
                for o in observations
            ]
        )

    def r2_time(self, observations: Sequence[StageObservation]) -> float:
        """Coefficient of determination of the time fit on given samples."""
        t = np.array([o.duration for o in observations])
        if t.size < 2 or np.allclose(t, t.mean()):
            return 1.0
        resid = self.time_residuals(observations)
        return float(1.0 - (resid**2).sum() / ((t - t.mean()) ** 2).sum())

    def shuffle_residuals(
        self, observations: Sequence[StageObservation]
    ) -> np.ndarray:
        return np.array(
            [
                o.shuffle_bytes
                - self.predict_shuffle(o.input_bytes, o.num_partitions)
                for o in observations
            ]
        )

    def r2_shuffle(self, observations: Sequence[StageObservation]) -> float:
        """Coefficient of determination of the shuffle fit on given samples."""
        s = np.array([o.shuffle_bytes for o in observations])
        if s.size < 2 or np.allclose(s, s.mean()):
            return 1.0
        resid = self.shuffle_residuals(observations)
        return float(1.0 - (resid**2).sum() / ((s - s.mean()) ** 2).sum())

    def mape_time(self, observations: Sequence[StageObservation]) -> float:
        """Median absolute percentage error of the time fit.

        The fit minimizes *relative* error, so this is the matching
        goodness measure (absolute R² over-weights the largest samples).
        """
        t = np.array([o.duration for o in observations])
        if t.size == 0:
            return 0.0
        resid = self.time_residuals(observations)
        return float(np.median(np.abs(resid) / np.maximum(t, 1e-9)))


def _ridge_lstsq(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares with a tiny ridge term for conditioning."""
    n = X.shape[1]
    A = X.T @ X + _RIDGE * np.eye(n)
    b = X.T @ y
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:  # pragma: no cover - ridge prevents this
        return np.linalg.lstsq(X, y, rcond=None)[0]


def fit_models_by_partitioner(
    observations: Iterable[StageObservation],
) -> dict:
    """Group one stage's observations by partitioner kind and fit each.

    Observations without a partitioner kind (source stages) are folded
    into both kinds — the scheme choice doesn't affect them, but the
    optimizer still needs a model to price their parallelism.
    """
    by_kind: dict = {"hash": [], "range": []}
    for obs in observations:
        if obs.partitioner_kind is None:
            by_kind["hash"].append(obs)
            by_kind["range"].append(obs)
        elif obs.partitioner_kind in by_kind:
            by_kind[obs.partitioner_kind].append(obs)
    models = {}
    for kind, rows in by_kind.items():
        if len(rows) >= 2:
            models[kind] = StagePerfModel.fit(rows)
    if not models:
        raise ModelError("no partitioner kind has enough observations")
    return models
