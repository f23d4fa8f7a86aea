"""Logistic regression: the gradient-descent workload from the paper's intro.

§IV motivates PCA as a preprocessing step "in various data mining
algorithms such as SVM and logistic regression"; this driver completes
the picture: batch gradient descent over cached labeled points, one
shuffled gradient aggregation per iteration (broadcast weights, combined
partials) — the same iterative stage structure CHOPPER tunes in KMeans.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.common.units import GB
from repro.engine.context import AnalyticsContext
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.datagen import LabeledDataGen


class LogisticRegressionWorkload(Workload):
    """Batch gradient descent for binary logistic regression."""

    name = "logistic"

    def __init__(
        self,
        virtual_gb: float = 12.0,
        dim: int = 10,
        iterations: int = 5,
        learning_rate: float = 1.0,
        agg_scale: int = 16,
        physical_records: int = 12_000,
        physical_scale: float = 1.0,
        seed: int = 7,
    ) -> None:
        super().__init__(physical_scale=physical_scale, seed=seed)
        self.input_bytes = virtual_gb * GB
        self.dim = dim
        self.iterations = iterations
        self.learning_rate = learning_rate
        self.agg_scale = agg_scale
        records = self.check_physical_records(physical_records)
        self.physical_records = max(128, int(records * physical_scale))

    def run(self, ctx: AnalyticsContext, scale: float = 1.0) -> WorkloadResult:
        gen = LabeledDataGen(
            virtual_bytes=self.virtual_bytes(scale),
            physical_records=self.physical_records,
            dim=self.dim,
            seed=self.seed,
        )
        points = gen.rdd(ctx, ctx.default_parallelism).cache()
        n = points.count()  # stage 0: load + cache

        weights = np.zeros(self.dim)
        agg_scale = self.agg_scale
        for _it in range(self.iterations):  # 2 stages per iteration
            bc = ctx.broadcast(weights)

            def gradient(split: int, records: List) -> List:
                if not records:
                    return []
                x = np.asarray([r[0] for r in records])
                y = np.asarray([r[1] for r in records], dtype=float)
                preds = _sigmoid(x @ bc.value)
                grad = x.T @ (preds - y)
                return [(split % agg_scale, grad)]

            partials = points.map_partitions(
                gradient, op_name="lrGradient", cost=2.0, out_scale=1.0
            )
            total = np.zeros(self.dim)
            for _k, g in partials.reduce_by_key(
                lambda a, b: a + b, numeric_add=True
            ).collect():
                total = total + g
            weights = weights - self.learning_rate * total / n

        accuracy = self._accuracy(points, weights, n)  # final narrow stage
        return WorkloadResult(
            value=weights, details={"n": n, "accuracy": accuracy}
        )

    def _accuracy(self, points, weights: np.ndarray, n: int) -> float:
        def correct(_split: int, records: List) -> List:
            if not records:
                return [0]
            x = np.asarray([r[0] for r in records])
            y = np.asarray([r[1] for r in records])
            preds = (_sigmoid(x @ weights) > 0.5).astype(int)
            return [int((preds == y).sum())]

        hits = points.map_partitions(
            correct, op_name="lrAccuracy", cost=1.5, out_scale=1.0
        ).sum()
        return hits / n if n else 0.0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))
