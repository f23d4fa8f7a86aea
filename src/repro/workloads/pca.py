"""PCA workload: compute- and network-intensive, as the paper describes.

"PCA ... is both computation and network-intensive machine learning
workload that involves multiple iterations to compute a linearly
uncorrelated set of vectors from a set of possibly correlated ones"
(§IV). Stage layout at the defaults (12 stage executions):

* stage 0 — load, parse, cache (count);
* stages 1-2 — column means via a shuffled sum of per-partition partials
  (shuffle + result);
* stages 3-4 — covariance accumulation, the same way, of centered outer
  products (the compute-heavy pass);
* stages 5-10 — three distributed power-method iterations for the
  leading principal components (each a shuffled aggregate of x (x . v));
* stage 11 — final explained-variance pass (narrow).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.common.units import GB
from repro.engine.context import AnalyticsContext
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.datagen import PCADataGen


class PCAWorkload(Workload):
    """Principal components via distributed covariance + power iterations."""

    name = "pca"

    def __init__(
        self,
        virtual_gb: float = 27.6,
        dim: int = 20,
        components: int = 3,
        power_iterations: int = 3,
        agg_scale: int = 16,
        physical_records: int = 16_000,
        physical_scale: float = 1.0,
        seed: int = 7,
    ) -> None:
        super().__init__(physical_scale=physical_scale, seed=seed)
        self.input_bytes = virtual_gb * GB
        self.dim = dim
        self.components = components
        self.power_iterations = power_iterations
        self.agg_scale = agg_scale
        records = self.check_physical_records(physical_records)
        self.physical_records = max(64, int(records * physical_scale))

    def run(self, ctx: AnalyticsContext, scale: float = 1.0) -> WorkloadResult:
        gen = PCADataGen(
            virtual_bytes=self.virtual_bytes(scale),
            physical_records=self.physical_records,
            dim=self.dim,
            seed=self.seed,
        )
        rows = gen.rdd(ctx, ctx.default_parallelism).cache()
        n = rows.count()  # stage 0

        d = self.dim
        mean = (
            self._tree_sum(
                rows, lambda data: data.sum(axis=0), np.zeros(d),
                op_name="pcaMeans",
            )
            / n
        )  # stages 1-2

        def centered_gram(data: np.ndarray) -> np.ndarray:
            centered = data - mean
            return centered.T @ centered

        cov = (
            self._tree_sum(
                rows, centered_gram, np.zeros((d, d)), cost=3.0,
                op_name="pcaCovariance",
            )
            / n
        )  # stages 3-4

        components = []
        deflated = cov.copy()
        for c in range(self.components):
            v = _power_vector(deflated, self.seed + c)
            components.append(v)
            deflated = deflated - np.outer(v, v) * float(v @ deflated @ v)

        # Distributed refinement of the leading component: the paper's
        # "multiple iterations" network-intensive phase (stages 5-10).
        v = components[0]
        for _it in range(self.power_iterations):
            def gram_multiply(data: np.ndarray, v=v) -> np.ndarray:
                centered = data - mean
                return centered.T @ (centered @ v)

            w = self._tree_sum(
                rows, gram_multiply, np.zeros(d), cost=2.0, op_name="pcaPower"
            )
            norm = float(np.linalg.norm(w))
            if norm > 0:
                v = w / norm
        components[0] = v

        explained = self._explained_variance(rows, mean, np.array(components))
        return WorkloadResult(
            value=np.array(components),
            details={"n": n, "mean": mean, "explained": explained},
        )

    # ------------------------------------------------------------------

    def _tree_sum(
        self, rows, block_fn, zero, cost: float = 1.5, op_name: str = "pcaPartials"
    ):
        """Shuffled aggregation of a per-partition numpy reduction.

        Built on map_partitions + reduceByKey so the partials are computed
        blockwise (vectorized) and the compute weight can be declared.
        """
        scale = self.agg_scale

        def partials(split: int, records: List[np.ndarray]) -> List[tuple]:
            if not records:
                return []
            return [(split % scale, block_fn(np.asarray(records)))]

        combined = rows.map_partitions(
            partials, op_name=op_name, cost=cost, out_scale=1.0
        ).reduce_by_key(lambda a, b: a + b, num_partitions=None, numeric_add=True)
        acc = zero.copy()
        for _k, v in combined.collect():
            acc = acc + v
        return acc

    def _explained_variance(self, rows, mean, components: np.ndarray) -> float:
        def partial(_split: int, records: List[np.ndarray]) -> List[tuple]:
            if not records:
                return [(0.0, 0.0)]
            centered = np.asarray(records) - mean
            projected = centered @ components.T
            return [
                (float((projected**2).sum()), float((centered**2).sum()))
            ]

        pairs = rows.map_partitions(
            partial, op_name="pcaVariance", cost=1.5, out_scale=1.0
        ).collect()
        num = sum(p[0] for p in pairs)
        den = sum(p[1] for p in pairs)
        return num / den if den > 0 else 0.0


def _power_vector(matrix: np.ndarray, seed: int, iterations: int = 50) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=matrix.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return v
        v = w / norm
    return v
