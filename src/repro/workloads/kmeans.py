"""KMeans workload, structured like the paper's SparkBench run (§II-B, §IV).

Stage layout (20 stage executions at the defaults, matching the paper's
"KMeans has 20 stages in total ... only stages 12-17 involve data
shuffle" and Table III's stage ids):

* stage 0 — load, parse, and cache the points (count action);
* stage 1 — initial center sample (takeSample pass);
* stages 2-11 — five init refinement rounds, each a cost pass
  (``initCost``) plus a candidate pass (``initSample``), all narrow;
* stages 12-17 — three Lloyd iterations, each a map-side-combined
  ``reduceByKey`` (shuffle-map stage) plus its result stage;
* stages 18-19 — the final cluster-size aggregation (one more shuffle).

The Lloyd iterations broadcast the current centers, so every iteration's
lineage is structurally identical — they share one stage signature, which
is exactly what lets CHOPPER assign stages 12-17 a single scheme.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.common.units import GB
from repro.engine.context import AnalyticsContext
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.datagen import KMeansDataGen


class KMeansWorkload(Workload):
    """Lloyd's KMeans with a kmeans||-flavored initialization."""

    name = "kmeans"

    def __init__(
        self,
        virtual_gb: float = 21.8,
        k: int = 20,
        dim: int = 10,
        lloyd_iterations: int = 3,
        init_rounds: int = 5,
        physical_records: int = 20_000,
        physical_scale: float = 1.0,
        seed: int = 7,
    ) -> None:
        super().__init__(physical_scale=physical_scale, seed=seed)
        self.input_bytes = virtual_gb * GB
        self.k = k
        self.dim = dim
        self.lloyd_iterations = lloyd_iterations
        self.init_rounds = init_rounds
        records = self.check_physical_records(physical_records)
        self.physical_records = max(64, int(records * physical_scale))

    def run(self, ctx: AnalyticsContext, scale: float = 1.0) -> WorkloadResult:
        gen = KMeansDataGen(
            virtual_bytes=self.virtual_bytes(scale),
            physical_records=self.physical_records,
            dim=self.dim,
            n_clusters=self.k,
            seed=self.seed,
        )
        points = gen.rdd(ctx, ctx.default_parallelism).cache()

        n = points.count()  # stage 0: load + cache
        # Stage 1: the initial-center sampling pass. Runs through its own
        # named op so its stage signature differs from stage 0's — stage 0
        # pays the parse+cache cost, this pass reads the cache, and CHOPPER
        # must not train one model on both behaviours.
        sample_view = points.map_partitions(
            lambda _s, recs: recs, op_name="initSeed"
        )
        centers = np.array(sample_view.take_sample(self.k, seed=self.seed))

        for _round in range(self.init_rounds):  # stages 2-11
            cost = self._clustering_cost(ctx, points, centers)
            centers = self._refine_worst_center(ctx, points, centers)

        for _it in range(self.lloyd_iterations):  # stages 12-17
            centers = self._lloyd_step(ctx, points, centers)

        sizes = self._cluster_sizes(ctx, points, centers)  # stages 18-19
        cost = sum(sizes.values())  # total membership, sanity value
        return WorkloadResult(
            value=centers,
            details={"n": n, "sizes": sizes, "k": self.k, "members": cost},
        )

    # ------------------------------------------------------------------

    def _clustering_cost(self, ctx, points, centers: np.ndarray) -> float:
        bc = ctx.broadcast(centers)

        def partial_cost(_split: int, records: List[np.ndarray]) -> List[float]:
            if not records:
                return [0.0]
            data = np.asarray(records)
            return [float(_min_dists(data, bc.value).sum())]

        return points.map_partitions(
            partial_cost, op_name="initCost", cost=1.4, out_scale=1.0
        ).sum()

    def _refine_worst_center(self, ctx, points, centers: np.ndarray) -> np.ndarray:
        """Replace the least-useful center with the farthest point seen."""
        bc = ctx.broadcast(centers)

        def farthest(_split: int, records: List[np.ndarray]) -> List[Tuple[float, tuple]]:
            if not records:
                return []
            data = np.asarray(records)
            dists = _min_dists(data, bc.value)
            i = int(np.argmax(dists))
            return [(float(dists[i]), tuple(float(x) for x in data[i]))]

        candidates = points.map_partitions(
            farthest, op_name="initSample", cost=1.4, out_scale=1.0
        )
        best = candidates.reduce(lambda a, b: a if a[0] >= b[0] else b)
        new_centers = centers.copy()
        # Replace the center crowding its nearest neighbour the most.
        diff = centers[:, None, :] - centers[None, :, :]
        pairwise = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(pairwise, np.inf)
        worst = int(pairwise.min(axis=1).argmin())
        new_centers[worst] = np.array(best[1])
        return new_centers

    def _lloyd_step(self, ctx, points, centers: np.ndarray) -> np.ndarray:
        bc = ctx.broadcast(centers)

        def assign(_split: int, records: List[np.ndarray]) -> List[tuple]:
            if not records:
                return []
            data = np.asarray(records)
            cids = _closest(data, bc.value)
            return [
                (int(cid), (vec, 1)) for cid, vec in zip(cids, records)
            ]

        def merge(a: tuple, b: tuple) -> tuple:
            return (a[0] + b[0], a[1] + b[1])

        assigned = points.map_partitions(assign, op_name="assign", cost=2.0)
        # merge is elementwise + over (vec, count) tuples: numeric_add.
        totals = assigned.reduce_by_key(merge, numeric_add=True).collect_as_map()
        new_centers = centers.copy()
        for cid, (vec_sum, count) in totals.items():
            if count > 0:
                new_centers[cid] = vec_sum / count
        return new_centers

    def _cluster_sizes(self, ctx, points, centers: np.ndarray) -> dict:
        bc = ctx.broadcast(centers)

        def sizes(_split: int, records: List[np.ndarray]) -> List[tuple]:
            if not records:
                return []
            data = np.asarray(records)
            return [(int(cid), 1) for cid in _closest(data, bc.value)]

        return (
            points.map_partitions(sizes, op_name="clusterSizes", cost=1.6)
            .reduce_by_key(lambda a, b: a + b, numeric_add=True)
            .collect_as_map()
        )


def _closest(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for each row (vectorized)."""
    # (n, k) squared distances via the expansion trick — no copies of data.
    d2 = (
        (data**2).sum(axis=1)[:, None]
        - 2.0 * data @ centers.T
        + (centers**2).sum(axis=1)[None, :]
    )
    return d2.argmin(axis=1)


def _min_dists(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = (
        (data**2).sum(axis=1)[:, None]
        - 2.0 * data @ centers.T
        + (centers**2).sum(axis=1)[None, :]
    )
    return np.sqrt(np.maximum(d2.min(axis=1), 0.0))
