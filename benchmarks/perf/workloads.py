"""The five benchmark workloads: set-up, one timed iteration, output check.

Every workload runs on ``EngineConf()`` defaults except for the fields it
names. ``--seed`` reaches the program only as ``Workload(seed=...)``.
Sizes are fixed here (``FULL``); ``SMOKE`` is the same five workloads and
every check at about a twentieth of the size.

An iteration's engine work (``_run``) is timed; its output check and
non-vacuity guards (``_check``) are not. Guards read public engine state
(``ctx.spill``, ``ctx.query_cache``, the metrics registry), never the
tracing wrappers, so they also hold the untraced iterations to account.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.chopper import ChopperRunner
from repro.chopper.runner import improvement
from repro.chopper.workload_db import WorkloadDB
from repro.cluster.cluster import paper_cluster
from repro.common.units import GB
from repro.engine.context import AnalyticsContext, EngineConf
from repro.workloads import KMeansWorkload, ShuffleWordCountWorkload, SQLWorkload
from repro.workloads.datagen import KMeansDataGen, SQLTableGen, TextDataGen

FULL: Dict[str, Dict[str, Any]] = {
    "wordcount": dict(physical_records=100_000),
    "kmeans": dict(physical_records=50_000),
    # Parallelism above the paper cluster's 112 cores, so that pruned
    # partitions save scheduling waves; ~100 rows per partition, so that
    # hash-scrambled ids never get luckily-tight zone maps.
    "sql_repeated": dict(physical_records=30_000, max_order=3750, parallelism=300),
    "chopper_tune": dict(
        physical_records=6000, p_grid=(100, 200, 300, 500), scales=(0.33, 1.0)
    ),
}
SMOKE: Dict[str, Dict[str, Any]] = {
    "wordcount": dict(physical_records=5_000),
    "kmeans": dict(physical_records=2_500, init_rounds=1, lloyd_iterations=1),
    "sql_repeated": dict(physical_records=12_000, max_order=1500, parallelism=120),
    "chopper_tune": dict(physical_records=600, p_grid=(50,), scales=(1.0,)),
}

SPILL_BUDGET_FRACTION = 0.1
KINDS = ("hash", "range")


@dataclass
class Outcome:
    """One iteration: what it cost, what it computed, what was wrong."""

    sim_s: float
    shuffle_gb: float
    digest: str
    errors: List[str] = field(default_factory=list)
    # Counts read from public engine state; feed guards and layer metrics.
    facts: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0


def digest_of(*parts: Any) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def engine_facts(ctx: AnalyticsContext) -> Dict[str, float]:
    facts = {
        "sim_s": ctx.now,
        "shuffle_bytes": sum(s.shuffle_write_bytes for s in ctx.stage_stats),
        "spill_events": 0.0, "spilled_bytes": 0.0, "readbacks": 0.0,
    }
    if ctx.spill is not None:
        facts["spill_events"] = float(ctx.spill.spill_events)
        facts["spilled_bytes"] = ctx.spill.spilled_bytes
        facts["readbacks"] = float(ctx.spill.spill_reads)
    return facts


def rows_close(a: List[Tuple], b: List[Tuple]) -> bool:
    """Same (key, float) rows, values equal up to summation order."""
    return len(a) == len(b) and all(
        ka == kb and math.isclose(va, vb, rel_tol=1e-9)
        for (ka, va), (kb, vb) in zip(a, b)
    )


class Bench:
    """One workload. Subclasses fill ``setup``, ``_run`` and ``_check``."""

    name = ""
    records = 0  # physical source records materialised per iteration

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.sizes = SMOKE if smoke else FULL

    def conf(self) -> EngineConf:
        """The exact ``EngineConf`` the iteration runs on."""
        return EngineConf()

    def setup(self) -> float:
        """Pre-warm datagen and build the reference result.

        Returns the seconds spent in the cold source scan.
        """
        raise NotImplementedError

    def warmup(self) -> Outcome:
        """The untimed first iteration: caches fill, lazy imports finish."""
        return self.iterate()

    def iterate(self, wrap: Optional[Callable] = None) -> Outcome:
        """One closed-loop iteration; ``wrap`` adds the traced root span."""
        run = self._run if wrap is None else wrap(self._run)
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        payload = run()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        outcome = self._check(payload)
        outcome.wall_s, outcome.cpu_s = wall, cpu
        return outcome

    def _run(self, conf: Optional[EngineConf] = None) -> Any:
        """The timed engine work: ``self.workload`` on a fresh context."""
        return self._engine_run(self.workload, conf or self.conf())

    def _check(self, payload: Any) -> Outcome:
        raise NotImplementedError

    def _cold_scan(self, build_rdd: Callable[[AnalyticsContext], Any]) -> Tuple[List, float]:
        """Collect a source once: fills the block cache, returns its records."""
        ctx = AnalyticsContext(paper_cluster(), EngineConf())
        try:
            start = time.perf_counter()
            records = build_rdd(ctx).collect()
            return records, time.perf_counter() - start
        finally:
            ctx.close()

    def _engine_run(self, workload, conf: EngineConf):
        """``workload.run`` on a fresh context; returns (result, facts)."""
        ctx = AnalyticsContext(paper_cluster(), conf)
        try:
            result = workload.run(ctx)
            return result, engine_facts(ctx)
        finally:
            ctx.close()


def _outcome(facts: Dict[str, float], digest: str, errors: List[str]) -> Outcome:
    return Outcome(
        sim_s=facts["sim_s"], shuffle_gb=facts["shuffle_bytes"] / GB,
        digest=digest, errors=errors, facts=facts,
    )


class WordCountShuffle(Bench):
    name = "wordcount_shuffle"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.workload = ShuffleWordCountWorkload(seed=seed, **self.sizes["wordcount"])
        self.records = self.workload.physical_records

    def setup(self) -> float:
        w = self.workload
        gen = TextDataGen(
            virtual_bytes=w.virtual_bytes(), physical_records=w.physical_records,
            vocabulary=w.vocabulary, seed=w.seed,
        )
        lines, cold_s = self._cold_scan(lambda ctx: gen.rdd(ctx, ctx.default_parallelism))
        counts = Counter(
            word for line in lines for word in line.split()
            if len(word) >= w.min_word_len
        )
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        self.expected = [(word, float(n)) for word, n in ranked[: w.top_n]]
        self.expected_distinct = len(counts)
        return cold_s

    def _check(self, payload) -> Outcome:
        result, facts = payload
        errors = []
        if result.value != self.expected:
            errors.append("top words differ from the Counter reference")
        if result.details["distinct"] != self.expected_distinct:
            errors.append("distinct count differs from the Counter reference")
        return _outcome(facts, digest_of(result.value, result.details), errors)


class KMeansIter(Bench):
    name = "kmeans_iter"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.workload = KMeansWorkload(seed=seed, **self.sizes["kmeans"])
        self.records = self.workload.physical_records
        self.expected_digest: Optional[str] = None

    def setup(self) -> float:
        w = self.workload
        gen = KMeansDataGen(
            virtual_bytes=w.virtual_bytes(), physical_records=w.physical_records,
            dim=w.dim, n_clusters=w.k, seed=w.seed,
        )
        points, cold_s = self._cold_scan(lambda ctx: gen.rdd(ctx, ctx.default_parallelism))
        self.points = np.asarray(points)
        return cold_s

    @staticmethod
    def _digest(result) -> str:
        return digest_of(result.value, sorted(result.details["sizes"].items()))

    def _check(self, payload) -> Outcome:
        result, facts = payload
        errors = []
        centers, details = result.value, result.details
        # Membership recomputed from the returned centers, one center at a
        # time (an (n, k, dim) temporary would show up in peak_rss_mb).
        d2 = np.stack(
            [((self.points - c) ** 2).sum(axis=1) for c in centers], axis=1
        )
        sizes = np.bincount(d2.argmin(axis=1), minlength=len(centers))
        expected = {cid: int(n) for cid, n in enumerate(sizes) if n}
        if details["sizes"] != expected:
            errors.append("cluster sizes differ from a numpy recount")
        if details["n"] != len(self.points) or details["members"] != len(self.points):
            errors.append("point count differs from the generated input")
        if not np.isfinite(centers).all():
            errors.append("non-finite centers")
        digest = self._digest(result)
        if self.expected_digest is not None and digest != self.expected_digest:
            errors.append("digest differs from the unbudgeted kmeans_iter run")
        errors.extend(self._guards(facts))
        return _outcome(facts, digest, errors)

    def _guards(self, facts: Dict[str, float]) -> List[str]:
        if facts["spill_events"] or facts["readbacks"]:
            return ["kmeans_iter touched the spill path"]
        return []


class KMeansSpill(KMeansIter):
    """The same job under a memory budget of a tenth of its input."""

    name = "kmeans_spill"

    def conf(self) -> EngineConf:
        return EngineConf(
            memory_budget=SPILL_BUDGET_FRACTION * self.workload.virtual_bytes(1.0)
        )

    def setup(self) -> float:
        cold_s = super().setup()
        result, _facts = self._engine_run(self.workload, EngineConf())
        self.expected_digest = self._digest(result)
        return cold_s

    def _guards(self, facts: Dict[str, float]) -> List[str]:
        if facts["spill_events"] <= 0:
            return ["kmeans_spill never spilled"]
        return []


class SqlRepeated(Bench):
    """One selective query, cold then warm, per orders layout."""

    name = "sql_repeated"
    layouts = ("range", "hash")

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        sizes = dict(self.sizes["sql_repeated"])
        self.parallelism = sizes.pop("parallelism")
        self.workloads = {
            layout: SQLWorkload(
                virtual_gb=1.0, seed=seed, orders_layout=layout, **sizes
            )
            for layout in self.layouts
        }
        w = self.workloads["range"]
        self.records = 2 * len(self.layouts) * (w.physical_records + w.n_customers)

    def conf(self, cache_path: str = "<tmp>/<layout>.db") -> EngineConf:
        return EngineConf(
            default_parallelism=self.parallelism,
            result_cache="sqlite", result_cache_path=cache_path,
        )

    def setup(self) -> float:
        self.expected = {}
        cold_s = 0.0
        for layout, w in self.workloads.items():
            reference, seconds = sql_reference(self, w)
            self.expected[layout] = reference
            cold_s += seconds
        return cold_s

    def _run(self):
        runs = {}
        with tempfile.TemporaryDirectory() as tmp:
            for layout, workload in self.workloads.items():
                conf = self.conf(os.path.join(tmp, f"{layout}.db"))
                for phase in ("cold", "warm"):
                    ctx = AnalyticsContext(paper_cluster(), conf)
                    try:
                        value = workload.run(ctx).value
                    finally:
                        ctx.close()
                    facts = engine_facts(ctx)
                    facts["pruned"] = ctx.obs.metrics.counter_total(
                        "scan.partitions_pruned"
                    )
                    facts["hits"] = float(ctx.query_cache.hits)
                    facts["misses"] = float(ctx.query_cache.misses)
                    runs[(layout, phase)] = (value, facts)
        return runs

    def _check(self, runs) -> Outcome:
        errors = []
        for layout in self.layouts:
            cold, warm = runs[(layout, "cold")][0], runs[(layout, "warm")][0]
            if Counter(cold) != Counter(warm):
                errors.append(f"{layout}: warm rows differ from cold rows")
            if not rows_close(cold, self.expected[layout]):
                errors.append(f"{layout}: rows differ from the pure-Python reference")
        range_cold, range_warm = (runs[("range", p)][1] for p in ("cold", "warm"))
        hash_warm = runs[("hash", "warm")][1]
        if range_warm["pruned"] <= 0:
            errors.append("range-warm run pruned nothing")
        if hash_warm["pruned"] != 0:
            errors.append("hash-warm run pruned partitions")
        if range_warm["hits"] < 1 or hash_warm["hits"] < 1:
            errors.append("a warm run missed the result cache")
        facts = {
            key: sum(f[key] for _value, f in runs.values())
            for key in range_cold
        }
        facts["warm_speedup_range"] = range_cold["sim_s"] / range_warm["sim_s"]
        digest = digest_of([runs[key][0] for key in sorted(runs)])
        return _outcome(facts, digest, errors)


def sql_reference(bench: Bench, w: SQLWorkload) -> Tuple[List[Tuple], float]:
    """The workload's query in plain Python over the generated tables."""
    gen = SQLTableGen(
        virtual_bytes=w.virtual_bytes(), physical_records=w.physical_records,
        n_customers=w.n_customers, n_regions=w.n_regions, seed=w.seed,
        orders_layout=w.orders_layout,
    )
    orders, cold_s = bench._cold_scan(
        lambda ctx: gen.orders_rdd(ctx, ctx.default_parallelism)
    )
    customers, _ = bench._cold_scan(
        lambda ctx: gen.customers_rdd(ctx, ctx.default_parallelism)
    )
    region_of = dict(customers)
    revenue: Dict[str, float] = {}
    for order_id, cust_id, _product, amount in orders:
        if w.max_order is None or order_id < w.max_order:
            region = region_of[cust_id]
            revenue[region] = revenue.get(region, 0.0) + amount
    return sorted(revenue.items()), cold_s


class ChopperTune(Bench):
    """The paper's user journey: profile, train, optimize, compare."""

    name = "chopper_tune"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        sizes = dict(self.sizes["chopper_tune"])
        self.p_grid = sizes.pop("p_grid")
        self.scales = sizes.pop("scales")
        self.workload = SQLWorkload(virtual_gb=34.5, seed=seed, **sizes)
        self.profile_runs = len(self.scales) * (1 + len(KINDS) * len(self.p_grid))
        self.records = (self.profile_runs + 2) * (
            self.workload.physical_records + self.workload.n_customers
        )

    def setup(self) -> float:
        self.expected, cold_s = sql_reference(self, self.workload)
        return cold_s

    def warmup(self) -> Outcome:
        """The journey on a one-point grid: every code path once, at a
        fifth of the cost of a full iteration."""
        return self._check(self._run(self.p_grid[:1], self.scales[-1:]))

    def _run(self, p_grid=None, scales=None):
        p_grid, scales = p_grid or self.p_grid, scales or self.scales
        runner = ChopperRunner(self.workload, db=WorkloadDB())
        runs = runner.profile(p_grid=p_grid, kinds=KINDS, scales=scales, jobs=1)
        models = runner.train()
        config = runner.optimize()
        vanilla, chopper = runner.compare(jobs=1)
        for outcome in (vanilla, chopper):
            outcome.ctx.close()
        expected_runs = len(scales) * (1 + len(KINDS) * len(p_grid))
        return runner, runs, expected_runs, models, config, vanilla, chopper

    def _check(self, payload) -> Outcome:
        runner, runs, expected_runs, models, config, vanilla, chopper = payload
        errors = []
        if not rows_close(vanilla.result.value, self.expected):
            errors.append("vanilla rows differ from the pure-Python reference")
        if not rows_close(vanilla.result.value, chopper.result.value):
            errors.append("CHOPPER rows differ from vanilla rows")
        if runs != expected_runs:
            errors.append(f"{runs} profile runs, expected {expected_runs}")
        default = EngineConf().default_parallelism
        tuned = [
            e for e in config.entries.values()
            if (e.scheme.kind, e.scheme.num_partitions) != ("hash", default)
        ]
        if not tuned and expected_runs == self.profile_runs:  # full grid only
            errors.append("every chosen scheme is the vanilla default")
        profiled = runner.db.observations(self.workload.name)
        facts = {
            "sim_s": sum(o.duration for o in profiled)
            + vanilla.total_time + chopper.total_time,
            "shuffle_bytes": sum(o.shuffle_bytes for o in profiled)
            + vanilla.total_shuffle_bytes + chopper.total_shuffle_bytes,
            "runs": float(runs), "models": float(models),
            "tuned_schemes": float(len(tuned)),
            "improvement_pct": improvement(vanilla, chopper) * 100.0,
        }
        digest = digest_of(vanilla.result.value, chopper.result.value, config.to_json())
        return _outcome(facts, digest, errors)


BENCHES = {
    cls.name: cls
    for cls in (WordCountShuffle, KMeansIter, KMeansSpill, SqlRepeated, ChopperTune)
}
