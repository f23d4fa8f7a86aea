"""Synthetic data generators (the SparkBench data-generator stand-ins).

Each generator produces a deterministic *physical* sample — a pure
function of the global record index, organized in fixed micro-blocks —
and declares the *virtual* byte size it represents. The returned
``size_scale`` converts physical record bytes into virtual bytes for the
cost model and shuffle accounting (see DESIGN.md's substitution table).

Because records are generated per micro-block of the global index space
(not per split), **the dataset is identical under any partition count** —
re-splitting a source (CHOPPER's stage-0 tuning) changes granularity,
never data. This is what lets the benchmark harness assert that vanilla
and CHOPPER runs compute identical answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from hashlib import blake2b
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro.common.errors import WorkloadError
from repro.common.rng import derive_seed, seeded_rng
from repro.common.sizing import estimate_size
from repro.engine.context import AnalyticsContext
from repro.engine.rdd import SourceRDD

BLOCK = 64  # records per generation micro-block

# Generated micro-blocks, keyed by (generator type, generator fields,
# stream label, block id). Blocks are pure functions of that key, and the
# engine re-materializes sources many times per run (and dozens of times
# per profiling sweep), so memoizing them trades memory for a large
# constant factor of generation work. An entry is either the block's
# record list, shared with every split that reads it (consumers must
# treat those records as immutable — every built-in workload does), or
# one numpy structured array (the SQL orders), from which ``_gather``
# mints fresh tuples for each split. ``SQLTableGen`` also keeps its
# customers' region names here, under the stream key without a block id.
_BLOCK_CACHE: Dict[tuple, Union[List, np.ndarray]] = {}


def clear_block_cache() -> None:
    """Drop memoized micro-blocks (isolation hook for benchmarks)."""
    _BLOCK_CACHE.clear()


def _check_zipf_a(zipf_a: float) -> None:
    """numpy's Zipf domain; an infinite exponent puts every draw on rank 1."""
    if not zipf_a > 1:
        raise WorkloadError(f"skew (Zipf exponent) must be > 1, got {zipf_a}")


def _check_count(name: str, value: int) -> None:
    """A record, key or category count: a positive ``int``, not a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise WorkloadError(f"{name} must be a positive int, got {value!r}")


@dataclass
class _GenBase:
    """Shared plumbing: micro-block generation and virtual byte accounting.

    ``parse_cost`` is the compute weight of the scan+parse step relative
    to an in-memory pass — text deserialization dominates load stages, as
    in the paper's stage 0.
    """

    virtual_bytes: float
    physical_records: int
    seed: int = 7
    parse_cost: float = 15.0

    def __post_init__(self) -> None:
        if not 0 < self.virtual_bytes < math.inf:
            raise WorkloadError(
                f"virtual_bytes must be positive and finite, got {self.virtual_bytes}"
            )
        _check_count("physical_records", self.physical_records)

    def _split_range(self, split: int, num_splits: int) -> Tuple[int, int]:
        n = self.physical_records
        return (split * n) // num_splits, ((split + 1) * n) // num_splits

    def _block_rng(self, label: str, block: int) -> np.random.Generator:
        return seeded_rng(derive_seed(self.seed, label, block))

    def _block_len(self, block: int) -> int:
        return min(BLOCK, self.physical_records - block * BLOCK)

    def _gather(
        self,
        split: int,
        num_splits: int,
        block_fn: Callable[[int], Union[List, np.ndarray]],
        label: str,
    ) -> List:
        """Records of one split, assembled from whole/partial micro-blocks.

        ``block_fn(b)`` must deterministically return block ``b``'s
        records (length ``_block_len(b)``), as a list or as a structured
        array whose rows become fresh tuples of Python scalars; ``label``
        names the stream (the same label passed to ``_block_rng``) so
        blocks can be memoized across materializations in ``_BLOCK_CACHE``.
        """
        start, end = self._split_range(split, num_splits)
        if end <= start:
            return []
        out: List = []
        key_base = self._content_key(label)
        first, last = start // BLOCK, (end - 1) // BLOCK
        for block in range(first, last + 1):
            key = key_base + (block,)
            records = _BLOCK_CACHE.get(key)
            if records is None:
                _BLOCK_CACHE[key] = records = block_fn(block)
            lo = max(start - block * BLOCK, 0)
            hi = min(end - block * BLOCK, len(records))
            rows = records[lo:hi]
            if isinstance(rows, np.ndarray):
                # Same tuples as rows.tolist(), ~20 % cheaper to mint.
                rows = zip(*[rows[name].tolist() for name in rows.dtype.names])
            out.extend(rows)
        return out

    def _size_scale(self, sample_record) -> float:
        per_record = estimate_size(sample_record)
        return self.virtual_bytes / (per_record * self.physical_records)

    def _content_key(self, label: str) -> tuple:
        """The fields one stream's records depend on, plus its label.

        virtual_bytes and parse_cost only rescale accounting, so e.g. a
        benchmark's tiny and full variants of the same stream share
        cached blocks. Read straight off the fields: every generator
        field is a scalar, so this equals ``astuple(self)[4:]`` without
        its deep copy.
        """
        return (
            (type(self).__name__, self.physical_records, self.seed)
            + tuple(getattr(self, f.name) for f in fields(self)[4:])
            + (label,)
        )

    def dataset_version(self, label: str) -> str:
        """Content version of one generated stream.

        Hashes exactly the fields record content depends on — the same
        key the block cache uses — so zone maps, in a context or in the
        cache file, are invalidated iff the data actually changes.
        """
        key = self._content_key(label)
        return blake2b(repr(key).encode("utf-8"), digest_size=8).hexdigest()


@dataclass
class KMeansDataGen(_GenBase):
    """Points drawn around ``n_clusters`` Gaussian centers in ``dim`` dims."""

    dim: int = 10
    n_clusters: int = 20
    spread: float = 0.5

    def centers(self) -> np.ndarray:
        rng = seeded_rng(derive_seed(self.seed, "kmeans-centers"))
        return rng.uniform(-10.0, 10.0, size=(self.n_clusters, self.dim))

    def rdd(self, ctx: AnalyticsContext, num_partitions: int) -> SourceRDD:
        centers = self.centers()

        def block(b: int) -> List[np.ndarray]:
            n = self._block_len(b)
            rng = self._block_rng("kmeans", b)
            assignments = rng.integers(0, self.n_clusters, size=n)
            noise = rng.normal(0.0, self.spread, size=(n, self.dim))
            return list(centers[assignments] + noise)

        scale = self._size_scale(np.zeros(self.dim))
        return ctx.source(
            lambda split, splits: self._gather(split, splits, block, "kmeans"),
            num_partitions, size_scale=scale, op_name="kmeans-points",
            cost=self.parse_cost,
        )


@dataclass
class PCADataGen(_GenBase):
    """Rows with correlated features (a few dominant principal directions)."""

    dim: int = 20
    intrinsic_dim: int = 4

    def _mixing(self) -> np.ndarray:
        rng = seeded_rng(derive_seed(self.seed, "pca-mixing"))
        return rng.normal(0.0, 1.0, size=(self.intrinsic_dim, self.dim))

    def rdd(self, ctx: AnalyticsContext, num_partitions: int) -> SourceRDD:
        mixing = self._mixing()

        def block(b: int) -> List[np.ndarray]:
            n = self._block_len(b)
            rng = self._block_rng("pca", b)
            latent = rng.normal(0.0, 1.0, size=(n, self.intrinsic_dim))
            noise = rng.normal(0.0, 0.05, size=(n, self.dim))
            return list(latent @ mixing + noise)

        scale = self._size_scale(np.zeros(self.dim))
        return ctx.source(
            lambda split, splits: self._gather(split, splits, block, "pca"),
            num_partitions, size_scale=scale, op_name="pca-rows",
            cost=self.parse_cost,
        )


@dataclass
class SQLTableGen(_GenBase):
    """Orders + customers tables with a Zipf-hot customer distribution.

    ``orders`` records: ``(order_id, cust_id, product_id, amount)``;
    ``customers`` records: ``(cust_id, region)``. The Zipf exponent makes
    a few customers account for most orders — the hot-key skew that makes
    partitioner choice matter (§III-B).

    ``orders_layout`` controls how order ids land in partitions — the
    range-vs-hash placement trade-off partition pruning makes visible:

    * ``"range"`` (default): ``order_id`` is the global record index, so
      each split holds one contiguous id range and its zone map is tight
      — an ``order_id < N`` filter prunes most splits.
    * ``"hash"``: ids are scrambled by a stable hash, every split spans
      nearly the full id space, and zone maps can prove nothing.
    """

    n_customers: int = 500
    n_products: int = 100
    n_regions: int = 8
    zipf_a: float = 1.4
    customers_fraction: float = 0.1  # share of virtual bytes in customers
    orders_layout: str = "range"

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("n_customers", "n_products", "n_regions"):
            _check_count(name, getattr(self, name))
        _check_zipf_a(self.zipf_a)
        if self.orders_layout not in ("range", "hash"):
            raise WorkloadError(
                f"orders_layout must be 'range' or 'hash', "
                f"got {self.orders_layout!r}"
            )

    def orders_rdd(self, ctx: AnalyticsContext, num_partitions: int) -> SourceRDD:
        from repro.engine.partitioner import stable_hash_many

        n_ids = self.physical_records
        scramble = self.orders_layout == "hash"
        # Every id is below one of these counts, so int32 holds it exactly.
        wide = max(n_ids, self.n_customers, self.n_products) > 2**31
        id_type = np.int64 if wide else np.int32
        row = np.dtype([
            ("order_id", id_type), ("cust_id", id_type),
            ("product_id", id_type), ("amount", np.float64),
        ])

        def block(b: int) -> np.ndarray:
            n = self._block_len(b)
            rng = self._block_rng("orders", b)
            rows = np.empty(n, row)
            rows["cust_id"] = (rng.zipf(self.zipf_a, size=n) - 1) % self.n_customers
            rows["product_id"] = rng.integers(0, self.n_products, size=n)
            rows["amount"] = np.round(rng.exponential(50.0, size=n), 2)
            ids = np.arange(b * BLOCK, b * BLOCK + n)
            rows["order_id"] = np.array(stable_hash_many(ids)) % n_ids if scramble else ids
            return rows

        scale = (
            self.virtual_bytes
            * (1.0 - self.customers_fraction)
            / (estimate_size((0, 0, 0, 0.0)) * self.physical_records)
        )
        return ctx.source(
            lambda split, splits: self._gather(split, splits, block, "orders"),
            num_partitions, size_scale=scale, op_name="orders",
            cost=self.parse_cost, version=self.dataset_version("orders"),
        )

    def _regions(self) -> List[str]:
        """Each customer's region name, drawn once per content key.

        Every customer keeps its own seeded draw, so the names do not
        depend on how the table is split.
        """
        key = self._content_key("customers")
        names = _BLOCK_CACHE.get(key)
        if names is None:
            region_seed = derive_seed(self.seed, "regions")
            _BLOCK_CACHE[key] = names = [
                f"region-{seeded_rng(derive_seed(region_seed, c)).integers(0, self.n_regions)}"
                for c in range(self.n_customers)
            ]
        return names

    def customers_rdd(self, ctx: AnalyticsContext, num_partitions: int) -> SourceRDD:
        n_customers = self.n_customers

        def generate(split: int, num_splits: int) -> List[Tuple]:
            start = (split * n_customers) // num_splits
            end = ((split + 1) * n_customers) // num_splits
            return list(zip(range(start, end), self._regions()[start:end]))

        scale = (
            self.virtual_bytes
            * self.customers_fraction
            / (estimate_size((0, "region-0")) * n_customers)
        )
        return ctx.source(
            generate, num_partitions, size_scale=scale, op_name="customers",
            cost=self.parse_cost, version=self.dataset_version("customers"),
        )


@dataclass
class TextDataGen(_GenBase):
    """Lines of words with a Zipf vocabulary (WordCount input)."""

    vocabulary: int = 2000
    words_per_line: int = 8
    # Zipf exponent of the word-frequency distribution. Values close to
    # 1 are near-uniform; larger values concentrate mass on the top
    # ranks (the `--skew` CLI knob, for exercising AQE skew handling).
    zipf_a: float = 1.3

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_zipf_a(self.zipf_a)

    def rdd(self, ctx: AnalyticsContext, num_partitions: int) -> SourceRDD:
        token = [f"w{w}" for w in range(self.vocabulary)].__getitem__

        def block(b: int) -> List[str]:
            n = self._block_len(b)
            rng = self._block_rng("text", b)
            ranks = (rng.zipf(self.zipf_a, size=(n, self.words_per_line)) - 1) % self.vocabulary
            return [" ".join(map(token, row)) for row in ranks.tolist()]

        sample = " ".join(["w1000"] * self.words_per_line)
        scale = self._size_scale(sample)
        return ctx.source(
            lambda split, splits: self._gather(split, splits, block, "text"),
            num_partitions, size_scale=scale, op_name="text-lines",
            cost=self.parse_cost,
        )
