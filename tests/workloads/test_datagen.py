"""Tests for the synthetic data generators."""

import dataclasses
from hashlib import blake2b

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import WorkloadError
from repro.common.rng import derive_seed, seeded_rng
from repro.common.units import GB
from repro.engine.partitioner import stable_hash
from repro.workloads import datagen
from repro.workloads.datagen import (
    BLOCK,
    EdgeDataGen,
    KMeansDataGen,
    LabeledDataGen,
    PCADataGen,
    SQLTableGen,
    TextDataGen,
)


def collect_all(ctx, rdd):
    return rdd.collect()


class TestInvariantsAcrossSplits:
    """The dataset must be identical under any partition count."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40))
    def test_kmeans_points_split_invariant(self, n_a, n_b):
        gen = KMeansDataGen(virtual_bytes=1e9, physical_records=200, dim=3)

        def dataset(n_splits):
            rows = []
            for split in range(n_splits):
                rows.extend(
                    tuple(v) for v in gen._gather(
                        split, n_splits, self._kmeans_block(gen), "kmeans"
                    )
                )
            return rows

        assert dataset(n_a) == dataset(n_b)

    @staticmethod
    def _kmeans_block(gen):
        centers = gen.centers()

        def block(b):
            n = gen._block_len(b)
            rng = gen._block_rng("kmeans", b)
            assignments = rng.integers(0, gen.n_clusters, size=n)
            noise = rng.normal(0.0, gen.spread, size=(n, gen.dim))
            return list(centers[assignments] + noise)

        return block

    def test_rdd_content_stable_under_resplit(self, ctx):
        gen = KMeansDataGen(virtual_bytes=1e9, physical_records=300, dim=4)
        rdd = gen.rdd(ctx, 4)
        before = sorted(tuple(v) for v in rdd.collect())
        rdd.set_num_partitions(11)
        after = sorted(tuple(v) for v in rdd.collect())
        assert before == after


class TestKMeansGen:
    def test_record_count_and_shape(self, ctx):
        gen = KMeansDataGen(virtual_bytes=1e9, physical_records=500, dim=7)
        points = gen.rdd(ctx, 5).collect()
        assert len(points) == 500
        assert all(p.shape == (7,) for p in points)

    def test_virtual_size_scales(self, ctx):
        gen = KMeansDataGen(virtual_bytes=10 * GB, physical_records=500)
        rdd = gen.rdd(ctx, 5)
        rdd.count()
        stage = ctx.job_stats[-1].stages[0]
        assert stage.input_bytes == pytest.approx(10 * GB, rel=0.25)

    def test_deterministic(self, ctx):
        gen = KMeansDataGen(virtual_bytes=1e9, physical_records=100, seed=5)
        a = gen.rdd(ctx, 3).collect()
        b = gen.rdd(ctx, 3).collect()
        assert all((x == y).all() for x, y in zip(a, b))

    def test_validation(self):
        with pytest.raises(WorkloadError):
            KMeansDataGen(virtual_bytes=0.0, physical_records=10)
        with pytest.raises(WorkloadError):
            KMeansDataGen(virtual_bytes=1e9, physical_records=0)

    @pytest.mark.parametrize("records", [float("nan"), 2.5, True, -1])
    def test_physical_records_must_be_a_positive_int(self, records):
        with pytest.raises(WorkloadError, match="physical_records"):
            KMeansDataGen(virtual_bytes=1e9, physical_records=records)


class TestSQLGen:
    def test_orders_schema(self, ctx):
        gen = SQLTableGen(virtual_bytes=1e9, physical_records=400)
        orders = gen.orders_rdd(ctx, 4).collect()
        assert len(orders) == 400
        order_ids = [o[0] for o in orders]
        assert len(set(order_ids)) == 400  # unique order ids
        assert all(0 <= o[1] < gen.n_customers for o in orders)
        assert all(o[3] >= 0 for o in orders)

    def test_customer_keys_are_hot(self, ctx):
        """Zipf skew: the most common customer dominates."""
        gen = SQLTableGen(virtual_bytes=1e9, physical_records=2000)
        orders = gen.orders_rdd(ctx, 4).collect()
        counts = {}
        for o in orders:
            counts[o[1]] = counts.get(o[1], 0) + 1
        top = max(counts.values())
        assert top > 5 * (len(orders) / gen.n_customers)

    @pytest.mark.parametrize("field, value", [
        ("n_customers", -3), ("n_customers", 0), ("n_products", 0),
        ("n_regions", 0), ("n_customers", 2.5), ("n_regions", True),
    ])
    def test_counts_must_be_positive_ints(self, field, value):
        with pytest.raises(WorkloadError, match=field):
            SQLTableGen(virtual_bytes=1e9, physical_records=400, **{field: value})

    def test_customers_one_record_per_id(self, ctx):
        gen = SQLTableGen(virtual_bytes=1e9, physical_records=400, n_customers=97)
        customers = gen.customers_rdd(ctx, 10).collect()
        assert sorted(c[0] for c in customers) == list(range(97))

    def test_customer_regions_split_invariant(self, ctx):
        gen = SQLTableGen(virtual_bytes=1e9, physical_records=400, n_customers=50)
        a = dict(gen.customers_rdd(ctx, 3).collect())
        b = dict(gen.customers_rdd(ctx, 7).collect())
        assert a == b


class TestSQLRecordsPinned:
    """Orders and customers records, by value and by Python type, equal
    the per-record formulas of the original generator: the first, a
    middle and the partial last block (777 = 12 * 64 + 9), cold and
    memoized, at every split count, under unchanged dataset versions."""

    N = 777
    VERSIONS = {  # (seed, layout) -> (orders, customers) dataset_version
        (7, "range"): ("10576eb70ac1c614", "775cff31b297843d"),
        (7, "hash"): ("f6e2ad7c36a83b2a", "02407b1191b89f07"),
        (11, "range"): ("86005a43ad2929b1", "2997eb7f176fd9c6"),
        (11, "hash"): ("6e397db176808e3c", "4865b02106de1d8c"),
    }
    ENDS = {  # seed -> first/last order without its id, first/last region
        7: ((0, 81, 83.05), (0, 89, 146.68), "region-5", "region-2"),
        11: ((9, 96, 49.92), (0, 96, 132.08), "region-6", "region-3"),
    }

    @staticmethod
    def expected_orders(gen, b):
        n = gen._block_len(b)
        rng = gen._block_rng("orders", b)
        cust = (rng.zipf(gen.zipf_a, size=n) - 1) % gen.n_customers
        prod = rng.integers(0, gen.n_products, size=n)
        amount = np.round(rng.exponential(50.0, size=n), 2)
        ids = [b * BLOCK + i for i in range(n)]
        if gen.orders_layout == "hash":
            ids = [stable_hash(i) % gen.physical_records for i in ids]
        return [
            (ids[i], int(cust[i]), int(prod[i]), float(amount[i]))
            for i in range(n)
        ]

    @staticmethod
    def expected_customers(gen):
        region_seed = derive_seed(gen.seed, "regions")
        regions = [
            seeded_rng(derive_seed(region_seed, c)).integers(0, gen.n_regions)
            for c in range(gen.n_customers)
        ]
        return [(c, f"region-{int(r)}") for c, r in enumerate(regions)]

    @pytest.mark.parametrize("layout", ["range", "hash"])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_records_equal_per_record_formulas(self, ctx, seed, layout):
        gen = SQLTableGen(
            virtual_bytes=1e9, physical_records=self.N, seed=seed,
            orders_layout=layout,
        )
        datagen.clear_block_cache()
        customers = self.expected_customers(gen)
        for p in (1, 7, 300):  # P = 1 fills the memo, 7 and 300 read it
            orders_rdd = gen.orders_rdd(ctx, p)
            customers_rdd = gen.customers_rdd(ctx, p)
            orders = [r for s in range(p) for r in orders_rdd._generator(s, p)]
            assert len(orders) == self.N
            assert {tuple(map(type, r)) for r in orders} == {(int, int, int, float)}
            for b in (0, 6, 12):
                n = gen._block_len(b)
                assert orders[b * BLOCK:b * BLOCK + n] == self.expected_orders(gen, b)
            got = [r for s in range(p) for r in customers_rdd._generator(s, p)]
            assert got == customers
            assert {tuple(map(type, r)) for r in got} == {(int, str)}
            assert (orders_rdd.dataset_version, customers_rdd.dataset_version) == (
                self.VERSIONS[seed, layout]
            )
        first, last, region_first, region_last = self.ENDS[seed]
        assert (orders[0][1:], orders[-1][1:]) == (first, last)
        assert (orders[0][0], orders[-1][0]) == (
            (0, 776) if layout == "range" else (247, 159)
        )
        assert (customers[0][1], customers[-1][1]) == (region_first, region_last)


class TestSourceMemo:
    """What the SQL generator keeps between scans, measured without RSS."""

    def test_orders_memo_is_one_narrow_array_per_block(self, ctx):
        gen = SQLTableGen(virtual_bytes=1e9, physical_records=30_000)
        datagen.clear_block_cache()
        rdd = gen.orders_rdd(ctx, 7)
        assert sum(len(rdd._generator(s, 7)) for s in range(7)) == 30_000
        stream = gen._content_key("orders")
        memo = [v for k, v in datagen._BLOCK_CACHE.items() if k[:-1] == stream]
        assert len(memo) == -(-30_000 // BLOCK)
        assert all(isinstance(block, np.ndarray) for block in memo)
        assert sum(block.nbytes for block in memo) <= 32 * 30_000

    def test_second_scan_draws_nothing_and_clear_drops_both_memos(
        self, ctx, monkeypatch
    ):
        draws = []

        def counting_rng(seed):
            draws.append(seed)
            return seeded_rng(seed)

        monkeypatch.setattr(datagen, "seeded_rng", counting_rng)
        gen = SQLTableGen(virtual_bytes=1e9, physical_records=300)

        def scan():
            for rdd in (gen.orders_rdd(ctx, 3), gen.customers_rdd(ctx, 3)):
                for s in range(3):
                    rdd._generator(s, 3)
            return len(draws)

        datagen.clear_block_cache()
        cold = scan()  # 5 order blocks + 500 customers
        assert cold == 5 + gen.n_customers
        assert scan() == cold
        datagen.clear_block_cache()
        assert not datagen._BLOCK_CACHE
        assert scan() == 2 * cold


class TestOtherGens:
    def test_pca_rows(self, ctx):
        gen = PCADataGen(virtual_bytes=1e9, physical_records=300, dim=6)
        rows = gen.rdd(ctx, 4).collect()
        assert len(rows) == 300
        data = np.array(rows)
        # Correlated features: top singular values dominate.
        s = np.linalg.svd(data - data.mean(axis=0), compute_uv=False)
        assert s[0] > 3 * s[gen.intrinsic_dim]

    def test_text_lines(self, ctx):
        gen = TextDataGen(virtual_bytes=1e9, physical_records=200)
        lines = gen.rdd(ctx, 4).collect()
        assert len(lines) == 200
        assert all(len(line.split()) == gen.words_per_line for line in lines)

    def test_text_blocks_equal_per_word_formatting(self, ctx):
        """The token table only saves the 8 f-strings per line: the first,
        a middle and the partial last block hold the lines that formatting
        each rank gives, under unchanged cache and dataset keys."""
        gen = TextDataGen(virtual_bytes=1e9, physical_records=200, seed=11)
        datagen.clear_block_cache()
        lines = gen.rdd(ctx, 4).collect()
        for b in (0, 1, 3):  # 200 = 3 * 64 + 8
            n = gen._block_len(b)
            ranks = gen._block_rng("text", b).zipf(
                gen.zipf_a, size=(n, gen.words_per_line)
            )
            expected = [
                " ".join(f"w{w}" for w in row) for row in (ranks - 1) % gen.vocabulary
            ]
            assert lines[b * BLOCK:b * BLOCK + n] == expected
            key = ("TextDataGen", 200, 11, 2000, 8, 1.3, "text", b)
            assert datagen._BLOCK_CACHE[key] == expected
        assert gen.dataset_version("text") == "a4eb1be936a69485"

    def test_edges(self, ctx):
        gen = EdgeDataGen(virtual_bytes=1e9, physical_records=500, n_vertices=50)
        edges = gen.rdd(ctx, 4).collect()
        assert all(0 <= s < 50 and 0 <= d < 50 and s != d for s, d in edges)


class TestContentKey:
    """One helper builds the block-cache key and the dataset version."""

    GENERATORS = [
        EdgeDataGen, KMeansDataGen, LabeledDataGen, PCADataGen, SQLTableGen,
        TextDataGen,
    ]

    def test_every_generator_is_covered(self):
        assert set(datagen._GenBase.__subclasses__()) == set(self.GENERATORS)

    @pytest.mark.parametrize("cls", GENERATORS, ids=lambda c: c.__name__)
    def test_key_unchanged(self, cls):
        """Equal to the deep-copying ``astuple`` key it replaced, for the
        defaults and with every content field moved off its default."""
        gens = [cls(virtual_bytes=1e9, physical_records=300, seed=3)]
        moved = {
            f.name: f.default * 2 if not isinstance(f.default, str) else "hash"
            for f in dataclasses.fields(cls)[4:]
        }
        gens.append(cls(virtual_bytes=2e9, physical_records=300, seed=3, **moved))
        for gen in gens:
            old = (
                (cls.__name__, gen.physical_records, gen.seed)
                + tuple(dataclasses.astuple(gen)[4:])
                + ("stream",)
            )
            assert gen._content_key("stream") == old
            assert gen.dataset_version("stream") == blake2b(
                repr(old).encode("utf-8"), digest_size=8
            ).hexdigest()
        assert gens[0]._content_key("s") != gens[1]._content_key("s")
