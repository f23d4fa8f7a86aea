"""Tests for the block store."""

import pytest

from repro.engine.storage import BlockStore


@pytest.fixture
def store():
    return BlockStore()


def test_put_get_roundtrip(store):
    store.put(1, 0, [1, 2], 100.0, "a")
    block = store.get(1, 0)
    assert block.records == [1, 2]
    assert block.node == "a"


def test_missing_returns_none(store):
    assert store.get(1, 0) is None
    assert store.location(1, 0) is None


def test_location(store):
    store.put(1, 3, [], 10.0, "b")
    assert store.location(1, 3) == "b"
    assert store.peek(1, 3) is not None


def test_node_bytes_accounting(store):
    store.put(1, 0, [], 100.0, "a")
    store.put(1, 1, [], 50.0, "a")
    store.put(2, 0, [], 25.0, "b")
    assert store._node_bytes.get("a", 0.0) == 150.0
    assert store._node_bytes.get("b", 0.0) == 25.0
    assert store.total_bytes() == 175.0


def test_overwrite_replaces_bytes(store):
    store.put(1, 0, [1], 100.0, "a")
    store.put(1, 0, [2], 60.0, "b")
    assert store._node_bytes.get("a", 0.0) == 0.0
    assert store._node_bytes.get("b", 0.0) == 60.0
    assert store.get(1, 0).records == [2]


def test_evict_rdd(store):
    store.put(1, 0, [], 10.0, "a")
    store.put(1, 1, [], 10.0, "a")
    store.put(2, 0, [], 10.0, "a")
    assert store.evict_rdd(1) == 2
    assert store.peek(1, 0) is None
    assert store.peek(2, 0) is not None
    assert store.total_bytes() == 10.0


def test_clear(store):
    store.put(1, 0, [], 10.0, "a")
    store.clear()
    assert store.total_bytes() == 0.0
    assert store.get(1, 0) is None


def test_total_bytes_exactly_zero_after_full_eviction(store):
    """No float drift residue once every block is gone (regression).

    Sizes chosen so naive subtraction leaves a tiny nonzero remainder.
    """
    sizes = [0.1, 0.2, 0.3, 1e9 + 0.7]
    for i, nbytes in enumerate(sizes):
        store.put(1, i, [], nbytes, "a")
    assert store.evict_rdd(1) == len(sizes)
    assert store.total_bytes() == 0.0
    assert store._node_bytes.get("a", 0.0) == 0.0


def test_evict_node(store):
    store.put(1, 0, [], 10.0, "a")
    store.put(1, 1, [], 10.0, "a")
    store.put(2, 0, [], 10.0, "b")
    assert store.evict_node("a") == 2
    assert store.peek(1, 0) is None
    assert store.peek(1, 1) is None
    assert store.peek(2, 0) is not None
    assert store._node_bytes.get("a", 0.0) == 0.0
    assert store.total_bytes() == 10.0
    assert store.evict_node("a") == 0
    assert store.evict_node("never-existed") == 0


class TestLruEviction:
    def capacity_store(self, cap=100.0):
        return BlockStore(capacity_for=lambda node: cap)

    def test_evicts_lru_when_full(self):
        store = self.capacity_store(100.0)
        store.put(1, 0, ["a"], 60.0, "n")
        store.put(1, 1, ["b"], 60.0, "n")  # evicts (1, 0)
        assert store.peek(1, 0) is None
        assert store.peek(1, 1) is not None
        assert store.evictions == 1
        assert store._node_bytes.get("n", 0.0) == 60.0

    def test_get_refreshes_recency(self):
        store = self.capacity_store(100.0)
        store.put(1, 0, ["a"], 40.0, "n")
        store.put(1, 1, ["b"], 40.0, "n")
        store.get(1, 0)  # touch: (1, 1) becomes LRU
        store.put(1, 2, ["c"], 40.0, "n")
        assert store.peek(1, 0) is not None
        assert store.peek(1, 1) is None

    def test_oversized_block_not_cached(self):
        store = self.capacity_store(100.0)
        assert store.put(1, 0, ["x"], 500.0, "n") is False
        assert store.peek(1, 0) is None
        assert store.evictions == 0

    def test_oversized_replacement_keeps_existing_block(self):
        """Regression: the capacity check must run before dropping the
        old copy — a rejected oversized replacement must not take the
        previously cached version down with it."""
        store = self.capacity_store(100.0)
        assert store.put(1, 0, ["small"], 40.0, "n") is True
        assert store.put(1, 0, ["huge"], 500.0, "n") is False
        block = store.get(1, 0)
        assert block is not None
        assert block.records == ["small"]
        assert store._node_bytes.get("n", 0.0) == 40.0
        assert store.evictions == 0

    def test_per_node_capacities_independent(self):
        store = self.capacity_store(100.0)
        store.put(1, 0, ["a"], 80.0, "a")
        store.put(1, 1, ["b"], 80.0, "b")
        assert store.peek(1, 0) is not None and store.peek(1, 1) is not None

    def test_unbounded_by_default(self):
        store = BlockStore()
        for i in range(10):
            store.put(1, i, [i], 1e12, "n")
        assert store.total_bytes() == 1e13

    def test_evicted_partition_recomputes(self, ctx):
        """End to end: a cache miss falls back to lineage recomputation."""
        from repro.cluster import uniform_cluster
        from repro.engine import AnalyticsContext, EngineConf
        from repro.common.units import GB

        tiny_cache = AnalyticsContext(
            uniform_cluster(n_workers=2, cores=2, memory=2 * GB,
                            executor_memory=200),
            EngineConf(default_parallelism=4),
        )
        rdd = tiny_cache.parallelize(list(range(4000)), 4).cache()
        assert rdd.count() == 4000
        # Nothing fits in the ~100-byte cache, yet results stay correct.
        assert rdd.count() == 4000
        assert tiny_cache.block_store.total_bytes() == 0.0
