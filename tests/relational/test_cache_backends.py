"""Result-cache backend: round-trip, eviction, persistence, writers, errors."""

import os
import subprocess
import sys

import pytest

from repro.common.errors import ConfigurationError
from repro.relational import cache, col, lit
from repro.relational.cache import (
    CacheEntry,
    ResultCacheManager,
    SQLiteCacheBackend,
    query_signature,
)

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


def entry(key="k1", partitions=(0, 2, 5), n=8, **kwargs):
    return CacheEntry(
        key=key, table="orders", version="v1", num_partitions=n,
        partitions=tuple(partitions), **kwargs,
    )


def backend(tmp_path):
    return SQLiteCacheBackend(str(tmp_path / "cache.sqlite"))


class TestQuerySignature:
    def test_deterministic(self):
        a = query_signature("plan", "orders", "v1", 8, col("x") < lit(5))
        b = query_signature("plan", "orders", "v1", 8, col("x") < lit(5))
        assert a == b

    def test_sensitive_to_every_component(self):
        base = query_signature("plan", "orders", "v1", 8, col("x") < lit(5))
        assert base != query_signature("plan2", "orders", "v1", 8, col("x") < lit(5))
        assert base != query_signature("plan", "other", "v1", 8, col("x") < lit(5))
        assert base != query_signature("plan", "orders", "v2", 8, col("x") < lit(5))
        assert base != query_signature("plan", "orders", "v1", 9, col("x") < lit(5))
        # Predicate constants are part of the variant.
        assert base != query_signature("plan", "orders", "v1", 8, col("x") < lit(6))


class TestBackendRoundTrip:
    def test_put_get(self, tmp_path):
        b = backend(tmp_path)
        b.put(entry())
        got = b.get("k1")
        assert got is not None
        assert got.partitions == (0, 2, 5)
        assert got.table == "orders"
        assert got.hits == 1  # get() counts the hit
        b.close()

    def test_get_missing(self, tmp_path):
        b = backend(tmp_path)
        assert b.get("nope") is None
        b.close()

    def test_clear(self, tmp_path):
        b = backend(tmp_path)
        b.put(entry("a"))
        b.put(entry("b"))
        assert b.clear() == 2
        assert b.entries() == []
        b.close()

    def test_lru_eviction(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "MAX_ENTRIES", 2)
        b = backend(tmp_path)
        b.put(entry("a"))
        b.put(entry("b"))
        b.get("a")  # refresh a; b becomes LRU
        b.put(entry("c"))
        assert {e.key for e in b.entries()} == {"a", "c"}
        b.close()

    def test_empty_partition_set(self, tmp_path):
        b = backend(tmp_path)
        b.put(entry("e", partitions=()))
        got = b.get("e")
        assert got is not None and got.partitions == ()
        b.close()

    def test_wide_partition_set(self, tmp_path):
        b = backend(tmp_path)
        parts = tuple(range(0, 300, 7))
        b.put(entry("wide", partitions=parts, n=300))
        assert b.get("wide").partitions == parts
        b.close()

    def test_peek_is_read_only(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "MAX_ENTRIES", 2)
        b = backend(tmp_path)
        b.put(entry("a"))
        b.put(entry("b"))
        got = b.peek("a")
        assert got is not None and got.partitions == (0, 2, 5)
        assert got.hits == 0  # no hit counted
        assert b.peek("nope") is None
        # Unlike get(), peek must not refresh recency: "a" stays LRU
        # and is the one evicted by the next put.
        b.put(entry("c"))
        assert {e.key for e in b.entries()} == {"b", "c"}
        b.close()


class TestPersistence:
    def test_survives_reopen(self, tmp_path):
        b = backend(tmp_path)
        b.put(entry("a"))
        b.close()
        reopened = backend(tmp_path)
        got = reopened.get("a")
        assert got is not None and got.partitions == (0, 2, 5)
        reopened.close()

    def test_recency_is_coherent_across_reopen(self, tmp_path, monkeypatch):
        # The logical tick resumes from the file, not from zero: an
        # entry written after a reopen is newer than everything before.
        monkeypatch.setattr(cache, "MAX_ENTRIES", 2)
        b = backend(tmp_path)
        b.put(entry("a"))
        b.put(entry("b"))
        b.close()
        reopened = backend(tmp_path)
        reopened.put(entry("c"))
        assert {e.key for e in reopened.entries()} == {"b", "c"}
        reopened.close()

    def test_same_operations_give_same_entries(self, tmp_path):
        # No wall clock anywhere: two files fed the same operations hold
        # identical rows (timestamps included).
        dumps = []
        for name in ("one", "two"):
            b = SQLiteCacheBackend(str(tmp_path / name))
            b.put(entry("a"))
            b.get("a")
            b.put(entry("b"))
            dumps.append([e.to_dict() for e in b.entries()])
            b.close()
        assert dumps[0] == dumps[1]

    def test_journal_file_is_kept_between_commits(self, tmp_path):
        # One journal file, reused: a commit neither creates nor deletes
        # it, so no commit pays a file-metadata update.
        b = backend(tmp_path)
        journal = tmp_path / "cache.sqlite-journal"
        b.put(entry("a"))
        inode = journal.stat().st_ino
        b.put(entry("b"))
        assert journal.stat().st_ino == inode
        b.close()
        reopened = backend(tmp_path)
        assert {e.key for e in reopened.entries()} == {"a", "b"}
        reopened.close()

    def test_not_a_database_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a cache file, and long enough to be read")
        with pytest.raises(ConfigurationError, match="cannot open sqlite cache"):
            SQLiteCacheBackend(str(path))

    def test_unopenable_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot open sqlite cache"):
            SQLiteCacheBackend(str(tmp_path / "no" / "such" / "dir" / "c.db"))


WRITER = """
import os, sys, time
sys.path.insert(0, {src!r})
from repro.relational.cache import CacheEntry, SQLiteCacheBackend

backend = SQLiteCacheBackend({path!r})
print("ready", flush=True)
while not os.path.exists({path!r} + ".go"):  # start together
    time.sleep(0.001)
for i in range({per_writer}):
    key = "w{{}}-{{}}".format(sys.argv[1], i)
    backend.put(CacheEntry(key=key, table="orders", version="v1",
                           num_partitions=8, partitions=(i % 8,)))
    assert backend.get(key) is not None
backend.close()
"""


class TestConcurrentWriters:
    """Writes are row-targeted: no writer replays a stale snapshot."""

    def test_interleaved_puts_both_survive(self, tmp_path):
        ours, theirs = backend(tmp_path), backend(tmp_path)
        assert ours.entries() == []  # A reads...
        theirs.put(entry("k2"))  # ...B writes k2...
        ours.put(entry("k1"))  # ...A writes k1: k2 must survive
        assert {e.key for e in ours.entries()} == {"k1", "k2"}
        assert {e.key for e in theirs.entries()} == {"k1", "k2"}
        ours.close()
        theirs.close()

    def test_touch_leaves_other_rows_alone(self, tmp_path):
        ours, theirs = backend(tmp_path), backend(tmp_path)
        ours.put(entry("a"))
        theirs.put(entry("b"))
        assert ours.get("a").hits == 1
        assert {e.key for e in theirs.entries()} == {"a", "b"}
        ours.close()
        theirs.close()

    def test_four_processes_lose_no_entry(self, tmp_path):
        """More writers than cores, interleaving puts and gets on one
        file: every entry of every writer is there afterwards."""
        path = str(tmp_path / "shared.sqlite")
        per_writer = 60  # 240 entries in all: under MAX_ENTRIES
        script = WRITER.format(src=SRC, path=path, per_writer=per_writer)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(w)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for w in range(4)
        ]
        for proc in procs:
            assert proc.stdout.readline() == b"ready\n"
        open(path + ".go", "w").close()
        for proc in procs:
            _out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        b = SQLiteCacheBackend(path)
        found = b.entries()
        b.close()
        assert {e.key for e in found} == {
            f"w{w}-{i}" for w in range(4) for i in range(per_writer)
        }
        assert all(e.hits == 1 for e in found)


class TestResultCacheManager:
    def predicate(self):
        return col("order_id") < lit(100)

    def test_miss_then_flush_then_hit(self, tmp_path):
        from repro.engine.storage import ZoneMapStore
        from repro.relational.stats import ColumnStats

        manager = ResultCacheManager(backend(tmp_path))
        pred = self.predicate()
        key = query_signature("p", "orders", "v1", 4, pred)
        assert manager.lookup(key, "orders", "v1", 4, pred) is None
        assert manager.misses == 1

        store = ZoneMapStore()
        for split in range(4):
            lo = split * 100
            store.put(
                ("orders", "v1", 4), split,
                {"order_id": ColumnStats(
                    count=10, null_count=0, low=lo, high=lo + 99, distinct=10,
                )},
            )
        assert manager.flush(store) == 1
        got = manager.lookup(key, "orders", "v1", 4, pred)
        assert got == {0}
        assert manager.hits == 1

    def test_flush_skips_unexecuted_scans(self, tmp_path):
        from repro.engine.storage import ZoneMapStore

        manager = ResultCacheManager(backend(tmp_path))
        pred = self.predicate()
        key = query_signature("p", "orders", "v1", 4, pred)
        manager.lookup(key, "orders", "v1", 4, pred)
        # No zone maps collected (e.g. `repro explain`): nothing written.
        assert manager.flush(ZoneMapStore()) == 0

    def test_version_mismatch_is_a_miss(self, tmp_path):
        manager = ResultCacheManager(backend(tmp_path))
        pred = self.predicate()
        key = query_signature("p", "orders", "v1", 4, pred)
        manager.backend.put(
            CacheEntry(key=key, table="orders", version="OLD",
                       num_partitions=4, partitions=(0,))
        )
        assert manager.lookup(key, "orders", "v1", 4, pred) is None
        assert manager.misses == 1

    def test_stats_shape(self, tmp_path):
        manager = ResultCacheManager(backend(tmp_path))
        s = manager.stats()
        assert s["backend"] == "sqlite"
        assert {"hits", "misses", "pending", "entries"} <= set(s)
