"""Zone-map cache: round-trip, persistence, writers, busy timeout, errors."""

import os
import sqlite3
import subprocess
import sys

import pytest

from repro.common.errors import ConfigurationError
from repro.engine.storage import ZoneMapStore
from repro.obs import Observability
from repro.relational import cache, col, lit
from repro.relational.cache import ResultCacheManager, SQLiteCacheBackend
from repro.relational.stats import ColumnStats, can_match
from tests.test_cli import run_cli

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)
KEY = ("orders", "v1", 8)


def zone_map(lo):
    """The zone map of a split holding order ids lo..lo+99."""
    return {"order_id": ColumnStats(
        count=10, null_count=0, low=lo, high=lo + 99, distinct=10,
    )}


def backend(tmp_path):
    return SQLiteCacheBackend(str(tmp_path / "cache.sqlite"))


def manager(tmp_path):
    return ResultCacheManager(backend(tmp_path), ZoneMapStore(), Observability())


class TestBackendRoundTrip:
    def test_put_get(self, tmp_path):
        b = backend(tmp_path)
        b.write([(KEY, 0, zone_map(0)), (KEY, 2, zone_map(200))])
        assert b.read(KEY) == {0: zone_map(0), 2: zone_map(200)}
        b.close()

    def test_get_missing(self, tmp_path):
        b = backend(tmp_path)
        assert b.read(KEY) == {}
        b.close()

    def test_clear(self, tmp_path):
        b = backend(tmp_path)
        b.write([(KEY, 0, zone_map(0)), (("other", "v1", 2), 1, zone_map(5))])
        assert b.clear() == 2
        assert b.coverage() == []
        b.close()

    def test_empty_partition_set(self, tmp_path):
        # A split with no rows round-trips, and still proves emptiness.
        b = backend(tmp_path)
        empty = {"order_id": ColumnStats(count=0, null_count=0)}
        b.write([(KEY, 3, empty)])
        loaded = b.read(KEY)[3]
        assert loaded == empty
        assert not can_match(col("order_id") < lit(100), loaded)
        b.close()

    def test_wide_partition_set(self, tmp_path):
        b = backend(tmp_path)
        key = ("orders", "v1", 300)
        b.write([(key, s, zone_map(100 * s)) for s in range(300)])
        assert b.read(key) == {s: zone_map(100 * s) for s in range(300)}
        assert b.coverage() == [{
            "table": "orders", "version": "v1", "num_partitions": 300,
            "splits_covered": 300, "columns": ["order_id"],
        }]
        b.close()


class TestPersistence:
    def test_survives_reopen(self, tmp_path):
        b = backend(tmp_path)
        b.write([(KEY, 0, zone_map(0))])
        b.close()
        reopened = backend(tmp_path)
        assert reopened.read(KEY) == {0: zone_map(0)}
        reopened.close()

    def test_same_operations_give_same_entries(self, tmp_path):
        # No wall clock anywhere: two files fed the same operations hold
        # identical rows.
        dumps = []
        for name in ("one", "two"):
            b = SQLiteCacheBackend(str(tmp_path / name))
            b.write([(KEY, 0, zone_map(0))])
            b.read(KEY)
            b.write([(KEY, 0, zone_map(0)), (KEY, 1, zone_map(100))])
            dumps.append(b._select("SELECT * FROM zone_maps ORDER BY split"))
            b.close()
        assert dumps[0] == dumps[1]

    def test_journal_file_is_kept_between_commits(self, tmp_path):
        # One journal file, reused: a commit neither creates nor deletes
        # it, so no commit pays a file-metadata update.
        b = backend(tmp_path)
        journal = tmp_path / "cache.sqlite-journal"
        b.write([(KEY, 0, zone_map(0))])
        inode = journal.stat().st_ino
        b.write([(KEY, 1, zone_map(100))])
        assert journal.stat().st_ino == inode
        b.close()
        reopened = backend(tmp_path)
        assert set(reopened.read(KEY)) == {0, 1}
        reopened.close()

    def test_not_a_database_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a cache file, and long enough to be read")
        with pytest.raises(ConfigurationError, match="cannot open sqlite cache"):
            SQLiteCacheBackend(str(path))

    def test_unopenable_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot open sqlite cache"):
            SQLiteCacheBackend(str(tmp_path / "no" / "such" / "dir" / "c.db"))


class TestBusyTimeout:
    def test_blocked_writer_fails_in_one_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "BUSY_TIMEOUT_S", 0.05)
        b = backend(tmp_path)
        holder = sqlite3.connect(str(tmp_path / "cache.sqlite"),
                                 isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        with pytest.raises(ConfigurationError) as info:
            b.write([(KEY, 0, zone_map(0))])
        assert "cannot write sqlite cache" in str(info.value)
        assert "locked" in str(info.value)
        assert "\n" not in str(info.value)
        holder.execute("ROLLBACK")
        holder.close()
        b.write([(KEY, 0, zone_map(0))])  # the lock is gone: it lands
        assert b.read(KEY) == {0: zone_map(0)}
        b.close()

    def test_blocked_cli_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "BUSY_TIMEOUT_S", 0.05)
        path = str(tmp_path / "cache.sqlite")
        backend(tmp_path).close()
        holder = sqlite3.connect(path, isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        code, _, err = run_cli("cache", "clear", path)
        holder.execute("ROLLBACK")
        holder.close()
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


WRITER = """
import os, sys, time
sys.path.insert(0, {src!r})
from repro.relational.cache import SQLiteCacheBackend
from repro.relational.stats import ColumnStats

backend = SQLiteCacheBackend({path!r})
print("ready", flush=True)
while not os.path.exists({path!r} + ".go"):  # start together
    time.sleep(0.001)
key = ("t" + sys.argv[1], "v1", {per_writer})
for i in range({per_writer}):
    stats = {{"id": ColumnStats(count=1, null_count=0, low=i, high=i)}}
    backend.write([(key, i, stats)])
    assert backend.read(key)[i] == stats
backend.close()
"""


class TestConcurrentWriters:
    """Writes are row-targeted: no writer replays a stale snapshot."""

    def test_interleaved_puts_both_survive(self, tmp_path):
        ours, theirs = backend(tmp_path), backend(tmp_path)
        assert ours.read(KEY) == {}  # A reads...
        theirs.write([(KEY, 2, zone_map(200))])  # ...B writes split 2...
        ours.write([(KEY, 1, zone_map(100))])  # ...A writes 1: 2 survives
        assert set(ours.read(KEY)) == {1, 2}
        assert set(theirs.read(KEY)) == {1, 2}
        ours.close()
        theirs.close()

    def test_touch_leaves_other_rows_alone(self, tmp_path):
        ours, theirs = backend(tmp_path), backend(tmp_path)
        ours.write([(KEY, 0, zone_map(0))])
        theirs.write([(KEY, 1, zone_map(100))])
        ours.write([(KEY, 0, zone_map(0))])  # rewriting a row it owns
        assert theirs.read(KEY) == {0: zone_map(0), 1: zone_map(100)}
        ours.close()
        theirs.close()

    def test_four_processes_lose_no_entry(self, tmp_path):
        """More writers than cores, interleaving writes and reads on one
        file: every map row of every writer is there afterwards."""
        path = str(tmp_path / "shared.sqlite")
        per_writer = 60
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
        for w in range(4):
            found = b.read((f"t{w}", "v1", per_writer))
            assert sorted(found) == list(range(per_writer))
            assert all(found[i]["id"].low == i for i in found)
        assert len(b.coverage()) == 4
        b.close()


class TestResultCacheManager:
    def predicate(self):
        return col("order_id") < lit(100)

    def test_miss_then_flush_then_hit(self, tmp_path):
        cold = manager(tmp_path)
        assert cold.lookup(*KEY) is False
        assert cold.misses == 1
        for split in range(8):
            cold.zone_maps.put(KEY, split, zone_map(100 * split))
        assert cold.flush() == 8
        cold.close()

        # A later context, another predicate: pruned from the file alone.
        warm = manager(tmp_path)
        assert warm.lookup(*KEY) is True
        assert warm.hits == 1
        maps = warm.zone_maps.get(KEY)
        assert {s for s in maps if can_match(self.predicate(), maps[s])} == {0}
        assert {
            s for s in maps if can_match(col("order_id") <= lit(250), maps[s])
        } == {0, 1, 2}
        assert warm.flush() == 0  # loaded splits are not written back
        warm.close()

    def test_flush_skips_unexecuted_scans(self, tmp_path):
        m = manager(tmp_path)
        m.lookup(*KEY)
        # No zone maps collected (e.g. `repro explain`): nothing written.
        assert m.flush() == 0
        assert m.backend.coverage() == []
        m.close()

    def test_version_mismatch_is_a_miss(self, tmp_path):
        m = manager(tmp_path)
        m.backend.write([(("orders", "OLD", 8), 0, zone_map(0))])
        assert m.lookup(*KEY) is False
        assert m.misses == 1
        assert m.zone_maps.get(KEY) == {}
        m.close()

    def test_stats_shape(self, tmp_path):
        m = manager(tmp_path)
        s = m.stats()
        assert s["backend"] == "sqlite"
        assert {"hits", "misses", "tables"} <= set(s)
        m.close()
