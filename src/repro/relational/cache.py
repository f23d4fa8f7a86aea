"""Zone-map cache: every scanned split's column statistics, in one sqlite file.

One row per ``(table, version, num_partitions, split)`` holds that
split's ``{column: ColumnStats}`` as JSON. A later context loads the
rows of the table versions it filters into ``ctx.zone_maps``, so it
prunes any predicate, not only one seen before. ``to_dict`` widens a
bound JSON cannot hold to ``None``: a loaded map is stale-wide, never
narrow. Stats are a pure function of a split's records, so writers of
one row agree. Writes are ``BEGIN IMMEDIATE`` transactions; one kept
waiting past :data:`BUSY_TIMEOUT_S` fails with a one-line error instead
of dropping its rows. Nothing is evicted (``repro cache clear``).
"""

from __future__ import annotations

import json
import sqlite3
from typing import Dict, Iterable, List, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.engine.storage import ZoneMapStore
from repro.obs import Observability
from repro.relational.stats import ColumnStats

#: Seconds a connection waits on another process's lock before failing.
BUSY_TIMEOUT_S = 5.0

Key = Tuple[str, str, int]  # (table, version, num_partitions)
ZoneMap = Dict[str, ColumnStats]


class SQLiteCacheBackend:
    """The cache file: one zone-map row per scanned split."""

    name = "sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS zone_maps (
            table_name TEXT NOT NULL, version TEXT NOT NULL,
            num_partitions INTEGER NOT NULL, split INTEGER NOT NULL,
            stats TEXT NOT NULL,
            PRIMARY KEY (table_name, version, num_partitions, split))
    """

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            # Autocommit mode: transactions are opened explicitly below.
            self._conn = sqlite3.connect(
                path, timeout=BUSY_TIMEOUT_S, isolation_level=None
            )
            # Keep the rollback journal between commits (its header is
            # zeroed instead): no file create, sync and unlink per
            # transaction, which costs tens of ms where metadata
            # commits are slow, and no WAL checkpoint at close.
            self._conn.execute("PRAGMA journal_mode=PERSIST")
            # Pages are read once per context: cache 64 KiB, not 2 MiB.
            self._conn.execute("PRAGMA cache_size=-64")
            self._conn.execute(self._SCHEMA)
        except sqlite3.Error as exc:
            raise ConfigurationError(
                f"cannot open sqlite cache at {path!r}: {exc}"
            ) from exc

    def _write(self, sql: str, rows: Iterable[tuple]) -> int:
        """``sql`` over ``rows`` in one write-locked transaction."""
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                count = self._conn.executemany(sql, rows).rowcount
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        except sqlite3.Error as exc:
            raise ConfigurationError(
                f"cannot write sqlite cache at {self.path!r}: {exc}"
            ) from exc
        return count

    def _select(self, sql: str, args: tuple = ()) -> List[tuple]:
        try:
            return self._conn.execute(sql, args).fetchall()
        except sqlite3.Error as exc:
            raise ConfigurationError(
                f"cannot read sqlite cache at {self.path!r}: {exc}"
            ) from exc

    def read(self, key: Key) -> Dict[int, ZoneMap]:
        """The stored zone maps of one table version, by split."""
        rows = self._select(
            "SELECT split, stats FROM zone_maps"
            " WHERE (table_name, version, num_partitions) = (?, ?, ?)", key,
        )
        return {
            split: {c: ColumnStats.from_dict(d) for c, d in json.loads(text).items()}
            for split, text in rows
        }

    def write(self, rows: List[Tuple[Key, int, ZoneMap]]) -> None:
        # A generator: one row's JSON is alive at a time, not the file's.
        self._write("INSERT OR REPLACE INTO zone_maps VALUES (?, ?, ?, ?, ?)", (
            (*key, split, json.dumps({c: s.to_dict() for c, s in stats.items()}))
            for key, split, stats in rows
        ))

    def clear(self) -> int:
        return self._write("DELETE FROM zone_maps", [()])

    def coverage(self) -> List[dict]:
        """Per table version: splits covered of P, and the columns."""
        store = ZoneMapStore()
        for table, version, n, split, text in self._select(
            "SELECT * FROM zone_maps"
        ):
            store.put((table, version, n), split, json.loads(text))
        return store.summary()

    def close(self) -> None:
        self._conn.close()


class ResultCacheManager:
    """Loads (at plan time) and saves (at close) one context's zone maps."""

    def __init__(
        self, backend: SQLiteCacheBackend, zone_maps: ZoneMapStore,
        obs: Observability,
    ) -> None:
        self.backend = backend
        self.zone_maps = zone_maps
        self._obs = obs
        self._loaded: Dict[Key, Set[int]] = {}  # splits the file held
        self.hits = 0
        self.misses = 0

    def load(self, key: Key) -> bool:
        """Put the file's maps of ``key`` into the store, once, counting
        nothing (``explain``'s dry run). True if the file held any."""
        if key not in self._loaded:
            maps = self.backend.read(key)
            for split, stats in maps.items():
                if not self.zone_maps.has(key, split):
                    self.zone_maps.put(key, split, stats)
            self._loaded[key] = set(maps)
        return bool(self._loaded[key])

    def lookup(self, table: str, version: str, num_partitions: int) -> bool:
        """:meth:`load`, counted as a hit or a miss."""
        hit = self.load((table, version, num_partitions))
        self.hits += hit
        self.misses += not hit
        self._obs.event("result_cache_hit" if hit else "result_cache_miss")
        return hit

    def flush(self) -> int:
        """Write the splits the file did not hold; returns their count."""
        rows = [
            (key, split, stats)
            for key in self.zone_maps.tables()
            for split, stats in sorted(self.zone_maps.get(key).items())
            if split not in self._loaded.get(key, ())
        ]
        if rows:
            self.backend.write(rows)
        return len(rows)

    def stats(self) -> dict:
        return {"backend": self.backend.name, "hits": self.hits,
                "misses": self.misses, "tables": self.backend.coverage()}

    def close(self) -> None:
        self.backend.close()  # closing twice is a no-op
