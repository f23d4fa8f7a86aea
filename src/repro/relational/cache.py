"""Partition-pruning result cache: query signatures + one sqlite file.

The cache does *not* store query results — it stores something cheaper
and safer: for a given query variant, the set of partition IDs of a
versioned source table that can possibly contribute rows. A warm run
intersects the cached set into the scan before any task is scheduled;
a cold run records zone maps while scanning and derives the set at
context close.

Entries live in a stdlib :mod:`sqlite3` file, which is what lets a warm
run in a later process prune from an earlier run's zone maps. Every
write is row-targeted inside one ``BEGIN IMMEDIATE`` transaction, so
processes sharing a file never clobber each other's rows. Past
:data:`MAX_ENTRIES` the least-recently-used rows are deleted; recency is
a logical tick (``MAX(last_used) + 1``, taken inside the writing
transaction), so cache files never depend on the wall clock.

Keys are *query-variant signatures*: a BLAKE2b hash over the
canonicalized optimized plan text, the scan's table name + dataset
version + partition count, and the predicate's deterministic repr
(literal constants included — ``x < 100`` and ``x < 200`` are different
variants). A table regenerated with different parameters changes its
dataset version, which changes the signature *and* fails the entry's
stored-version check — stale sets can never be applied.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass, replace
from hashlib import blake2b
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.obs import Observability
from repro.relational.expr import Expr
from repro.relational.stats import can_match

#: LRU bound on cached query variants.
MAX_ENTRIES = 256


def query_signature(
    plan_text: str,
    table: str,
    version: str,
    num_partitions: int,
    predicate: Expr,
) -> str:
    """Deterministic signature of one (query variant, scan) pair.

    ``plan_text`` is the canonical rendering of the optimized plan as it
    stands *before* partition pruning rewrites it, so cold and warm runs
    of the same query derive the same key. Expression reprs are
    deterministic (``col('x')``, ``lit(100)``), so predicate constants
    are part of the variant.
    """
    h = blake2b(digest_size=16)
    for part in (plan_text, table, version, str(num_partitions), repr(predicate)):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """One cached partition set, plus enough metadata to validate it."""

    key: str
    table: str
    version: str
    num_partitions: int
    partitions: Tuple[int, ...]
    created: float = 0.0
    last_used: float = 0.0
    hits: int = 0

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "table": self.table,
            "version": self.version,
            "num_partitions": self.num_partitions,
            "partitions": list(self.partitions),
            "created": self.created,
            "last_used": self.last_used,
            "hits": self.hits,
        }


_COLUMNS = (
    "key, table_name, version, num_partitions, partitions,"
    " created, last_used, hits"
)
_NEXT_TICK = "SELECT COALESCE(MAX(last_used), 0) + 1 FROM cache_entries"


def _entry(row: tuple) -> CacheEntry:
    return CacheEntry(
        key=row[0],
        table=row[1],
        version=row[2],
        num_partitions=row[3],
        partitions=tuple(json.loads(row[4])),
        created=row[5],
        last_used=row[6],
        hits=row[7],
    )


class SQLiteCacheBackend:
    """The cache file: one row per query variant, LRU-bounded."""

    name = "sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS cache_entries (
            key TEXT PRIMARY KEY,
            table_name TEXT NOT NULL,
            version TEXT NOT NULL,
            num_partitions INTEGER NOT NULL,
            partitions TEXT NOT NULL,
            created REAL NOT NULL,
            last_used REAL NOT NULL,
            hits INTEGER NOT NULL
        )
    """

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            # Autocommit mode: transactions are opened explicitly below.
            self._conn = sqlite3.connect(path, isolation_level=None)
            # Keep the rollback journal between commits (its header is
            # zeroed instead): no file create, sync and unlink per
            # transaction, which costs tens of ms where metadata
            # commits are slow, and no WAL checkpoint at close.
            self._conn.execute("PRAGMA journal_mode=PERSIST")
            self._conn.execute(self._SCHEMA)
        except sqlite3.Error as exc:
            raise ConfigurationError(
                f"cannot open sqlite cache at {path!r}: {exc}"
            ) from exc

    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """One write-locked transaction; sqlite errors become exit-2 text."""
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        except sqlite3.Error as exc:
            raise ConfigurationError(
                f"cannot write sqlite cache at {self.path!r}: {exc}"
            ) from exc

    def _select(self, where: str = "", args: tuple = ()) -> List[CacheEntry]:
        try:
            rows = self._conn.execute(
                f"SELECT {_COLUMNS} FROM cache_entries {where}", args
            ).fetchall()
        except sqlite3.Error as exc:
            raise ConfigurationError(
                f"cannot read sqlite cache at {self.path!r}: {exc}"
            ) from exc
        return [_entry(row) for row in rows]

    def get(self, key: str) -> Optional[CacheEntry]:
        """Look ``key`` up, counting the hit and marking it most recent."""
        with self._transaction() as conn:
            conn.execute(
                f"UPDATE cache_entries SET last_used = ({_NEXT_TICK}),"
                " hits = hits + 1 WHERE key = ?",
                (key,),
            )
            return self.peek(key)

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Read-only lookup: no hit count, no LRU touch — a peek leaves
        every observable cache state as it was. Dry runs (``repro
        explain``) use this."""
        found = self._select("WHERE key = ?", (key,))
        return found[0] if found else None

    def put(self, entry: CacheEntry) -> None:
        with self._transaction() as conn:
            if entry.created == 0.0:
                now = conn.execute(_NEXT_TICK).fetchone()[0]
                entry = replace(entry, created=now, last_used=now)
            conn.execute(
                "INSERT OR REPLACE INTO cache_entries VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    entry.key, entry.table, entry.version, entry.num_partitions,
                    json.dumps(list(entry.partitions)), entry.created,
                    entry.last_used, entry.hits,
                ),
            )
            conn.execute(
                "DELETE FROM cache_entries WHERE key IN ("
                " SELECT key FROM cache_entries ORDER BY last_used, key"
                " LIMIT MAX(0, (SELECT COUNT(*) FROM cache_entries) - ?))",
                (MAX_ENTRIES,),
            )

    def clear(self) -> int:
        with self._transaction() as conn:
            return conn.execute("DELETE FROM cache_entries").rowcount

    def entries(self) -> List[CacheEntry]:
        return self._select("ORDER BY key")

    def close(self) -> None:
        self._conn.close()


@dataclass
class _PendingLookup:
    """A cache miss awaiting zone maps from the run that follows it."""

    key: str
    table: str
    version: str
    num_partitions: int
    predicate: Expr
    planned: Optional[Tuple[int, ...]] = None  # plan-time static pruning


class ResultCacheManager:
    """Drives the backend on behalf of the optimizer and the context.

    ``lookup`` runs at plan time (driver-side, deterministic — counters
    incremented here never race); misses are remembered and resolved at
    ``flush`` time from the zone maps the run collected. Entries are
    written conservatively: a partition is kept unless its zone map
    proves the predicate cannot match, and scans that never executed
    (zero zone-map coverage, e.g. `repro explain`) write nothing.
    """

    def __init__(
        self, backend: SQLiteCacheBackend, obs: Optional[Observability] = None
    ) -> None:
        self.backend = backend
        # The context's hub; on its own, a manager reports to a bare one.
        self._obs = obs if obs is not None else Observability()
        self._pending: Dict[str, _PendingLookup] = {}
        self.hits = 0
        self.misses = 0
        self._closed = False

    def lookup(
        self,
        key: str,
        table: str,
        version: str,
        num_partitions: int,
        predicate: Expr,
    ) -> Optional[Set[int]]:
        """Cached partition set, or None (and a registered miss)."""
        entry = self.backend.get(key)
        if (
            entry is not None
            and entry.version == version
            and entry.num_partitions == num_partitions
        ):
            self.hits += 1
            self._obs.event("result_cache_hit")
            return set(entry.partitions)
        self.misses += 1
        self._obs.event("result_cache_miss")
        if key not in self._pending:
            self._pending[key] = _PendingLookup(
                key=key, table=table, version=version,
                num_partitions=num_partitions, predicate=predicate,
            )
        return None

    def peek(
        self, key: str, version: str, num_partitions: int
    ) -> Optional[Set[int]]:
        """Read-only lookup for dry runs (``repro explain``): reports
        the cached set without counting a hit/miss, touching the
        backend's LRU state, or registering a pending miss — explaining
        a query must not perturb what a subsequent run observes."""
        entry = self.backend.peek(key)
        if (
            entry is not None
            and entry.version == version
            and entry.num_partitions == num_partitions
        ):
            return set(entry.partitions)
        return None

    def note_planned(self, key: str, kept: Set[int]) -> None:
        """Record the plan-time (static) kept set for a pending miss."""
        pending = self._pending.get(key)
        if pending is not None:
            pending.planned = tuple(sorted(kept))

    def flush(self, zone_maps) -> int:
        """Resolve pending misses against collected zone maps; returns
        the number of entries written."""
        written = 0
        for key in sorted(self._pending):
            p = self._pending[key]
            maps = zone_maps.get((p.table, p.version, p.num_partitions))
            if not maps:
                continue  # scan never executed: nothing to learn
            candidates = (
                p.planned if p.planned is not None
                else range(p.num_partitions)
            )
            kept = tuple(
                split
                for split in sorted(candidates)
                if split not in maps  # no stats: conservative keep
                or can_match(p.predicate, maps[split])
            )
            self.backend.put(
                CacheEntry(
                    key=key, table=p.table, version=p.version,
                    num_partitions=p.num_partitions, partitions=kept,
                )
            )
            written += 1
        self._pending.clear()
        return written

    def stats(self) -> dict:
        return {
            "backend": self.backend.name,
            "hits": self.hits,
            "misses": self.misses,
            "pending": len(self._pending),
            "entries": len(self.backend.entries()),
        }

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.backend.close()
