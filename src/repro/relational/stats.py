"""Zone-map statistics: per-partition column summaries for pruning.

A *zone map* is the classic min/max sketch data warehouses keep beside
every block: for each partition of a materialized table, the per-column
minimum, maximum, NULL count and a distinct-value estimate. The scan
operator records them as a pure observer at materialization time (see
``SourceRDD.compute``); the :class:`PrunePartitions` optimizer rule then
evaluates ``Filter`` predicates against them — a partition whose value
range cannot satisfy the predicate never schedules a task.

This is CHOPPER's range-vs-hash trade-off made visible on the read path:
a range-partitioned table keeps each partition's key interval tight, so
zone maps prune aggressively; under hash partitioning every partition
spans the full key range and nothing can be skipped.

Everything here is conservative by construction: :func:`can_match`
returns ``False`` only when *no* row of the partition can satisfy the
predicate under Python comparison semantics (the same semantics the
lowered filter function runs with), and ``True`` whenever it cannot
tell. Pruning therefore never changes query results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.relational.expr import BinaryExpr, Col, Expr, Lit, UnaryExpr

#: Distinct-count estimates are exact up to this many values; beyond it
#: the estimate is reported as the cap (a lower bound), keeping the
#: per-partition bookkeeping O(cap) regardless of partition size.
DISTINCT_CAP = 1024


@dataclass(frozen=True)
class ColumnStats:
    """Zone-map entry of one column in one partition.

    ``low``/``high`` are ``None`` when the column held no comparable
    non-NULL values (empty, all-NULL, all-NaN, or mixed-type) —
    consumers must treat that as "unbounded". NaN values are excluded
    from the bounds (NaN compares False against everything, so it can
    never widen them soundly) and counted in ``nan_count`` instead;
    the ``!=`` path needs that count because ``nan != v`` is True.
    ``distinct`` is a lower-bound estimate capped at
    :data:`DISTINCT_CAP`; ``None`` when values were unhashable.
    """

    count: int
    null_count: int
    low: Optional[Any] = None
    high: Optional[Any] = None
    distinct: Optional[int] = None
    nan_count: int = 0

    def to_dict(self) -> dict:
        low = self.low if isinstance(self.low, (int, float, str)) else None
        high = self.high if isinstance(self.high, (int, float, str)) else None
        return {
            "count": self.count,
            "null_count": self.null_count,
            "low": low,
            "high": high,
            "distinct": self.distinct,
            "nan_count": self.nan_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnStats":
        """Inverse of :meth:`to_dict`; a bound it widened stays ``None``."""
        return cls(**data)


def _is_nan(value: Any) -> bool:
    """NaN of any float flavor (Python float, numpy scalar)."""
    try:
        return bool(value != value)
    except (TypeError, ValueError):
        return False  # exotic __ne__ (arrays): not a NaN


def _column_stats(values: Sequence[Any]) -> ColumnStats:
    count = len(values)
    non_null = [v for v in values if v is not None]
    null_count = count - len(non_null)
    nan_count = sum(1 for v in non_null if _is_nan(v))
    # NaN poisons min/max (every comparison is False, so the result is
    # order-dependent garbage); bound only the comparable values. That
    # stays conservative: a NaN row can never satisfy an ordered or ==
    # predicate, and the != path consults nan_count.
    bounded = (
        [v for v in non_null if not _is_nan(v)] if nan_count else non_null
    )
    low: Optional[Any] = None
    high: Optional[Any] = None
    if bounded:
        first = bounded[0]
        if isinstance(first, (int, float)) and not isinstance(first, bool):
            # Vectorized min/max over numeric columns; mixed numeric
            # types (int + float) coerce fine, anything else falls back.
            try:
                arr = np.asarray(bounded)
                if arr.dtype.kind in "if":
                    low = arr.min().item()
                    high = arr.max().item()
            except (TypeError, ValueError):
                pass
        if low is None:
            try:
                low = min(bounded)
                high = max(bounded)
            except TypeError:
                low = high = None  # mixed incomparable types: unbounded
    distinct: Optional[int] = None
    try:
        seen: Set[Any] = set()
        for v in non_null:
            seen.add(v)
            if len(seen) >= DISTINCT_CAP:
                break
        distinct = len(seen)
    except TypeError:
        distinct = None  # unhashable values (arrays): no estimate
    return ColumnStats(
        count=count, null_count=null_count, low=low, high=high,
        distinct=distinct, nan_count=nan_count,
    )


def collect_column_stats(
    rows: Sequence[Tuple], columns: Sequence[str]
) -> Dict[str, "ColumnStats"]:
    """Zone-map stats of one partition's rows, keyed by column name.

    Rows are the tuple records a relational scan produces; short rows
    read as NULL in the missing columns (defensive — the schema layer
    validates widths long before this runs).
    """
    per_col: Dict[str, ColumnStats] = {}
    for idx, name in enumerate(columns):
        values = [row[idx] if idx < len(row) else None for row in rows]
        per_col[name] = _column_stats(values)
    return per_col


# ----------------------------------------------------------------------
# Conservative predicate evaluation against zone maps
# ----------------------------------------------------------------------

_ORDERED = {"<", "<=", ">", ">="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _cmp_against_stats(symbol: str, stats: ColumnStats, value: Any) -> bool:
    """Can any row satisfy ``col <symbol> value`` given the zone map?

    Python semantics, matching the lowered filter exactly: ``None != x``
    is True, ordered comparisons against None raise (so a partition with
    NULLs is never pruned under an ordered predicate — pruning it would
    turn a runtime TypeError into silence). NaN rows compare False under
    every ordered/== predicate (they can never un-prune those), but
    ``nan != x`` is True, so a partition with NaNs survives ``!=``.
    """
    if stats.count == 0:
        return False  # no rows at all: the filter of nothing is nothing
    non_null = stats.count - stats.null_count
    if symbol == "!=":
        if stats.null_count > 0 or stats.nan_count > 0:
            return True  # None != value and nan != value are True
        if non_null == 0:
            return False
        if stats.low is None or stats.high is None:
            return True
        try:
            return not (stats.low == value == stats.high)
        except TypeError:
            return True
    if stats.null_count > 0 and symbol in _ORDERED:
        return True  # a NULL row would raise at runtime; never prune it
    if non_null == 0:
        return False  # all-NULL: == and ordered predicates match nothing
    if stats.low is None and stats.high is None:
        return True  # unbounded (mixed types): cannot rule anything out
    # One-sided bounds (RangeLayout's first/last interval) read as
    # -inf / +inf on the missing side; only the present bound can refute.
    low, high = stats.low, stats.high
    try:
        if symbol == "==":
            return (low is None or low <= value) and (
                high is None or value <= high
            )
        if symbol == "<":
            return low is None or low < value
        if symbol == "<=":
            return low is None or low <= value
        if symbol == ">":
            return high is None or high > value
        if symbol == ">=":
            return high is None or high >= value
    except TypeError:
        return True  # incomparable literal: conservative keep
    return True


def can_match(expr: Expr, stats_by_col: Dict[str, ColumnStats]) -> bool:
    """Conservative: may *any* row of the partition satisfy ``expr``?

    ``False`` is a proof of emptiness under the zone map; ``True`` means
    "cannot tell" as often as "yes". Unknown expression shapes, columns
    without statistics, and comparison errors all read as ``True``.
    """
    if isinstance(expr, BinaryExpr):
        symbol = expr.symbol
        if symbol == "and":
            return can_match(expr.left, stats_by_col) and can_match(
                expr.right, stats_by_col
            )
        if symbol == "or":
            return can_match(expr.left, stats_by_col) or can_match(
                expr.right, stats_by_col
            )
        left, right = expr.left, expr.right
        if symbol in _ORDERED or symbol in ("==", "!="):
            if isinstance(left, Col) and isinstance(right, Lit):
                col_name, value = left.name, right.value
            elif isinstance(left, Lit) and isinstance(right, Col):
                col_name, value = right.name, left.value
                symbol = _FLIP.get(symbol, symbol)
            else:
                return True
            stats = stats_by_col.get(col_name)
            if stats is None:
                return True
            return _cmp_against_stats(symbol, stats, value)
        return True
    if isinstance(expr, UnaryExpr):
        return True  # not(e): refuting it needs a proof of all-match
    return True


# ----------------------------------------------------------------------
# Declared range layouts (static pruning without a prior run)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RangeLayout:
    """A declared range partitioning of a source table on one column.

    ``bounds`` follow :class:`~repro.engine.partitioner.RangePartitioner`
    semantics exactly: ascending, deduplicated; partition 0 covers
    ``(-inf, bounds[0]]``, partition i covers ``(bounds[i-1], bounds[i]]``
    and the last partition ``(bounds[-1], +inf)``. A declared layout lets
    the optimizer prune a *cold* scan — no zone maps needed — which is
    the strongest form of CHOPPER's "range partitioning wins reads".
    """

    column: str
    bounds: Tuple[Any, ...]

    @property
    def num_partitions(self) -> int:
        return len(self.bounds) + 1

    def _interval_stats(self, split: int) -> ColumnStats:
        """The split's key interval as a (conservative) zone-map entry.

        The half-open ``(lo, hi]`` interval is widened to the closed
        ``[lo, hi]`` — a superset, so pruning stays sound — and the
        unbounded ends read as ``None`` (which :func:`can_match` treats
        as "cannot rule out").
        """
        lo = self.bounds[split - 1] if split > 0 else None
        hi = self.bounds[split] if split < len(self.bounds) else None
        return ColumnStats(count=1, null_count=0, low=lo, high=hi, distinct=None)

    def kept_partitions(self, expr: Expr, num_partitions: int) -> Set[int]:
        """Partition ids a predicate may match under this layout.

        A layout whose bound count disagrees with the scan's actual
        partition count prunes nothing (stale declaration — keep all).
        """
        if num_partitions != self.num_partitions:
            return set(range(num_partitions))
        return {
            split
            for split in range(num_partitions)
            if can_match(expr, {self.column: self._interval_stats(split)})
        }


@dataclass(frozen=True)
class ZoneMapSpec:
    """What a source RDD should record zone maps *as*.

    Attached by the relational layer to versioned scans; the key triple
    ``(table, version, num_partitions)`` is what the
    :class:`~repro.engine.storage.ZoneMapStore` and the zone-map cache
    file are both keyed by, so a regenerated or re-split table never
    reuses stale statistics.
    """

    table: str
    version: str
    columns: Tuple[str, ...] = field(default_factory=tuple)
