"""Columnar record batches for the shuffle hot path.

A :class:`RecordBatch` holds one partition's key-value pairs as two
*columns* instead of a list of 2-tuples. Homogeneous scalar columns are
numpy arrays (``int64`` / ``float64`` / unicode); everything else stays a
plain Python list column. The conversion is **loss-free by construction**:
``from_records`` only lifts a column to an array when the round trip back
to Python scalars is provably exact, otherwise the column stays a list —
so ``to_records`` always reproduces the original tuples value-for-value
(and type-for-type: ``int`` stays ``int``, ``str`` stays ``str``).

Why this exists: list-of-tuples shuffle blocks pay a Python object per
record on every bucket/concat/fold step. A batch partitions with one
``argsort``, slices buckets as array views, concatenates with
``np.concatenate`` and folds per key with ``np.add.at`` — while byte
accounting (:meth:`RecordBatch.sizes_array`) reproduces
``estimate_size((k, v))`` bit-for-bit, keeping the paper's Fig. 4 virtual
shuffle volumes unchanged.

Exactness guards (mirroring ``repro.common.sizing`` / ``partitioner``):

* str columns: numpy's fixed-width buffers pad with NULs, so a *trailing*
  NUL is lost in the round trip. Columns whose total ``str_len`` differs
  from the Python lengths stay lists.
* int columns: values outside int64 stay lists (``OverflowError``).
* bool is a subclass of int but ``True + True == 2`` has a different type
  story; ``type is int`` checks keep bool columns as lists.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.sizing import exact_sizes

# One column: a numpy array (U / int64 / float64) or a plain Python list.
Column = Union[np.ndarray, List[Any]]

_PRIMITIVE_BYTES = 8.0
_CONTAINER_OVERHEAD = 16.0
# estimate_size of a 2-tuple before its elements:
# _CONTAINER_OVERHEAD + 2 * _PER_ELEMENT_OVERHEAD.
_PAIR_BASE = 24.0


def _lift(items: List[Any]) -> Column:
    """Lift a Python column to an ndarray when the round trip is exact."""
    if not items:
        return items
    kinds = set(map(type, items))
    if kinds == {str}:
        arr = np.array(items)
        # Trailing NULs are indistinguishable from buffer padding; if any
        # string lost length in the round trip, keep the list.
        if int(np.char.str_len(arr).sum()) == sum(map(len, items)):
            return arr
        return items
    if kinds == {int}:
        try:
            return np.array(items, dtype=np.int64)
        except OverflowError:
            return items
    if kinds == {float}:
        arr = np.array(items, dtype=np.float64)  # float64 is exact
        # NaNs group by *object identity* in dict-based folds (nan != nan
        # but `k in d` short-circuits on `is`); a round trip through the
        # array would mint fresh objects and change the grouping.
        if bool(np.isnan(arr).any()):
            return items
        return arr
    return items


def _normalize(col: Column) -> Column:
    """Keep only array dtypes whose ``tolist`` round trip is exact."""
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "U":
            return col
        if col.dtype in (np.dtype(np.int64), np.dtype(np.float64)):
            return col
        return col.tolist()
    return col


class RecordBatch:
    """A partition of key-value records stored as two columns."""

    __slots__ = ("keys", "values", "_raw")

    def __init__(self, keys: Column, values: Column) -> None:
        self.keys = _normalize(keys)
        self.values = _normalize(values)
        self._raw: Optional[Tuple[memoryview, memoryview]] = None

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def _kind(col: Column) -> str:
            return str(col.dtype) if isinstance(col, np.ndarray) else "list"

        return (
            f"RecordBatch(n={len(self)}, keys={_kind(self.keys)}, "
            f"values={_kind(self.values)})"
        )

    def __reduce__(self):
        # Pickles as the two columns; under protocol 5 the ndarray buffers
        # serialize as raw bytes (optionally out-of-band), never as
        # per-element Python objects.
        return (RecordBatch, (self.keys, self.values))

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[Tuple]) -> Optional["RecordBatch"]:
        """Columnarize a list of 2-tuples, or ``None`` if it isn't one.

        Only exact 2-tuples qualify (subclasses like namedtuples carry
        behaviour a column cannot represent). The caller keeps the list
        on ``None`` — the scalar path is always correct. Both checks run
        in C (``map`` over builtins), not a per-record generator.
        """
        if not records or set(map(type, records)) != {tuple}:
            return None
        if set(map(len, records)) != {2}:
            return None
        return cls(
            _lift([r[0] for r in records]),
            _lift([r[1] for r in records]),
        )

    def to_records(self, start: int = 0, stop: Optional[int] = None) -> List[Tuple]:
        """A fresh list of the ``(key, value)`` tuples of records
        ``[start, stop)``, all by default (caller owns it)."""
        keys, values = self.keys[start:stop], self.values[start:stop]
        keys = keys.tolist() if isinstance(keys, np.ndarray) else keys
        values = values.tolist() if isinstance(values, np.ndarray) else values
        return list(zip(keys, values))

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "RecordBatch":
        """Select records by index array — array columns slice as views."""

        def _take(col: Column) -> Column:
            if isinstance(col, np.ndarray):
                return col[indices]
            return [col[i] for i in indices.tolist()]

        return RecordBatch(_take(self.keys), _take(self.values))

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """Records ``[start, stop)`` — array columns slice as views."""
        return RecordBatch(self.keys[start:stop], self.values[start:stop])

    def raw(self) -> Tuple[memoryview, memoryview]:
        """Both array columns as flat byte views, kept once built: a stored
        map output is cut into many spans, and a memoryview slices far
        cheaper than an ndarray."""
        if self._raw is None:
            self._raw = (
                memoryview(np.ascontiguousarray(self.keys)).cast("B"),
                memoryview(np.ascontiguousarray(self.values)).cast("B"),
            )
        return self._raw

    # ------------------------------------------------------------------
    # Byte accounting
    # ------------------------------------------------------------------

    def sizes_array(self) -> np.ndarray:
        """Per-record ``estimate_size((k, v))``, bit-identical.

        Mirrors ``sizing.sizes_array``'s tuple recursion: pair base, then
        key sizes, then value sizes — the same left fold of the same
        float64 values, so shuffle accounting cannot drift between the
        columnar and list paths.
        """
        acc = _column_sizes(self.keys)
        acc = acc + _column_sizes(self.values)
        return _PAIR_BASE + acc


def _column_sizes(col: Column) -> np.ndarray:
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "U":
            # float(len(s)) + container overhead, same as estimate_size.
            return np.char.str_len(col).astype(np.float64) + _CONTAINER_OVERHEAD
        return np.full(len(col), _PRIMITIVE_BYTES)
    return exact_sizes(col)


def as_record_list(records: Union[List, RecordBatch]) -> List:
    """Materialize a records container as a plain list of tuples."""
    if isinstance(records, RecordBatch):
        return records.to_records()
    return records
