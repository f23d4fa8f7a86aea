"""Vectorized per-key folds for ``numeric_add`` aggregations.

Used by the map-side combine (``TaskRunner._run_map_task``) and the
reduce-side merge (``ShuffledRDD._merge``) when an
:class:`~repro.engine.dependencies.Aggregator` promises ``numeric_add``
semantics: create is identity and every merge is elementwise ``+`` over
scalars, fixed-shape numeric arrays, or flat tuples of those.

Bit-identity with the scalar dict loop is the contract, not an
aspiration: grouping assigns ids in first-occurrence order (dict
insertion order), and ``np.add.at`` is unbuffered — it applies additions
in element order, the exact left fold the scalar loop performs. Anything
the kernel cannot fold exactly (mixed types, ragged shapes, int64
overflow risk, ``-0.0`` whose sign a zero-initialized fold would erase)
returns ``None`` and the caller runs the scalar loop.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.batch import RecordBatch


def combine_numeric_add(
    key_fn: Optional[Callable], records: List
) -> Optional[Dict[Any, Any]]:
    """Per-key sums of ``records``' values, or ``None`` if not foldable.

    ``key_fn=None`` means the default ``record[0]`` key, extracted with a
    subscript instead of a per-record Python call (roughly twice as
    fast). The result dict matches the scalar loop exactly: key objects
    are the first-seen originals, in first-occurrence order, mapped to
    the left-fold sum of their values.
    """
    vals = [r[1] for r in records]
    vtypes = set(map(type, vals))
    if len(vtypes) != 1:
        return None
    if vtypes == {tuple}:
        if len(set(map(len, vals))) != 1:
            return None
        columns = [[v[j] for v in vals] for j in range(len(vals[0]))]
    else:
        columns = [vals]
    if key_fn is None:
        keys = [r[0] for r in records]
    else:
        keys = [key_fn(r) for r in records]
    gids, first_idx = group_ids(keys)
    folded = []
    for column in columns:
        f = _fold_column(column, gids, len(first_idx))
        if f is None:
            return None
        folded.append(f)
    if vtypes == {tuple}:
        return {
            keys[int(i)]: tuple(f[g] for f in folded)
            for g, i in enumerate(first_idx)
        }
    totals = folded[0]
    return {keys[int(i)]: totals[g] for g, i in enumerate(first_idx)}


def fold_batch(batch: RecordBatch) -> Optional[RecordBatch]:
    """Per-key sums of a :class:`RecordBatch`, or ``None`` if not foldable.

    The columnar twin of :func:`combine_numeric_add`: output keys are the
    first occurrence of each distinct key, in first-occurrence order, and
    each value is the left-fold sum of that key's values in record order.
    Key columns stored as arrays group via ``np.unique`` (relabeled to
    first-occurrence order); list columns group via the dict loop. The
    same exactness guards apply — anything the kernel cannot fold exactly
    returns ``None`` and the caller materializes the batch for the scalar
    loop.
    """
    if len(batch) == 0:
        return None
    grouped = _group_column(batch.keys)
    if grouped is None:
        return None
    gids, first_idx = grouped
    values = _fold_values(batch.values, gids, len(first_idx))
    if values is None:
        return None
    if isinstance(batch.keys, np.ndarray):
        keys: Any = batch.keys[first_idx]
    else:
        keys = [batch.keys[int(i)] for i in first_idx]
    return RecordBatch(keys, values)


def _group_column(col) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Group ids + first index per group for one key column.

    Array columns use ``np.unique`` (stable when return_index is asked
    for, so ``index`` is each group's first occurrence) and relabel the
    sorted group ids back to first-occurrence order — matching the dict
    loop's insertion order exactly. Float columns with NaNs fall back
    (``np.unique`` treats NaNs as distinct-but-grouped differently from
    dict key hashing).
    """
    if not isinstance(col, np.ndarray):
        return group_ids(col)
    if col.dtype.kind == "f" and bool(np.isnan(col).any()):
        return group_ids(col.tolist())
    _, index, inverse = np.unique(col, return_index=True, return_inverse=True)
    order = np.argsort(index, kind="stable")
    rank = np.empty(len(index), dtype=np.intp)
    rank[order] = np.arange(len(index), dtype=np.intp)
    gids = rank[inverse.reshape(-1)]
    first_idx = index[order]
    return gids, first_idx


def _fold_values(col, gids: np.ndarray, n_groups: int) -> Optional[Any]:
    """Column-wise per-group left folds; array in, array out when exact."""
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "i":
            if max(int(col.max()), -int(col.min())) * col.size >= 2**62:
                return None
            acc = np.zeros(n_groups, dtype=np.int64)
            np.add.at(acc, gids, col)
            return acc
        if col.dtype.kind == "f":
            zeros = col == 0.0
            if zeros.any() and np.signbit(col[zeros]).any():
                return None  # 0.0 + (-0.0) would flip the sign vs serial
            acc = np.zeros(n_groups, dtype=np.float64)
            np.add.at(acc, gids, col)
            return acc
        col = col.tolist()
    vtypes = set(map(type, col))
    if len(vtypes) != 1:
        return None
    if vtypes == {tuple}:
        if len(set(map(len, col))) != 1:
            return None
        folded = []
        for j in range(len(col[0])):
            f = _fold_column([v[j] for v in col], gids, n_groups)
            if f is None:
                return None
            folded.append(f)
        return [tuple(f[g] for f in folded) for g in range(n_groups)]
    return _fold_column(list(col), gids, n_groups)


def group_ids(keys: List) -> Tuple[np.ndarray, np.ndarray]:
    """Group ids (first-occurrence order) and first index per group.

    A dict loop for keys held as a Python list, where it beats building
    an array for ``np.unique`` (~1.8x on wordcount's reduce partitions)
    and is exact for every hashable key type. Array key columns group
    faster through ``np.unique`` (``_group_column``, ~1.4-1.6x over
    ``tolist`` + this loop). Ids follow first-appearance order.
    """
    index: Dict[Any, int] = {}
    gids = np.empty(len(keys), dtype=np.intp)
    firsts: List[int] = []
    for i, k in enumerate(keys):
        g = index.get(k)
        if g is None:
            index[k] = g = len(firsts)
            firsts.append(i)
        gids[i] = g
    return gids, np.asarray(firsts, dtype=np.intp)


def _fold_column(
    column: List, gids: np.ndarray, n_groups: int
) -> Optional[List]:
    """Per-group left-fold sums of one value column, or ``None``."""
    ctypes = set(map(type, column))
    if len(ctypes) != 1:
        return None
    ctype = ctypes.pop()
    if ctype is int:
        try:
            arr = np.array(column, dtype=np.int64)
        except OverflowError:
            return None
        # Bound every partial sum: |any prefix| <= max|v| * n. (Python-int
        # math: np.abs would wrap on INT64_MIN.)
        if max(int(arr.max()), -int(arr.min())) * arr.size >= 2**62:
            return None
        acc = np.zeros(n_groups, dtype=np.int64)
        np.add.at(acc, gids, arr)
        return acc.tolist()  # back to Python ints, exact
    if ctype is float or issubclass(ctype, np.ndarray):
        if ctype is float:
            arr = np.array(column, dtype=np.float64)
        else:
            try:
                arr = np.array(column)
            except ValueError:  # ragged shapes
                return None
            if arr.dtype == object or arr.ndim < 2:
                return None  # ragged (older numpy) or 0-d element arrays
        if not np.issubdtype(arr.dtype, np.floating):
            return None  # int/bool/object/complex arrays: scalar loop only
        zeros = arr == 0.0
        if zeros.any() and np.signbit(arr[zeros]).any():
            return None  # 0.0 + (-0.0) would flip the sign vs serial
        acc = np.zeros((n_groups,) + arr.shape[1:], dtype=arr.dtype)
        np.add.at(acc, gids, arr)
        return acc.tolist() if ctype is float else list(acc)
    return None
