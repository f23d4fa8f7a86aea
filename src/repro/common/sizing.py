"""Record size estimation for shuffle and storage accounting.

The engine executes workloads on a small *physical* sample of records that
stands in for a much larger *virtual* dataset (see DESIGN.md). Byte
accounting therefore needs two pieces:

* :func:`estimate_size` — approximate serialized size of one record, the
  way Spark's ``SizeEstimator`` approximates JVM object sizes; and
* a per-RDD ``size_scale`` multiplier (owned by ``repro.engine.rdd``) that
  converts physical bytes to virtual bytes.

Records that know their own virtual footprint can implement the
:class:`Sized` protocol instead.
"""

from __future__ import annotations

import operator
from typing import Any, List, Optional, Sequence

import numpy as np

_NBYTES = operator.attrgetter("nbytes")

# Fixed serialized-size assumptions, loosely mirroring compact binary
# encodings (Kryo-like): primitives are 8 bytes, containers pay a small
# per-element overhead.
_PRIMITIVE_BYTES = 8.0
_CONTAINER_OVERHEAD = 16.0
_PER_ELEMENT_OVERHEAD = 4.0


class Sized:
    """Protocol for records that carry an explicit virtual byte size.

    Implement ``nbytes_virtual`` to override :func:`estimate_size` for a
    record type whose physical representation is much smaller than the
    dataset it stands for.
    """

    def nbytes_virtual(self) -> float:
        raise NotImplementedError


def estimate_size(record: Any) -> float:
    """Approximate the serialized size of ``record`` in bytes.

    Handles the record shapes the built-in workloads produce: numpy arrays
    and scalars, numbers, strings/bytes, and (nested) tuples/lists/dicts.
    Unknown objects fall back to a flat 64-byte estimate rather than
    raising, so user-defined records never break shuffle accounting.

    >>> estimate_size(1.0)
    8.0
    >>> estimate_size((1, 2.0)) > 16
    True
    """
    if isinstance(record, Sized):
        return float(record.nbytes_virtual())
    if isinstance(record, np.ndarray):
        return float(record.nbytes) + _CONTAINER_OVERHEAD
    if isinstance(record, (np.generic,)):
        return float(record.nbytes)
    if isinstance(record, (int, float, complex)):
        return _PRIMITIVE_BYTES
    if isinstance(record, bool) or record is None:
        return _PRIMITIVE_BYTES
    if isinstance(record, (str, bytes)):
        return float(len(record)) + _CONTAINER_OVERHEAD
    if isinstance(record, (tuple, list)):
        return (
            _CONTAINER_OVERHEAD
            + _PER_ELEMENT_OVERHEAD * len(record)
            + sum(estimate_size(v) for v in record)
        )
    if isinstance(record, dict):
        return (
            _CONTAINER_OVERHEAD
            + _PER_ELEMENT_OVERHEAD * len(record)
            + sum(estimate_size(k) + estimate_size(v) for k, v in record.items())
        )
    return 64.0


def estimate_sizes(records: Sequence[Any]) -> List[float]:
    """Batched :func:`estimate_size`: one size per record, bit-identical.

    Type-dispatched fast path: a homogeneous batch (all records share one
    concrete type) is sized columnarly with numpy — tuples/lists of a
    common length recurse per *column* instead of per record. Every
    arithmetic step mirrors the scalar recursion's operation order, so
    ``estimate_sizes(rs)[i] == estimate_size(rs[i])`` exactly (IEEE-754
    equality, not approximate); mixed batches fall back to the per-record
    loop.

    >>> import numpy as np
    >>> rs = [(1, np.ones(3)), (2, np.zeros(3))]
    >>> estimate_sizes(rs) == [estimate_size(r) for r in rs]
    True
    """
    if not records:
        return []
    arr = sizes_array(records)
    if arr is None:
        return [estimate_size(r) for r in records]
    return arr.tolist()


def sizes_array(records: Sequence[Any]) -> Optional[np.ndarray]:
    """Per-record sizes as a float64 array, or ``None`` for mixed batches.

    The array backend of :func:`estimate_sizes`: staying in numpy end to
    end (no intermediate Python lists) is what makes the batched path
    cheap, and callers that consume arrays directly (the map-task
    bucketing kernel) skip the final ``tolist`` too. ``None`` means the
    batch is heterogeneous and the caller must take the scalar loop.
    """
    n = len(records)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    if len(set(map(type, records))) != 1:
        return None
    first = type(records[0])
    if issubclass(first, Sized):
        return np.fromiter(
            (r.nbytes_virtual() for r in records), dtype=np.float64, count=n
        )
    if issubclass(first, np.ndarray):
        # map(attrgetter) keeps the per-record attribute access in C; the
        # equivalent generator expression costs a Python frame per record.
        nbytes = np.fromiter(
            map(_NBYTES, records), dtype=np.float64, count=n
        )
        return nbytes + _CONTAINER_OVERHEAD
    if issubclass(first, np.generic):
        return np.fromiter(map(_NBYTES, records), dtype=np.float64, count=n)
    if issubclass(first, (int, float, complex)) or first is type(None):
        return np.full(n, _PRIMITIVE_BYTES)
    if issubclass(first, (str, bytes)):
        lens = np.fromiter(map(len, records), dtype=np.float64, count=n)
        return lens + _CONTAINER_OVERHEAD
    if issubclass(first, (tuple, list)):
        lens = np.fromiter(map(len, records), dtype=np.intp, count=n)
        width = int(lens[0])
        if not (lens == width).all():
            return None
        base = _CONTAINER_OVERHEAD + _PER_ELEMENT_OVERHEAD * width
        if width == 0:
            return np.full(n, base)
        # Column-wise recursion. The scalar path computes
        # ``base + sum(sizes)`` where sum() is a left fold starting at 0;
        # 0 + x == x for the positive sizes produced here, so folding the
        # column arrays left-to-right reproduces the identical sequence
        # of additions element-wise.
        acc = exact_sizes([r[0] for r in records])
        for j in range(1, width):
            acc = acc + exact_sizes([r[j] for r in records])
        return base + acc
    # dicts and unknown objects: rare as bulk records; keep the exact loop.
    return None


def exact_sizes(records: Sequence[Any]) -> np.ndarray:
    """:func:`sizes_array` for any batch (a mixed one: the scalar loop)."""
    arr = sizes_array(records)
    if arr is None:
        arr = np.array([estimate_size(r) for r in records], dtype=np.float64)
    return arr


def estimate_partition_size(records: list) -> float:
    """Sum of :func:`estimate_size` over a partition's records.

    The per-record sizes come from :func:`estimate_sizes` and are summed
    as a left fold, so the result is bit-identical to the serial loop.
    """
    return float(sum(estimate_sizes(records)))
