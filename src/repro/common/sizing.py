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

The batched forms are exact, never approximate: :func:`sizes_array` /
:func:`estimate_sizes` give each record's :func:`estimate_size`, and
:func:`estimate_partition_size` their left-fold sum, bit for bit. Every
built-in size is an integer-valued float (8, ``16 + 4 * width``,
``nbytes + 16``, ``len + 16``, 64), which is what lets a partition total
below 2**53 be summed in any order. The engine sizes each materialized
partition once; sizing is bookkeeping for the simulator, so on tiny
tasks it is a fixed per-task cost, and the batched forms hand batches
shorter than :data:`SCALAR_SIZES_BELOW` to the scalar recursion.
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
_UNKNOWN_BYTES = 64.0
_PRIMITIVE_TYPES = frozenset({int, float, bool, complex, type(None)})

# Batches shorter than this are sized by the scalar recursion, record by
# record, because the numpy column kernel has a fixed cost the records do
# not pay back. Measured on a 2-vCPU x86 host over the engine's record
# shapes (a KMeans (float, 10-tuple) point, a (key, ndarray) pair, a
# (word, count) pair, SQL rows and (key, row) pairs): the kernel draws
# even with the scalar recursion at 16-40 records.
SCALAR_SIZES_BELOW = 32


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
    # The common exact built-in types first: none of them can be Sized.
    cls = type(record)
    if cls in _PRIMITIVE_TYPES:
        return _PRIMITIVE_BYTES
    if cls is tuple or cls is list:
        return (
            _CONTAINER_OVERHEAD
            + _PER_ELEMENT_OVERHEAD * len(record)
            + sum(map(estimate_size, record))
        )
    if cls is str or cls is bytes:
        return float(len(record)) + _CONTAINER_OVERHEAD
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
            + sum(map(estimate_size, record))
        )
    if isinstance(record, dict):
        return (
            _CONTAINER_OVERHEAD
            + _PER_ELEMENT_OVERHEAD * len(record)
            + sum(estimate_size(k) + estimate_size(v) for k, v in record.items())
        )
    return _UNKNOWN_BYTES


def estimate_sizes(records: Sequence[Any]) -> List[float]:
    """Batched :func:`estimate_size`: one size per record, bit-identical.

    ``estimate_sizes(rs)[i] == estimate_size(rs[i])`` exactly (IEEE-754
    equality, not approximate); :func:`sizes_array` says how.

    >>> import numpy as np
    >>> rs = [(1, np.ones(3)), (2, np.zeros(3))]
    >>> estimate_sizes(rs) == [estimate_size(r) for r in rs]
    True
    """
    if not records:
        return []
    arr = sizes_array(records)
    if arr is None:
        return list(map(estimate_size, records))
    return arr.tolist()


def sizes_array(records: Sequence[Any]) -> Optional[np.ndarray]:
    """Per-record sizes as a float64 array, or ``None`` for mixed batches.

    The array backend of :func:`estimate_sizes`. A homogeneous batch (all
    records share one concrete type) is sized columnarly with numpy, and
    tuples/lists of a common length recurse per *column* instead of per
    record; every arithmetic step mirrors the scalar recursion's
    operation order, so each element equals :func:`estimate_size` of its
    record. Staying in numpy end to end is what makes a large batch
    cheap, and callers that consume arrays directly (the map-task
    bucketing kernel) skip the final ``tolist`` too. A batch of fewer
    than :data:`SCALAR_SIZES_BELOW` records is sized record by record:
    there the numpy calls cost more than the records. ``None`` means the
    batch is heterogeneous and the caller must take the scalar loop.
    """
    n = len(records)
    if n < SCALAR_SIZES_BELOW:
        return np.array(list(map(estimate_size, records)), dtype=np.float64)
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
        arr = np.array(list(map(estimate_size, records)), dtype=np.float64)
    return arr


def estimate_partition_size(records: Sequence[Any]) -> float:
    """Sum of :func:`estimate_size` over a partition's records.

    Bit-identical to the left fold ``float(sum(estimate_size(r) for r in
    records))``. Every built-in size is a non-negative integer-valued
    float, so below 2**53 any summation order gives that same float:
    numpy's pairwise ``sum`` of :func:`sizes_array` is the total. A batch
    with a fractional, negative or non-finite size (only ``Sized``
    records report those) or a total of 2**53 or more keeps the left
    fold, and so does a mixed batch or one shorter than
    :data:`SCALAR_SIZES_BELOW`, over the scalar sizes.
    """
    if len(records) < SCALAR_SIZES_BELOW:
        return float(sum(map(estimate_size, records)))
    arr = sizes_array(records)
    if arr is None:
        return float(sum(map(estimate_size, records)))
    total = float(arr.sum())
    if total < _EXACT_TOTAL and arr.min() >= 0 and (np.trunc(arr) == arr).all():
        return total
    return float(sum(arr.tolist()))


# Below this, a sum of non-negative integer-valued floats is exact in any
# order.
_EXACT_TOTAL = float(1 << 53)
