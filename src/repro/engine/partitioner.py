"""Partitioners: how key-value records map to reduce partitions.

Mirrors Spark's two built-in partitioners (§II-A of the paper):

* :class:`HashPartitioner` — stable hash of the key modulo the partition
  count. Insensitive to data content, but hot keys pile into one
  partition.
* :class:`RangePartitioner` — split points estimated by sampling the key
  distribution; keys fall into approximately equal-*count* ranges. Robust
  to hot-key skew of distinct keys, but a range scheme tuned on one RDD
  can skew another (§III-B).

Equality is structural (type + parameters) because co-partitioning
decisions — "these two RDDs can be joined without a shuffle" — hinge on
partitioner equality, exactly as in Spark.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, Iterable, List, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import seeded_rng

# Keys sampled per partition when building range partitioners.
RANGE_SAMPLE_PER_PARTITION = 20

# Batches shorter than this hash per key (zlib.crc32, a C call per key)
# instead of in the numpy CRC32 kernel, whose fixed cost is 60-120 us.
# Measured on a 2-vCPU x86 host: the kernel draws even with per-key zlib
# at about 128 keys for an int64 or ASCII unicode column and about 190
# for a list of ints.
SCALAR_HASH_BELOW = 128


def stable_hash(key: Any) -> int:
    """Process-independent hash used by :class:`HashPartitioner`.

    Python's builtin ``hash`` is salted per process for str/bytes; CRC32
    over a canonical encoding gives identical partition assignment across
    runs, which the deterministic benchmarks rely on.
    """
    if isinstance(key, (int, np.integer)):
        value = int(key)
        # Variable-length encoding: arbitrary-precision ints must not
        # overflow a fixed width (hypothesis found 2**127 keys).
        width = max((value.bit_length() + 8) // 8, 1)
        return zlib.crc32(value.to_bytes(width, "little", signed=True))
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, float):
        return zlib.crc32(repr(key).encode("utf-8"))
    if isinstance(key, tuple):
        acc = 0x9E3779B9
        for part in key:
            acc = zlib.crc32(acc.to_bytes(8, "little") + stable_hash(part).to_bytes(8, "little"))
        return acc
    return zlib.crc32(repr(key).encode("utf-8"))


def _crc32_table() -> np.ndarray:
    table = np.empty(256, dtype=np.uint32)
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
        table[i] = crc
    return table


_CRC32_TABLE = _crc32_table()
# Magnitude thresholds for the variable-width int encoding: a key of
# magnitude >= 2**(8w - 1) needs more than w bytes (see stable_hash).
_INT_WIDTH_THRESHOLDS = np.array([1 << (8 * w - 1) for w in range(1, 9)], dtype=np.uint64)


def _crc32_rows(buf: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Vectorized zlib.crc32 over ragged rows of a zero-padded byte matrix."""
    crc = np.full(buf.shape[0], 0xFFFFFFFF, dtype=np.uint32)
    for j in range(buf.shape[1]):
        idx = (crc ^ buf[:, j]) & np.uint32(0xFF)
        updated = _CRC32_TABLE[idx] ^ (crc >> np.uint32(8))
        crc = np.where(lens > j, updated, crc)
    return crc ^ np.uint32(0xFFFFFFFF)


def stable_hash_many(keys: Sequence[Any]) -> List[int]:
    """Batched :func:`stable_hash`, identical per key.

    Integer keys (a list, or an integer array column) hash via a
    table-driven CRC32 over the vectorized variable-width encoding, and
    an all-ASCII unicode array column via the same kernel over its own
    code points. Everything else (floats, tuples, str/bytes lists,
    arbitrary-precision ints, mixed batches), and any batch of fewer than
    :data:`SCALAR_HASH_BELOW` keys, takes the scalar function per key:
    the contract is equality, never approximation.
    """
    if len(keys) < SCALAR_HASH_BELOW:
        if isinstance(keys, np.ndarray):
            keys = keys.tolist()
        return [stable_hash(k) for k in keys]
    if isinstance(keys, np.ndarray):
        hashed = _stable_hash_array(keys)
        if hashed is not None:
            return hashed
        keys = keys.tolist()  # exact scalar equivalence for odd dtypes
    first = type(keys[0])
    if first is int or first is bool or issubclass(first, np.integer):
        if all(type(k) is first for k in keys):
            try:
                values = np.array([int(k) for k in keys], dtype=np.int64)
            except OverflowError:
                return [stable_hash(k) for k in keys]
            return _crc32_int64(values)
    return [stable_hash(k) for k in keys]


def _crc32_int64(values: np.ndarray) -> List[int]:
    """CRC32 of int64 keys in :func:`stable_hash`'s variable-width encoding."""
    # Width per key, replicating max((bit_length + 8) // 8, 1) on the
    # magnitude; -(v + 1) + 1 sidesteps the |int64 min| overflow.
    mag = np.where(
        values >= 0,
        values.astype(np.uint64),
        (-(values + 1)).astype(np.uint64) + np.uint64(1),
    )
    widths = 1 + np.searchsorted(_INT_WIDTH_THRESHOLDS, mag, side="right")
    # Little-endian two's-complement bytes; a 9th sign byte covers
    # width-9 keys (int64 min, whose magnitude has 64 bits).
    le = values.astype("<i8").view(np.uint8).reshape(len(values), 8)
    sign = np.where(values < 0, 0xFF, 0x00).astype(np.uint8).reshape(len(values), 1)
    return _crc32_rows(np.concatenate([le, sign], axis=1), widths).tolist()


def _stable_hash_array(keys: np.ndarray) -> Optional[List[int]]:
    """CRC32 of an ndarray key column without per-element Python objects.

    An all-ASCII unicode column is its own UTF-8 byte matrix: each code
    point of the zero-padded UCS4 buffer is one byte, and ``str_len``
    (which stops at the NUL padding; a key whose *last* character is
    U+0000 cannot exist in an array element) is ``len(key.encode())``.
    Other unicode columns return None: per-key ``zlib.crc32`` encodes
    them faster than ``np.char.encode`` does. Integer columns reuse the
    vectorized variable-width encoding.
    """
    if keys.dtype.kind == "U":
        codes = np.ascontiguousarray(keys).view(keys.dtype.str[0] + "u4")
        codes = codes.reshape(len(keys), -1)
        if int(codes.max()) >= 0x80:
            return None
        return _crc32_rows(codes.astype(np.uint8), np.char.str_len(keys)).tolist()
    if keys.dtype.kind == "i" and keys.dtype.itemsize <= 8:
        return _crc32_int64(keys.astype(np.int64))
    return None


class Partitioner:
    """Maps record keys to partition indices in ``[0, num_partitions)``."""

    kind: str = "custom"

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ConfigurationError(
                f"num_partitions must be >= 1, got {num_partitions}"
            )
        self.num_partitions = int(num_partitions)

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def partition_many(self, keys: Sequence[Any]) -> List[int]:
        """Batched :meth:`partition`: one index per key, identical per key.

        Subclasses override this with vectorized kernels; the base
        implementation is the plain per-key loop, so custom partitioners
        stay correct without opting in. Array key columns (columnar
        shuffle blocks) are materialized to Python scalars first so a
        custom ``partition`` never sees numpy scalar types.
        """
        if isinstance(keys, np.ndarray):
            keys = keys.tolist()
        return [self.partition(k) for k in keys]

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__  # type: ignore[union-attr]

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:  # pragma: no cover - dict key usage only
        return hash((type(self).__name__, self.num_partitions))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num_partitions})"


class HashPartitioner(Partitioner):
    """Spark's default partitioner: ``stable_hash(key) % n``."""

    kind = "hash"

    def partition(self, key: Any) -> int:
        return stable_hash(key) % self.num_partitions

    def partition_many(self, keys: Sequence[Any]) -> List[int]:
        n = self.num_partitions
        return [h % n for h in stable_hash_many(keys)]


class RangePartitioner(Partitioner):
    """Range partitioner with sampled split points.

    ``bounds`` has up to ``num_partitions - 1`` ascending keys; a key
    lands in the first range whose upper bound is >= the key (binary
    search, like Spark's ``RangePartitioner`` for small partition
    counts).

    Duplicate split points are dropped on construction: a repeated bound
    describes a range that ``bisect_left`` can never select, so keeping
    it would silently strand an empty partition *between* used ones and
    make structural equality (the co-partitioning test) miss equivalent
    schemes. With fewer bounds than ``num_partitions - 1`` — a
    low-cardinality key sample, or an empty sample — only the first
    ``len(bounds) + 1`` partitions ever receive keys and the trailing
    ones stay empty. That is the documented fallback, matching real range
    partitioning on degenerate key distributions; ``num_partitions`` is
    intentionally preserved so the scheme's task count stays what the
    optimizer chose.
    """

    kind = "range"

    def __init__(self, num_partitions: int, bounds: Sequence[Any]) -> None:
        super().__init__(num_partitions)
        bounds = list(bounds)
        if any(bounds[i] > bounds[i + 1] for i in range(len(bounds) - 1)):
            raise ConfigurationError("range bounds must be ascending")
        deduped: List[Any] = []
        for bound in bounds:
            if not deduped or bound > deduped[-1]:
                deduped.append(bound)
        if len(deduped) > num_partitions - 1:
            raise ConfigurationError(
                f"too many bounds ({len(deduped)}) for {num_partitions} partitions"
            )
        self.bounds: List[Any] = deduped

    def partition(self, key: Any) -> int:
        try:
            return bisect.bisect_left(self.bounds, key)
        except TypeError:
            # A range scheme built on one RDD's keys can meet another
            # RDD with an incomparable key type (a shared CHOPPER group,
            # or Spark's own mis-use); degrade to hashing rather than
            # failing the stage.
            return stable_hash(key) % self.num_partitions

    def partition_many(self, keys: Sequence[Any]) -> List[int]:
        """Per-key bisect, one C call per key. Range key batches are
        small (under 64 keys on every benchmark workload), where a numpy
        ``searchsorted`` with its dtype and NaN guards costs more than it
        saves."""
        if not self.bounds:
            return [0] * len(keys)
        if isinstance(keys, np.ndarray):
            # Exact scalar equivalence: the per-key path must see Python
            # scalars (stable_hash of a numpy float reprs differently).
            keys = keys.tolist()
        return [self.partition(k) for k in keys]

    @classmethod
    def from_sample(
        cls,
        keys: Iterable[Any],
        num_partitions: int,
        sample_size: int = 1000,
        seed: int = 0,
    ) -> "RangePartitioner":
        """Build split points by sampling ``keys``, as Spark does.

        Draws up to ``sample_size`` keys (uniform without replacement),
        sorts them, and picks equally spaced quantiles as bounds, skipping
        any quantile that would repeat or fall below the previous bound —
        the emitted bounds are always strictly increasing. With fewer
        distinct sampled keys than partitions (or an empty sample, which
        yields no bounds at all and routes every key to partition 0), the
        trailing partitions simply stay empty — the same degenerate
        behaviour real range partitioning exhibits on low-cardinality
        keys; see the class docstring.
        """
        all_keys = list(keys)
        if not all_keys:
            return cls(num_partitions, [])
        rng = seeded_rng(seed)
        if len(all_keys) > sample_size:
            idx = rng.choice(len(all_keys), size=sample_size, replace=False)
            sample = sorted(all_keys[i] for i in idx)
        else:
            sample = sorted(all_keys)
        bounds = []
        for i in range(1, num_partitions):
            pos = int(round(i * len(sample) / num_partitions))
            pos = min(max(pos, 0), len(sample) - 1)
            bound = sample[pos]
            if not bounds or bound > bounds[-1]:
                bounds.append(bound)
        return cls(num_partitions, bounds)

