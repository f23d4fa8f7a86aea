"""Zero-copy shared-memory data plane for cross-process payloads.

The process pool used to ship every payload — run specs out, records and
results back — through pickle *bytes* travelling over the executor's IPC
pipe: one serialization copy on the sender, one pipe write, one pipe
read, one deserialization copy on the receiver. This module replaces the
pipe payload with a **shared-memory segment**: the sender packs the
pickle stream and every out-of-band buffer (pickle protocol 5 —
numpy-backed :class:`~repro.engine.batch.RecordBatch` columns in
particular) into one segment, registered once, and sends only a tiny
:class:`SharedPayload` handle (segment name + per-buffer byte spans +
dtype/shape metadata inside the pickle stream). The receiver attaches
the segment by name and rebuilds ndarrays as **views into the segment**
— the column bytes are never copied again.

Segments are :class:`multiprocessing.shared_memory.SharedMemory` regions
(``/dev/shm`` on Linux); payloads under :data:`MIN_SEGMENT_BYTES` skip the
segment and travel inline in the handle.

Lifecycle
---------

Segments are owned by their **creator**: every segment created by this
process is tracked in a module registry and unlinked by
:func:`cleanup_segments` (called by the pool driver after each fan-out,
and at interpreter exit). Receivers attach and close but never unlink.
A worker that dies mid-task therefore cannot leak driver-created
segments — the driver's ``finally`` sweeps them — and worker-created
result segments use driver-chosen names, so the driver can sweep those
too without hearing back from the worker (see
:func:`repro.chopper.parallel.run_specs`).
"""

from __future__ import annotations

import atexit
import os
import pickle
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

PICKLE_PROTOCOL = 5

# Payloads whose out-of-band buffers total fewer bytes than this inline
# into the handle instead of paying segment setup (two syscalls + a
# page-granular mapping) for a few KB.
MIN_SEGMENT_BYTES = 16 * 1024

_ALIGN = 64  # buffer alignment inside a segment (cache line / SIMD)


def _untrack(name: str) -> None:
    """Opt a segment out of the resource tracker's leak accounting.

    Lifecycle here is explicit (creator unlinks, :mod:`atexit` sweeps),
    and the tracker double-unlinking a segment that crossed a process
    boundary only produces shutdown noise. Private API, so best-effort.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


class Segment:
    """One shared-memory region with a name and a buffer."""

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self.name = shm.name
        self.buf = shm.buf  # writable memoryview over the whole region
        self._shm: Optional[shared_memory.SharedMemory] = shm

    def close(self) -> None:
        """Drop this process's mapping (views must be released first)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        self.buf = None
        try:
            shm.close()
        except BufferError:
            # A live ndarray still views the mapping; leave it to the
            # garbage collector — unlink already happened or will happen
            # by name, which does not need the mapping.
            pass
        # SharedMemory.__del__ retries close() and would spam
        # "Exception ignored: BufferError" for mappings with live
        # views; the instance attribute shadows the method, so the
        # retry becomes a no-op and the GC reclaims the mapping
        # together with the last view.
        shm.close = lambda: None

    def unlink(self) -> None:
        self.close()
        unlink_ref(self.name)
        _LIVE.pop(self.name, None)


# Segments created (and thus owned) by this process, by name.
_LIVE: Dict[str, Segment] = {}


_seq = 0


def next_name(prefix: str = "") -> str:
    """A process-unique segment name (creator's pid + a counter)."""
    global _seq
    _seq += 1
    return f"repro-{prefix}{os.getpid()}-{_seq}"


def create_segment(nbytes: int, name: Optional[str] = None) -> Segment:
    """Allocate a named segment of ``nbytes`` and register it as owned."""
    shm = shared_memory.SharedMemory(
        create=True, size=max(1, nbytes), name=name or next_name()
    )
    _untrack(shm.name)
    seg = Segment(shm)
    _LIVE[seg.name] = seg
    return seg


def attach_segment(name: str) -> Segment:
    """Map an existing segment created by another process (read/write)."""
    shm = shared_memory.SharedMemory(name=name)
    _untrack(shm.name)
    return Segment(shm)


def unlink_ref(name: str) -> bool:
    """Remove a segment by name, regardless of which process created it.

    Returns True when something was actually removed — False means the
    segment never existed or is already gone (idempotent sweeps).
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    # No _untrack here: attaching registered the name once, and
    # unlink() below unregisters it — balanced without our help.
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - unlink race
        return False
    return True


def cleanup_segments() -> int:
    """Unlink every segment this process still owns; returns the count."""
    count = 0
    for name in list(_LIVE):
        seg = _LIVE.pop(name, None)
        if seg is None:
            continue
        seg.close()
        if unlink_ref(seg.name):
            count += 1
    return count


atexit.register(cleanup_segments)


@dataclass
class SharedPayload:
    """A picklable handle to a payload parked in shared memory.

    ``meta_span`` is the byte span of the pickle stream inside the
    segment and ``buffer_spans`` the spans of its out-of-band buffers
    (in ``buffer_callback`` order). ``segment`` is the segment's name;
    when it is None the payload was too small to justify a segment and
    travels inline instead.
    """

    segment: Optional[str]
    meta_span: Tuple[int, int]
    buffer_spans: List[Tuple[int, int]]
    inline: Optional[Tuple[bytes, List[bytes]]] = None
    payload_bytes: int = 0


@dataclass
class DecodedPayload:
    """A decoded payload plus the mapping its buffers may alias.

    Call :meth:`close` after the object (and anything borrowing its
    buffers) is no longer needed; with ``copy=True`` decoding, close is
    a no-op and the object owns its memory outright.
    """

    obj: Any
    _segment: Optional[Segment] = field(default=None, repr=False)

    def close(self) -> None:
        self.obj = None
        if self._segment is not None:
            self._segment.close()
            self._segment = None


def encode_shared(obj: Any, name: Optional[str] = None) -> SharedPayload:
    """Park ``obj`` in a shared segment; returns the (tiny) handle.

    The pickle stream plus every protocol-5 out-of-band buffer (ndarray
    columns, byte blobs) is packed into one segment — registered once,
    however many buffers the payload carries.
    """
    buffers: List[pickle.PickleBuffer] = []
    meta = pickle.dumps(obj, protocol=PICKLE_PROTOCOL, buffer_callback=buffers.append)
    views = [b.raw() for b in buffers]
    total = len(meta) + sum(v.nbytes for v in views)
    if total < MIN_SEGMENT_BYTES:
        inline = (meta, [bytes(v) for v in views])
        for b in buffers:
            b.release()
        return SharedPayload(
            segment=None, meta_span=(0, len(meta)), buffer_spans=[],
            inline=inline, payload_bytes=total,
        )
    spans: List[Tuple[int, int]] = []
    offset = _aligned(len(meta))
    for view in views:
        spans.append((offset, view.nbytes))
        offset = _aligned(offset + view.nbytes)
    seg = create_segment(offset, name=name)
    seg.buf[: len(meta)] = meta
    for (start, length), view in zip(spans, views):
        seg.buf[start : start + length] = view.cast("B")
    for b in buffers:
        b.release()
    payload = SharedPayload(
        segment=seg.name, meta_span=(0, len(meta)), buffer_spans=spans,
        payload_bytes=total,
    )
    # Keep the creator's mapping open until unlink — cheap, and lets
    # same-process decodes alias it without re-attaching.
    return payload


def decode_shared(payload: SharedPayload, copy: bool = False) -> DecodedPayload:
    """Rebuild the object behind a handle.

    ``copy=False`` (the zero-copy path) returns buffers aliasing the
    segment: ndarrays point straight at shared memory and the caller
    must :meth:`DecodedPayload.close` when done. ``copy=True``
    materializes private copies so the segment can be unlinked
    immediately (the driver's result-merge path).
    """
    if payload.inline is not None:
        meta, raw = payload.inline
        obj = pickle.loads(meta, buffers=raw)
        return DecodedPayload(obj)
    assert payload.segment is not None
    seg = _LIVE.get(payload.segment)
    attached = seg is None
    if attached:
        seg = attach_segment(payload.segment)
    start, length = payload.meta_span
    meta = bytes(seg.buf[start : start + length])
    views = [seg.buf[s : s + n] for s, n in payload.buffer_spans]
    if copy:
        obj = pickle.loads(meta, buffers=[bytes(v) for v in views])
        del views
        if attached:
            seg.close()
        return DecodedPayload(obj)
    obj = pickle.loads(meta, buffers=views)
    return DecodedPayload(obj, _segment=seg if attached else None)


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN
