"""Shared-memory data plane: round trips, zero-copy, lifecycle.

The leak tests are the important ones: every segment created by a test
must be gone from ``/dev/shm`` by the time the test ends, including when
a pool worker dies mid-task.
"""

import os

import numpy as np
import pytest

from repro.engine import shm
from repro.engine.batch import RecordBatch


def _segment_names():
    """Names of repro segments currently visible to this process."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {n for n in os.listdir("/dev/shm") if n.startswith("repro-")}


@pytest.fixture(autouse=True)
def no_leaks():
    before = _segment_names()
    yield
    shm.cleanup_segments()
    leaked = _segment_names() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


class TestRoundTrip:
    def test_large_payload_uses_segment(self):
        obj = {"cols": np.arange(10_000, dtype=np.int64), "tag": "x"}
        payload = shm.encode_shared(obj)
        assert payload.segment is not None
        decoded = shm.decode_shared(payload)
        assert decoded.obj["tag"] == "x"
        assert np.array_equal(decoded.obj["cols"], obj["cols"])
        decoded.close()

    def test_small_payload_inlines(self):
        payload = shm.encode_shared([1, 2, 3])
        assert payload.segment is None
        assert payload.inline is not None
        decoded = shm.decode_shared(payload)
        assert decoded.obj == [1, 2, 3]

    def test_copy_decode_owns_its_memory(self):
        obj = np.arange(10_000, dtype=np.int64)
        payload = shm.encode_shared(obj)
        decoded = shm.decode_shared(payload, copy=True)
        arr = decoded.obj
        shm.cleanup_segments()  # segment gone; the copy must survive
        assert int(arr.sum()) == int(obj.sum())

    def test_record_batch_round_trip(self):
        batch = RecordBatch(
            np.arange(8_000, dtype=np.int64),
            np.arange(8_000, dtype=np.float64),
        )
        payload = shm.encode_shared(batch)
        decoded = shm.decode_shared(payload)
        assert np.array_equal(decoded.obj.keys, batch.keys)
        assert np.array_equal(decoded.obj.values, batch.values)
        decoded.close()

    def test_zero_copy_columns_alias_segment(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no POSIX shared memory on this platform")
        batch = RecordBatch(
            np.arange(8_000, dtype=np.int64),
            np.arange(8_000, dtype=np.float64),
        )
        payload = shm.encode_shared(batch)
        decoded = shm.decode_shared(payload)
        # The decoded key column is a view, not a copy: no ndarray base
        # owning fresh memory of the same size.
        assert not decoded.obj.keys.flags.owndata
        decoded.close()


class TestLifecycle:
    def test_cleanup_unlinks_owned_segments(self):
        shm.encode_shared(np.arange(10_000, dtype=np.int64))
        shm.encode_shared(np.arange(10_000, dtype=np.int64))
        assert shm.cleanup_segments() == 2
        assert shm.cleanup_segments() == 0  # idempotent

    def test_unlink_ref_is_idempotent(self):
        payload = shm.encode_shared(np.arange(10_000, dtype=np.int64))
        ref = payload.segment
        assert shm.unlink_ref(ref) is True
        assert shm.unlink_ref(ref) is False
        shm._LIVE.pop(ref, None)  # already unlinked by name

    def test_unlink_never_created_returns_false(self):
        assert shm.unlink_ref("repro-never-created-xyz") is False

    def test_driver_chosen_name(self):
        name = shm.next_name("test-")
        payload = shm.encode_shared(
            np.arange(10_000, dtype=np.int64), name=name
        )
        assert payload.segment == name
        # A crashed receiver never reports back; the creator sweeps by
        # the name it chose up front.
        assert shm.unlink_ref(name) is True
        shm._LIVE.pop(name, None)

    def test_next_name_unique(self):
        names = {shm.next_name() for _ in range(100)}
        assert len(names) == 100
        assert all(str(os.getpid()) in n for n in names)
