"""Memory-budgeted spill-to-disk: SpillManager, BlockStore, shuffle.

The invariant under test throughout: a memory budget changes where
payload bytes physically live, and **nothing else** — simulated clocks,
metrics, records, ledger bodies (minus the spill section) are
bit-identical with and without a budget, including under chaos node
loss.
"""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.common.errors import ConfigurationError, StorageError
from repro.engine.batch import RecordBatch
from repro.engine.context import AnalyticsContext, EngineConf
from repro.engine.shuffle import MapOutput, ShuffleManager
from repro.engine.storage import BlockStore, SpillManager
from tests.engine.test_shuffle import map_output

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture
def spill(tmp_path):
    manager = SpillManager(100.0, directory=str(tmp_path))
    yield manager
    manager.close()


class TestSpillManager:
    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SpillManager(0)
        with pytest.raises(ConfigurationError):
            SpillManager(-5.0)
        with pytest.raises(ConfigurationError):
            SpillManager(float("nan"))

    def test_within_budget_stays_resident(self, spill):
        store = BlockStore(spill=spill)
        store.put(1, 0, [1, 2, 3], 60.0, "a")
        assert spill.spill_events == 0
        assert not store.get(1, 0).is_spilled
        assert spill._resident_bytes == 60.0

    def test_lru_spills_past_budget(self, spill):
        store = BlockStore(spill=spill)
        store.put(1, 0, ["old"], 60.0, "a")
        store.put(1, 1, ["new"], 60.0, "a")
        # 120 > 100: the oldest block went to disk, the new one stayed.
        assert spill.spill_events == 1
        assert store.peek(1, 0).is_spilled
        assert not store.peek(1, 1).is_spilled
        assert spill.live_spilled_bytes == 60.0

    def test_spilled_records_read_back_identically(self, spill):
        store = BlockStore(spill=spill)
        payload = [("k", i) for i in range(50)]
        store.put(1, 0, list(payload), 80.0, "a")
        store.put(1, 1, [], 80.0, "a")  # pushes block 0 to disk
        block = store.peek(1, 0)
        assert block.is_spilled
        assert block.records == payload
        # Every read deserializes afresh; the virtual size is untouched.
        assert block.records is not block.records
        assert block.nbytes == 80.0
        assert spill.spill_reads >= 2

    def test_get_refreshes_spill_recency(self, spill):
        store = BlockStore(spill=spill)
        store.put(1, 0, ["a"], 40.0, "a")
        store.put(1, 1, ["b"], 40.0, "a")
        store.get(1, 0)  # 0 becomes most-recent
        store.put(1, 2, ["c"], 40.0, "a")  # 120 > 100: spills LRU = block 1
        assert store.peek(1, 1).is_spilled
        assert not store.peek(1, 0).is_spilled

    def test_forget_is_idempotent_and_never_negative(self, spill):
        store = BlockStore(spill=spill)
        store.put(1, 0, ["x"], 60.0, "a")
        block = store.peek(1, 0)
        spill.forget(block)
        spill.forget(block)  # double-forget must not go negative
        assert spill._resident_bytes == 0.0
        assert spill.live_spilled_bytes == 0.0

    def test_virtual_accounting_unchanged_by_spill(self, spill):
        store = BlockStore(spill=spill)
        store.put(1, 0, ["a"], 70.0, "a")
        store.put(1, 1, ["b"], 70.0, "b")
        assert spill.spill_events == 1
        # Virtual per-node totals are exactly what an unbudgeted store
        # would report: spilling is simulation-invisible.
        assert store._node_bytes.get("a", 0.0) == 70.0
        assert store._node_bytes.get("b", 0.0) == 70.0
        assert store.total_bytes() == 140.0

    def test_disk_bytes_accounted(self, spill):
        store = BlockStore(spill=spill)
        store.put(1, 0, list(range(100)), 80.0, "a")
        store.put(1, 1, [], 80.0, "a")
        assert spill.spilled_bytes == 80.0  # virtual
        assert spill.spilled_disk_bytes > 0  # physical (frame size)
        blocks = os.path.join(spill.directory, "blocks.dat")
        assert spill.spilled_disk_bytes == os.path.getsize(blocks)

    def test_close_removes_block_directory(self, tmp_path):
        manager = SpillManager(10.0, directory=str(tmp_path))
        store = BlockStore(spill=manager)
        store.put(1, 0, ["payload"], 50.0, "a")  # immediately over budget
        assert manager.spill_events == 1
        spill_dir = manager.directory
        assert os.path.isdir(spill_dir)
        manager.close()
        manager.close()  # idempotent
        assert not os.path.exists(spill_dir)
        # The caller-provided parent directory is left alone.
        assert os.path.isdir(str(tmp_path))


    @pytest.mark.parametrize("payload", [
        [("k", i) for i in range(20)],  # pickle fallback
        [np.arange(4.0) + i for i in range(20)],  # array frame
    ], ids=["pickle", "frame"])
    @pytest.mark.parametrize("at", [0, 1, 3, 8], ids=lambda at: f"byte{at}")
    def test_damaged_block_fails_with_storage_error(self, spill, payload, at):
        """Flipped bytes in one extent (tag, dtype, shape or pickle
        stream) surface as StorageError, not as whatever the decoder
        raises; the neighbouring extent still reads."""
        store = BlockStore(spill=spill)
        store.put(1, 0, list(payload), 60.0, "a")
        store.put(1, 1, list(payload), 60.0, "a")
        store.put(1, 2, [], 60.0, "a")  # 180 > 100: blocks 0 and 1 on disk
        damaged, intact = store.peek(1, 0), store.peek(1, 1)
        assert damaged.is_spilled and intact.is_spilled
        with open(os.path.join(spill.directory, "blocks.dat"), "r+b") as fh:
            fh.seek(damaged.spill.offset + at)
            fh.write(b"\xff" * 4)
        with pytest.raises(StorageError, match=f"at {damaged.spill.offset}:"):
            damaged.records
        assert pickle.dumps(intact.records) == pickle.dumps(payload)


class _Sub(np.ndarray):
    """An ndarray subclass: carries behaviour a frame cannot represent."""


def _spilled_block(records):
    """``records`` in a block that spilled at admission; (manager, block)."""
    manager = SpillManager(1.0)
    store = BlockStore(spill=manager)
    store.put(1, 0, records, 50.0, "a")
    block = store.peek(1, 0)
    assert block.is_spilled
    return manager, block


def _frame_tag(manager) -> bytes:
    with open(os.path.join(manager.directory, "blocks.dat"), "rb") as fh:
        return fh.read(1)


@st.composite
def _array_rows(draw):
    """Equal-shape, equal-dtype rows, some of them non-contiguous views."""
    dtype = np.dtype(draw(st.sampled_from(["f8", "f4", "i8", "u1", "bool", "c16"])))
    shape = draw(st.sampled_from([(), (0,), (1,), (5,), (2, 3)]))
    n = draw(st.integers(1, 6))
    if shape and shape[-1] and draw(st.booleans()):
        wide = draw(hnp.arrays(dtype, (n,) + shape[:-1] + (2 * shape[-1],)))
        return [wide[i, ..., ::2] for i in range(n)]
    stacked = draw(hnp.arrays(dtype, (n,) + shape))
    return [stacked[i, ...] for i in range(n)]


def _special_floats():
    bits = np.array(
        [0x7FF8000000000123, 0xFFF0000000000001, 0x8000000000000000,
         0x7FF0000000000000, 0xFFF0000000000000], dtype="u8",
    )  # NaNs with payload bits, -0.0, +inf, -inf
    rows = bits.view("f8")
    return [rows.copy(), rows[::-1], rows.copy()]  # the middle one is strided


class TestBlockCodec:
    """Round-trip contract of the spill frame codec, through the manager."""

    @settings(max_examples=150, deadline=None)
    @given(_array_rows())
    def test_array_rows_round_trip_in_one_frame(self, rows):
        self._check_framed(rows)

    def test_special_float_bits_survive(self):
        self._check_framed(_special_floats())

    @staticmethod
    def _check_framed(rows):
        manager, block = _spilled_block(list(rows))
        try:
            assert _frame_tag(manager) == b"A"
            back, again = block.records, block.records
        finally:
            manager.close()
        assert type(back) is list and back is not again
        assert len(back) == len(rows)
        for got, want in zip(back, rows):
            assert type(got) is np.ndarray
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and got.flags.writeable
        # One buffer per read-back, not one per record: what keeps a
        # collect() of spilled partitions from doubling RSS.
        assert back[0].base is not None
        assert {id(r.base) for r in back} == {id(back[0].base)}
        assert back[0].base is not again[0].base

    @pytest.mark.parametrize("records", [
        [np.zeros(3), np.zeros(4)],
        [np.zeros(3), np.zeros(3, dtype="f4")],
        [np.array([{"a": 1}, None], dtype=object)] * 2,
        [np.zeros(3).view(_Sub)] * 2,
        [np.zeros(3), (1, 2)],
        [np.zeros(2, dtype=[("x", "f8"), ("y", "i4")])] * 2,
        [("k", 1), ("k", 2)],
        RecordBatch(np.arange(4), np.arange(4.0)),
        ["a", "b"],
        [],
    ], ids=["shapes", "dtypes", "object", "subclass", "mixed", "structured",
            "tuples", "batch", "strings", "empty"])
    def test_other_payloads_keep_the_pickle_encoding(self, records):
        manager, block = _spilled_block(records)
        try:
            assert _frame_tag(manager) == b"P"
            back, again = block.records, block.records
        finally:
            manager.close()
        assert type(back) is type(records) and back is not again
        assert pickle.dumps(back) == pickle.dumps(records)


class TestRemoveAndEvictWithSpilledBlocks:
    """Satellite: _remove / evict_node with on-disk blocks (regression)."""

    def test_remove_spilled_block_releases_extent(self, spill):
        store = BlockStore(spill=spill)
        store.put(1, 0, ["cold"], 60.0, "a")
        store.put(1, 1, ["hot"], 60.0, "a")
        assert store.peek(1, 0).is_spilled
        assert store.evict_rdd(1) == 2
        assert spill.live_spilled_bytes == 0.0
        assert spill._resident_bytes == 0.0
        assert store.total_bytes() == 0.0

    def test_evict_node_holding_only_spilled_blocks(self, spill):
        """A node whose blocks all live on disk must clean up completely:
        no empty node dict, no stale/negative byte totals."""
        store = BlockStore(spill=spill)
        store.put(1, 0, ["a0"], 60.0, "a")
        store.put(1, 1, ["a1"], 50.0, "a")  # spills (1,0)
        store.put(2, 0, ["b0"], 60.0, "b")  # spills (1,1): node a all-disk
        assert store.peek(1, 0).is_spilled and store.peek(1, 1).is_spilled
        assert store.evict_node("a") == 2
        assert store._node_bytes.get("a", 0.0) == 0.0
        assert "a" not in store._by_node
        assert "a" not in store._node_bytes
        assert spill.live_spilled_bytes == 0.0
        # Double eviction is a no-op, never negative.
        assert store.evict_node("a") == 0
        assert store._node_bytes.get("a", 0.0) == 0.0

    def test_overwrite_of_spilled_block_does_not_double_count(self, spill):
        store = BlockStore(spill=spill)
        store.put(1, 0, ["v1"], 60.0, "a")
        store.put(1, 1, ["x"], 60.0, "a")  # spills (1,0)
        store.put(1, 0, ["v2"], 30.0, "b")  # replaces the spilled block
        assert store.get(1, 0).records == ["v2"]
        assert store._node_bytes.get("a", 0.0) == 60.0
        assert store._node_bytes.get("b", 0.0) == 30.0
        assert spill.live_spilled_bytes == 0.0

    def test_clear_forgets_spilled_blocks(self, spill):
        store = BlockStore(spill=spill)
        store.put(1, 0, ["a"], 60.0, "a")
        store.put(1, 1, ["b"], 60.0, "a")
        store.clear()
        assert spill._resident_bytes == 0.0
        assert spill.live_spilled_bytes == 0.0


def _spilled_map_output(spill, buckets=64, per_bucket=5):
    """One registered map output of ``buckets`` buckets, spilled at once."""
    mgr = ShuffleManager(block_header=0.0, spill=spill)
    mgr.register(0, num_maps=1, num_reduces=buckets)
    records = [(f"k{i}", i) for i in range(buckets * per_bucket)]
    rids = [i % buckets for i in range(len(records))]
    output = MapOutput(records, rids, np.full(len(records), 30.0))
    mgr.put_map_output(0, 0, "a", output)  # 9600 virtual bytes > 100
    assert output.is_spilled and spill.spill_events == 1
    return mgr, output, records


class TestShuffleSpill:
    def test_reduce_task_reads_back_only_its_bucket(self, spill):
        """The unit of spill is the map output (one event, one extent);
        the unit of read-back is the bucket (one frame)."""
        mgr, output, records = _spilled_map_output(spill)
        assert spill.live_spilled_bytes == output.nbytes
        assert len(output.frames) == 64 + 1
        assert (output.frames[0], output.frames[-1] - output.frames[0]) == (
            output.spill.offset, output.spill.length,
        )
        blocks = os.path.join(spill.directory, "blocks.dat")
        assert spill.spilled_disk_bytes == os.path.getsize(blocks) == output.spill.length
        fetched, stats = mgr.fetch(0, 17, "a")
        assert fetched == [r for i, r in enumerate(records) if i % 64 == 17]
        assert stats.total_bytes == 5 * 30.0  # virtual accounting unchanged
        frame = int(output.frames[18] - output.frames[17])
        assert (spill.spill_reads, spill.spill_read_disk_bytes) == (1, frame)
        assert frame * 32 < output.spill.length
        # All of it (AQE re-bucketing under a budget): the frames in order.
        assert output.records == sorted(records, key=lambda r: r[1] % 64)
        assert spill.spill_read_disk_bytes == frame + output.spill.length

    @pytest.mark.parametrize("at", [0, 1, 3, 8], ids=lambda at: f"byte{at}")
    def test_damaged_frame_fails_alone(self, spill, at):
        """Flipped bytes in the third frame of a multi-frame extent: its
        fetch names that frame, the frames around it still read."""
        mgr, output, records = _spilled_map_output(spill)
        start, length = int(output.frames[2]), int(output.frames[3] - output.frames[2])
        with open(os.path.join(spill.directory, "blocks.dat"), "r+b") as fh:
            fh.seek(start + at)
            fh.write(b"\xff" * 4)
        with pytest.raises(
            StorageError, match=f"damaged spill block at {start}:{length}:"
        ):
            mgr.fetch(0, 2, "a")
        for reduce_id in (1, 3):
            fetched, _stats = mgr.fetch(0, reduce_id, "a")
            assert fetched == [r for i, r in enumerate(records) if i % 64 == reduce_id]

    def test_shuffle_blocks_spill_and_fetch_transparently(self, spill):
        mgr = ShuffleManager(block_header=0.0, spill=spill)
        mgr.register(0, num_maps=2, num_reduces=1)
        outputs = [map_output({0: ([("k", i)], 80.0)}) for i in (1, 2)]
        mgr.put_map_output(0, 0, "a", outputs[0])
        mgr.put_map_output(0, 1, "b", outputs[1])
        assert spill.spill_events >= 1
        assert any(output.is_spilled for output in outputs)
        records, stats = mgr.fetch(0, 0, "a")
        assert records == [("k", 1), ("k", 2)]
        assert stats.total_bytes == 160.0  # virtual accounting unchanged

    def test_invalidate_node_releases_spilled_extents(self, spill):
        mgr = ShuffleManager(block_header=0.0, spill=spill)
        mgr.register(0, num_maps=2, num_reduces=1)
        mgr.put_map_output(0, 0, "a", map_output({0: ([("k", 1)], 80.0)}))
        mgr.put_map_output(0, 1, "b", map_output({0: ([("k", 2)], 80.0)}))
        lost = mgr.invalidate_node("a")
        assert lost == {0: [0]}
        # The dead node's blocks (spilled or not) left the spill budget.
        total = spill._resident_bytes + spill.live_spilled_bytes
        assert total == 80.0

    def test_replaced_map_output_forgets_old_blocks(self, spill):
        mgr = ShuffleManager(block_header=0.0, spill=spill)
        mgr.register(0, num_maps=1, num_reduces=1)
        mgr.put_map_output(0, 0, "a", map_output({0: ([("k", 1)], 80.0)}))
        mgr.put_map_output(0, 0, "a", map_output({0: ([("k", 9)], 80.0)}))  # re-execution
        total = spill._resident_bytes + spill.live_spilled_bytes
        assert total == 80.0
        records, _ = mgr.fetch(0, 0, "a")
        assert records == [("k", 9)]


def _run_workload(conf: EngineConf):
    """A cached + shuffled pipeline; returns (results, sim time, metrics)."""
    ctx = AnalyticsContext(conf=conf)
    data = ctx.parallelize(range(2000), num_partitions=8)
    cached = data.map(lambda x: (x % 40, x)).cache()
    counts = cached.reduce_by_key(lambda a, b: a + b).collect()
    # Second job re-reads the cached RDD (hits, possibly from disk).
    evens = cached.filter(lambda kv: kv[0] % 2 == 0).count()
    snapshot = ctx.obs.metrics.snapshot()
    # Spill counters are expected to differ; everything else must not.
    metrics = {
        section: (
            {
                k: v for k, v in series.items()
                if not k.startswith(("spill.", "shuffle.spilled"))
            }
            if isinstance(series, dict) else series
        )
        for section, series in snapshot.items()
    }
    out = (sorted(counts), evens, ctx.now, metrics)
    ctx.close()
    return out


class TestBitIdentityUnderBudget:
    def test_budgeted_run_identical_to_unbudgeted(self, tmp_path):
        base = _run_workload(EngineConf(default_parallelism=8))
        tight = _run_workload(
            EngineConf(
                default_parallelism=8,
                memory_budget=2048.0,
                spill_dir=str(tmp_path),
            )
        )
        assert pickle.dumps(base) == pickle.dumps(tight)

    def test_spill_actually_happened(self, tmp_path):
        conf = EngineConf(
            default_parallelism=8, memory_budget=2048.0,
            spill_dir=str(tmp_path),
        )
        ctx = AnalyticsContext(conf=conf)
        data = ctx.parallelize(range(2000), num_partitions=8)
        data.map(lambda x: (x % 40, x)).reduce_by_key(lambda a, b: a + b).collect()
        assert ctx.spill.spill_events > 0
        assert ctx.spill.spilled_bytes > 0
        ctx.close()

    def test_chaos_node_loss_identical_under_budget(self, tmp_path):
        def run(budget):
            conf = EngineConf(
                default_parallelism=8,
                node_failure_times={"B": 5.0},
                node_recovery_delay=0.0,
                memory_budget=budget,
                spill_dir=str(tmp_path) if budget else None,
            )
            ctx = AnalyticsContext(conf=conf)
            data = ctx.parallelize(range(3000), num_partitions=12)
            out = (
                data.map(lambda x: (x % 50, 1))
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
            result = (sorted(out), ctx.now)
            spilled = ctx.spill.spilled_bytes if ctx.spill else 0.0
            ctx.close()
            return result, spilled

        base, _ = run(None)
        lossy, spilled = run(1024.0)
        assert spilled > 0, "budget was not tight enough to exercise spill"
        assert pickle.dumps(base) == pickle.dumps(lossy)

    def test_threads_and_budget_identical(self, tmp_path):
        base = _run_workload(EngineConf(default_parallelism=8))
        threaded = _run_workload(
            EngineConf(
                default_parallelism=8,
                physical_parallelism=4,
                memory_budget=2048.0,
                spill_dir=str(tmp_path),
            )
        )
        assert pickle.dumps(base) == pickle.dumps(threaded)


class TestConfValidation:
    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            EngineConf(memory_budget=0.0)
        with pytest.raises(ConfigurationError):
            EngineConf(memory_budget=-1.0)

    def test_spill_dir_requires_budget(self):
        with pytest.raises(ConfigurationError):
            EngineConf(spill_dir="/tmp/somewhere")

    def test_context_close_idempotent(self, tmp_path):
        ctx = AnalyticsContext(
            conf=EngineConf(memory_budget=1024.0, spill_dir=str(tmp_path))
        )
        spill_dir = ctx.spill.directory
        ctx.close()
        ctx.close()
        assert not os.path.exists(spill_dir)

    def test_close_cleans_up_when_cache_flush_fails(self, tmp_path):
        """A cache write error at close() surfaces, but never leaks the
        spill directory or the blocks."""
        import sqlite3

        from repro.relational import Table, col, lit

        cache_path = str(tmp_path / "q.db")
        ctx = AnalyticsContext(
            conf=EngineConf(
                default_parallelism=4,
                memory_budget=1024.0,
                spill_dir=str(tmp_path),
                result_cache="sqlite",
                result_cache_path=cache_path,
            )
        )
        rdd = ctx.source(
            lambda split, splits: [(split * 10 + i, i) for i in range(10)],
            4, op_name="ids", version="v1",
        )
        table = Table.from_rdd(rdd, ["id", "val"], optimize=True)
        assert len(table.where(col("id") < lit(15)).collect()) == 15
        assert ctx.zone_maps.tables()  # flush will write
        spill_dir = ctx.spill.directory
        assert os.path.isdir(spill_dir)
        # Break the cache file under the open context: the flush fails.
        other = sqlite3.connect(cache_path)
        other.execute("DROP TABLE zone_maps")
        other.close()
        with pytest.raises(ConfigurationError, match="sqlite cache"):
            ctx.close()
        assert not os.path.exists(spill_dir)
        assert ctx.block_store.total_bytes() == 0.0
