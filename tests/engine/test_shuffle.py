"""Tests for the shuffle manager's registry and fetch accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ShuffleError
from repro.engine.batch import RecordBatch, as_record_list
from repro.engine.shuffle import MapOutput, ShuffleManager, _gather


@pytest.fixture
def mgr():
    return ShuffleManager(block_header=10.0)


def map_output(buckets):
    """The consolidated output holding ``{reduce_id: (records, payload)}``.

    Empty buckets are dropped, a single bucket keeps its container, and
    the write total folds in the dict's order. A bucket's first record
    carries its whole payload, so the kernel's fold reproduces it exactly.
    """
    live = {rid: bucket for rid, bucket in buckets.items() if len(bucket[0])}
    rids, weights = [], []
    for rid, (records, payload) in live.items():
        rids += [rid] * len(records)
        weights += [payload] + [0.0] * (len(records) - 1)
    spans = [(recs, 0, len(recs)) for recs, _ in live.values()]
    return MapOutput(_gather(spans, None), rids, np.array(weights))


def buckets_of(output):
    """``[(reduce_id, records, payload)]`` read off a consolidated output,
    in the order the write total folds them."""
    records = as_record_list(output.records)
    slots = range(len(output)) if output.order is None else output.order.tolist()
    return [
        (
            int(output.rids[slot]),
            records[output.offsets[slot] : output.offsets[slot + 1]],
            float(output.payload[slot]),
        )
        for slot in slots
    ]


def put(mgr, shuffle_id, map_id, node, blocks):
    return mgr.put_map_output(shuffle_id, map_id, node, map_output(blocks))


class TestRegistry:
    def test_fetch_unregistered_raises(self, mgr):
        with pytest.raises(ShuffleError):
            mgr.fetch(99, 0, "a")

    def test_reregister_same_dims_is_noop(self, mgr):
        """Resubmitted map stages re-register; stored blocks must survive."""
        mgr.register(1, 1, 2)
        put(mgr, 1, 0, "a", {0: ([("k", 1)], 100.0)})
        mgr.register(1, 1, 2)
        assert mgr.bytes_written(1) == pytest.approx(110.0)
        records, _stats = mgr.fetch(1, 0, "a")
        assert records == [("k", 1)]

    def test_reregister_different_dims_raises(self, mgr):
        mgr.register(1, 2, 2)
        with pytest.raises(ShuffleError, match="different dimensions"):
            mgr.register(1, 2, 4)
        with pytest.raises(ShuffleError, match="different dimensions"):
            mgr.register(1, 3, 2)

    def test_out_of_range_map_id(self, mgr):
        mgr.register(1, 2, 2)
        with pytest.raises(ShuffleError):
            put(mgr, 1, 5, "a", {0: ([("k", 1)], 1.0)})

    def test_out_of_range_reduce_id(self, mgr):
        mgr.register(1, 1, 2)
        with pytest.raises(ShuffleError):
            put(mgr, 1, 0, "a", {7: ([("k", 1)], 1.0)})


class TestWriteAccounting:
    def test_header_added_per_nonempty_block(self, mgr):
        mgr.register(1, 1, 3)
        written = put(
            mgr, 1, 0, "a",
            {0: ([("k", 1)], 100.0), 1: ([], 0.0), 2: ([("j", 2)], 50.0)},
        )
        assert written == pytest.approx(100.0 + 50.0 + 2 * 10.0)

    def test_bytes_written_accumulates(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("k", 1)], 30.0)})
        put(mgr, 1, 1, "b", {0: ([("k", 2)], 20.0)})
        assert mgr.bytes_written(1) == pytest.approx(30.0 + 20.0 + 2 * 10.0)

    def test_num_reduces(self, mgr):
        mgr.register(3, 1, 7)
        assert mgr.num_reduces(3) == 7


class TestFetch:
    def test_fetch_before_all_maps_raises(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("k", 1)], 1.0)})
        with pytest.raises(ShuffleError):
            mgr.fetch(1, 0, "a")

    def test_fetch_collects_records_in_map_order(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 1.0)})
        put(mgr, 1, 1, "b", {0: ([("y", 2)], 1.0)})
        records, _stats = mgr.fetch(1, 0, "a")
        assert records == [("x", 1), ("y", 2)]

    def test_local_vs_remote_accounting(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 100.0)})
        put(mgr, 1, 1, "b", {0: ([("y", 2)], 40.0)})
        _records, stats = mgr.fetch(1, 0, "a")
        assert stats.local_bytes == pytest.approx(110.0)
        assert stats.remote_bytes_by_src == {"b": pytest.approx(50.0)}
        assert stats.remote_bytes == pytest.approx(50.0)
        assert stats.total_bytes == pytest.approx(160.0)
        assert stats.n_blocks == 2

    def test_empty_blocks_not_fetched(self, mgr):
        mgr.register(1, 2, 2)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 1.0)})
        put(mgr, 1, 1, "b", {1: ([("y", 2)], 1.0)})
        records, stats = mgr.fetch(1, 0, "c")
        assert records == [("x", 1)]
        assert stats.n_blocks == 1

    def test_map_output_nodes(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 100.0)})
        put(mgr, 1, 1, "a", {0: ([("y", 2)], 30.0)})
        by_node = mgr.map_output_nodes(1, 0)
        assert by_node == {"a": pytest.approx(150.0)}

    def test_clear(self, mgr):
        mgr.register(1, 1, 1)
        mgr.clear()
        with pytest.raises(ShuffleError):
            mgr.bytes_written(1)


class TestReexecution:
    def test_overwrite_map_output_does_not_double_count(self, mgr):
        """Speculative/retried map tasks replace their blocks."""
        mgr.register(1, 1, 2)
        put(mgr, 1, 0, "a", {0: ([("k", 1)], 100.0)})
        put(mgr, 1, 0, "b", {0: ([("k", 1)], 100.0)})
        assert mgr.bytes_written(1) == pytest.approx(110.0)
        records, stats = mgr.fetch(1, 0, "b")
        assert records == [("k", 1)]
        assert stats.local_bytes == pytest.approx(110.0)

    def test_rerun_on_different_node_moves_block(self, mgr):
        """A map task re-run on another node relocates its output fully."""
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 100.0)})
        put(mgr, 1, 1, "c", {0: ([("y", 2)], 40.0)})
        # Map 0 re-runs on node b (retry or speculation win there).
        put(mgr, 1, 0, "b", {0: ([("x", 1)], 100.0)})
        # Locality view reports the new node only — no ghost copy on a.
        by_node = mgr.map_output_nodes(1, 0)
        assert by_node == {"b": pytest.approx(110.0), "c": pytest.approx(50.0)}
        assert mgr.bytes_written(1) == pytest.approx(110.0 + 50.0)
        # Fetch accounting follows the block to its new home.
        _records, stats = mgr.fetch(1, 0, "b")
        assert stats.local_bytes == pytest.approx(110.0)
        assert stats.remote_bytes_by_src == {"c": pytest.approx(50.0)}


class TestZeroCopyFetch:
    def test_single_block_returns_registered_container(self, mgr):
        """One non-empty contributing block: fetch hands it back uncopied."""
        mgr.register(1, 2, 2)
        block = [("x", 1), ("y", 2)]
        put(mgr, 1, 0, "a", {0: (block, 1.0)})
        put(mgr, 1, 1, "b", {1: ([("z", 3)], 1.0)})
        records, _stats = mgr.fetch(1, 0, "a")
        assert records is block

    def test_single_batch_block_returns_same_batch(self):
        """A batch with no column to narrow is stored as it is, and a
        single-span fetch hands it back uncopied."""
        for pairs in (
            [("été", 1), ("ü", 2)],  # non-ASCII keys, int64 values
            [("é", 0.1), ("ü", 2.0**24 + 1)],  # values float32 cannot hold
            [(7, 0.1), (8, -2.0)],  # int64 keys
        ):
            mgr = ShuffleManager(block_header=10.0)
            mgr.register(1, 2, 2)
            batch = RecordBatch.from_records(pairs)
            assert isinstance(batch.keys, np.ndarray)
            assert isinstance(batch.values, np.ndarray)
            put(mgr, 1, 0, "a", {0: (batch, 1.0)})
            put(mgr, 1, 1, "b", {1: ([("z", 3)], 1.0)})
            records, _stats = mgr.fetch(1, 0, "a")
            assert records is batch

    @pytest.mark.parametrize("pairs", [
        [("x", 1), ("y", 2)],  # ASCII keys
        [("été", 1.0), ("ü", -0.0)],  # float32-exact values
        [("x", 1.0), ("yy", float("inf"))],  # both
    ], ids=["ascii_int", "non_ascii_exact", "ascii_exact"])
    def test_single_packed_block_returns_widened_batch(self, mgr, pairs):
        """A batch with a column to narrow is stored packed: a single-span
        fetch returns a fresh batch with the stored dtypes and bytes."""
        mgr.register(1, 2, 2)
        batch = RecordBatch.from_records(pairs)
        put(mgr, 1, 0, "a", {0: (batch, 1.0)})
        put(mgr, 1, 1, "b", {1: ([("z", 3)], 1.0)})
        records, _stats = mgr.fetch(1, 0, "a")
        assert isinstance(records, RecordBatch) and records is not batch
        for got, want in ((records.keys, batch.keys), (records.values, batch.values)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert _typed(records.to_records()) == _typed(pairs)

    def test_multi_block_fetch_does_not_mutate_registered_lists(self, mgr):
        mgr.register(1, 2, 1)
        block_a = [("x", 1)]
        block_b = [("y", 2)]
        put(mgr, 1, 0, "a", {0: (block_a, 1.0)})
        put(mgr, 1, 1, "b", {0: (block_b, 1.0)})
        records, _stats = mgr.fetch(1, 0, "a")
        assert records == [("x", 1), ("y", 2)]
        assert records is not block_a and records is not block_b
        # Repeated fetches (task retries, speculation) see pristine blocks.
        assert block_a == [("x", 1)] and block_b == [("y", 2)]
        again, _stats = mgr.fetch(1, 0, "a")
        assert again == [("x", 1), ("y", 2)]

    def test_multi_block_fetch_does_not_mutate_registered_batches(self, mgr):
        mgr.register(1, 2, 1)
        batch_a = RecordBatch.from_records([("x", 1.5), ("y", 2.5)])
        batch_b = RecordBatch.from_records([("z", 3.5)])
        put(mgr, 1, 0, "a", {0: (batch_a, 1.0)})
        put(mgr, 1, 1, "b", {0: (batch_b, 1.0)})
        records, _stats = mgr.fetch(1, 0, "a")
        assert isinstance(records, RecordBatch)
        assert records.to_records() == [("x", 1.5), ("y", 2.5), ("z", 3.5)]
        assert batch_a.to_records() == [("x", 1.5), ("y", 2.5)]
        assert batch_b.to_records() == [("z", 3.5)]

    def test_gather_keeps_span_order(self):
        a = RecordBatch.from_records([("a", 1), ("q", 9)])
        b = RecordBatch.from_records([("b", 2), ("c", 3)])
        got = _gather([(a, 0, 1), (b, 0, 2)], (a.keys.dtype, a.values.dtype))
        assert isinstance(got, RecordBatch)
        assert got.to_records() == [("a", 1), ("b", 2), ("c", 3)]
        assert got.keys.flags.writeable and got.values.flags.writeable

    def test_gather_widens_a_column_whose_width_varies(self):
        a = RecordBatch.from_records([("a", 1.5)])
        b = RecordBatch.from_records([("été", 2.5), ("bb", 0.5)])
        got = _gather([(a, 0, 1), (b, 1, 2), (b, 0, 1)], (None, a.values.dtype))
        assert got.keys.dtype == b.keys.dtype
        assert got.to_records() == [("a", 1.5), ("bb", 0.5), ("été", 2.5)]

    def test_gather_mixed_column_kinds(self):
        a = RecordBatch.from_records([("a", 1)])
        b = RecordBatch.from_records([("b", None)])
        assert _gather([(a, 0, 1), (b, 0, 1)], None) == [("a", 1), ("b", None)]

    def test_mixed_block_types_flatten_to_records(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: (RecordBatch.from_records([("x", 1)]), 1.0)})
        put(mgr, 1, 1, "b", {0: ([("y", 2)], 1.0)})
        records, _stats = mgr.fetch(1, 0, "a")
        assert list(records) == [("x", 1), ("y", 2)]


class TestNodeLoss:
    def test_invalidate_node_reports_lost_maps(self, mgr):
        mgr.register(1, 2, 1)
        mgr.register(2, 1, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 100.0)})
        put(mgr, 1, 1, "b", {0: ([("y", 2)], 40.0)})
        put(mgr, 2, 0, "a", {0: ([("z", 3)], 10.0)})
        lost = mgr.invalidate_node("a")
        assert lost == {1: [0], 2: [0]}
        assert mgr.missing_map_ids(1) == [0]
        assert mgr.missing_map_ids(2) == [0]
        # Surviving bytes only.
        assert mgr.bytes_written(1) == pytest.approx(50.0)
        assert mgr.bytes_written(2) == pytest.approx(0.0)

    def test_invalidate_node_without_outputs_is_empty(self, mgr):
        mgr.register(1, 1, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 1.0)})
        assert mgr.invalidate_node("zz") == {}
        assert mgr.missing_map_ids(1) == []

    def test_fetch_after_loss_raises_typed_failure(self, mgr):
        from repro.common.errors import FetchFailure

        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 100.0)})
        put(mgr, 1, 1, "b", {0: ([("y", 2)], 40.0)})
        mgr.invalidate_node("a")
        with pytest.raises(FetchFailure) as exc_info:
            mgr.fetch(1, 0, "b")
        failure = exc_info.value
        assert isinstance(failure, ShuffleError)
        assert failure.shuffle_id == 1
        assert failure.map_ids == [0]
        assert failure.node == "a"

    def test_rebuilt_output_heals_shuffle(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 100.0)})
        put(mgr, 1, 1, "b", {0: ([("y", 2)], 40.0)})
        mgr.invalidate_node("a")
        put(mgr, 1, 0, "b", {0: ([("x", 1)], 100.0)})
        assert mgr.missing_map_ids(1) == []
        records, _stats = mgr.fetch(1, 0, "b")
        assert records == [("x", 1), ("y", 2)]


# ----------------------------------------------------------------------
# The consolidated layout against a dict-of-lists model
# ----------------------------------------------------------------------


class _DictModel:
    """One Python object per (map, reduce) pair: the layout the arrays
    replaced, kept as the reference. ``blocks[map_id][reduce_id]`` is
    ``(records, nbytes)``; both dicts are walked in insertion order, which
    is where every float total gets its summation order from."""

    def __init__(self, num_maps, num_reduces, header):
        self.num_maps, self.num_reduces, self.header = num_maps, num_reduces, header
        self.blocks, self.nodes, self.written = {}, {}, {}
        self.bytes_written = 0.0

    def put(self, map_id, node, records, rids, weights):
        buckets = {}
        for record, rid, weight in zip(records, rids, weights):
            recs, payload = buckets.get(rid, ([], 0.0))
            buckets[rid] = (recs + [record], payload + weight)
        if map_id in self.blocks:
            self.bytes_written -= self.written[map_id]
        written = 0.0
        blocks = {}
        for rid, (recs, payload) in buckets.items():
            blocks[rid] = (recs, payload + self.header)
            written += payload + self.header
        self.blocks[map_id] = blocks  # a replaced key keeps its place
        self.nodes[map_id], self.written[map_id] = node, written
        self.bytes_written += written
        return written

    def invalidate(self, node):
        gone = sorted(m for m, host in self.nodes.items() if host == node)
        for map_id in gone:
            del self.blocks[map_id], self.nodes[map_id]
            self.bytes_written -= self.written.pop(map_id)
        return gone

    def fetch(self, reduce_id, dst_node):
        records, local, remote, n_blocks = [], 0.0, {}, 0
        for map_id in range(self.num_maps):
            block = self.blocks[map_id].get(reduce_id)
            if block is None:
                continue
            records.extend(block[0])
            n_blocks += 1
            node = self.nodes[map_id]
            if node == dst_node:
                local += block[1]
            else:
                remote[node] = remote.get(node, 0.0) + block[1]
        return records, local, remote, n_blocks

    def partition_sizes(self):
        sizes = [0.0] * self.num_reduces
        for blocks in self.blocks.values():
            for rid, (_recs, nbytes) in blocks.items():
                sizes[rid] += nbytes
        return sizes

    def map_output_nodes(self, reduce_id):
        by_node = {}
        for map_id, blocks in self.blocks.items():
            if reduce_id in blocks:
                node = self.nodes[map_id]
                by_node[node] = by_node.get(node, 0.0) + blocks[reduce_id][1]
        return by_node


# Weights whose sums depend on the order they are added in.
_WEIGHTS = st.sampled_from([0.1, 1 / 3, 24.0, 40.5, 1e9 + 0.7, 3.3e-7])
_NODES = st.sampled_from(["a", "b", "c"])


@st.composite
def _map_task(draw, map_id, num_reduces, serial):
    """One map task's output: records, reduce ids, weights, how it is held."""
    n = draw(st.integers(0, 12))
    records = [(f"m{map_id}.{serial}.{i}", float(i)) for i in range(n)]
    return {
        "map_id": map_id,
        "node": draw(_NODES),
        "records": records,
        "rids": draw(st.lists(st.integers(0, num_reduces - 1), min_size=n, max_size=n)),
        "weights": draw(st.lists(_WEIGHTS, min_size=n, max_size=n)),
        "columnar": draw(st.booleans()),
    }


@st.composite
def _shuffle_history(draw):
    num_maps, num_reduces = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    order = draw(st.permutations(range(num_maps)))
    tasks = [draw(_map_task(m, num_reduces, 0)) for m in order]
    replaced = draw(st.none() | st.integers(0, num_maps - 1))
    if replaced is not None:  # a retried / speculative map task
        tasks.append(draw(_map_task(replaced, num_reduces, 1)))
    return {
        "num_maps": num_maps,
        "num_reduces": num_reduces,
        "header": draw(st.sampled_from([0.0, 0.1, 10.0, 64.0])),
        "tasks": tasks,
        "lost_node": draw(st.none() | _NODES),
        "rebuild_nodes": draw(st.lists(_NODES, min_size=num_maps, max_size=num_maps)),
        "dst_node": draw(_NODES),
    }


def _put_both(mgr, model, task):
    records = task["records"]
    container = records
    if task["columnar"] and records:
        container = RecordBatch.from_records(records)
    output = MapOutput(container, task["rids"], np.array(task["weights"]))
    got = mgr.put_map_output(1, task["map_id"], task["node"], output)
    want = model.put(
        task["map_id"], task["node"], records, task["rids"], task["weights"]
    )
    assert got == want
    assert len(output) == len(model.blocks[task["map_id"]])


def _assert_same_view(mgr, model, history):
    """Every query answers as the dict walk does: records and floats ``==``."""
    assert mgr.bytes_written(1) == model.bytes_written
    assert mgr.partition_sizes(1) == model.partition_sizes()
    for rid in range(model.num_reduces):
        assert mgr.map_output_nodes(1, rid) == model.map_output_nodes(rid)
        records, stats = mgr.fetch(1, rid, history["dst_node"])
        want, local, remote, n_blocks = model.fetch(rid, history["dst_node"])
        assert as_record_list(records) == want
        assert stats.local_bytes == local
        assert stats.remote_bytes_by_src == remote
        assert stats.n_blocks == n_blocks


class TestConsolidatedLayoutAgainstDictModel:
    @settings(max_examples=300, deadline=None)
    @given(_shuffle_history())
    def test_every_query_matches_the_dict_walk(self, history):
        from repro.common.errors import FetchFailure

        mgr = ShuffleManager(block_header=history["header"])
        model = _DictModel(history["num_maps"], history["num_reduces"], history["header"])
        mgr.register(1, history["num_maps"], history["num_reduces"])
        for task in history["tasks"]:
            _put_both(mgr, model, task)
        _assert_same_view(mgr, model, history)

        if history["lost_node"] is None:
            return
        gone = model.invalidate(history["lost_node"])
        assert mgr.invalidate_node(history["lost_node"]) == ({1: gone} if gone else {})
        assert mgr.bytes_written(1) == model.bytes_written
        assert mgr.partition_sizes(1) == model.partition_sizes()
        if gone:
            with pytest.raises(FetchFailure) as failure:
                mgr.fetch(1, 0, history["dst_node"])
            assert failure.value.map_ids == gone
        # Lineage recovery re-registers the lost maps at the end.
        for map_id in gone:
            task = dict(history["tasks"][0], map_id=map_id)
            task["node"] = history["rebuild_nodes"][map_id]
            _put_both(mgr, model, task)
        _assert_same_view(mgr, model, history)


class TestObjectsAtRest:
    @staticmethod
    def _tracked_by_gc(num_reduces: int):
        """gc-tracked objects a registered, indexed 20k-record shuffle adds
        (and how many non-empty buckets it holds)."""
        import gc

        from repro.engine.partitioner import HashPartitioner

        num_maps = 10
        records = [(f"w{i % 997}", float(i)) for i in range(20_000)]
        partitioner = HashPartitioner(num_reduces)
        mgr = ShuffleManager()
        mgr.register(1, num_maps, num_reduces)
        gc.collect()  # also untracks the all-atomic record tuples
        before = len(gc.get_objects())
        non_empty = 0
        for map_id in range(num_maps):
            chunk = records[map_id::num_maps]
            rids = partitioner.partition_many([key for key, _ in chunk])
            output = MapOutput(chunk, rids, np.full(len(chunk), 40.0))
            non_empty += len(output)
            mgr.put_map_output(1, map_id, "a", output)
        fetched, _stats = mgr.fetch(1, rids[0], "a")  # builds the shuffle's index
        assert len(fetched) > 0
        del chunk, rids, output, fetched
        gc.collect()
        return len(gc.get_objects()) - before, non_empty

    def test_object_count_does_not_grow_with_reduce_partitions(self):
        """No Python object per (map, reduce) pair survives the map task:
        64x the reduce partitions (50x the non-empty buckets) hold the
        same records in the same number of objects."""
        few, few_buckets = self._tracked_by_gc(8)
        many, many_buckets = self._tracked_by_gc(512)
        assert many_buckets > 40 * few_buckets
        assert abs(many - few) <= 0.05 * few


# ----------------------------------------------------------------------
# Map tasks store a batch whenever the records allow it
# ----------------------------------------------------------------------

_TEXT = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=0x10FFFF), max_size=5
)
_SCALARS = {
    "str": _TEXT | _TEXT.map(lambda s: s + "\x00") | st.sampled_from(["été", "日本"]),
    "int": st.integers(-(2**70), 2**70) | st.sampled_from([2**63, -(2**63) - 1]),
    "bool-int": st.integers(-3, 3) | st.booleans(),
    "float": st.floats()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0]),
}
_SCALARS["mixed"] = st.one_of(*_SCALARS.values())
# Families a batch always holds as arrays: words (whose column width
# varies between map tasks), int64 and NaN-free floats.
_ARRAYS = {
    "word": st.text(alphabet="abé日", max_size=4),
    "int64": st.integers(-(2**63), 2**63 - 1),
    "finite": st.floats(allow_nan=False),
}
_SCALARS.update(_ARRAYS)


@st.composite
def _list_format_shuffle(draw):
    """Per-map pair lists whose key and value columns each draw from one
    scalar family (homogeneous families exercise the array columns,
    ``mixed`` and the exactness guards the list fallbacks), shared by
    every map or drawn per map (array columns whose kinds disagree).
    Half the cases draw array families only, so reduce partitions
    gather column-wise, with equal and with differing widths."""
    names = sorted(_ARRAYS if draw(st.booleans()) else _SCALARS)
    family = st.sampled_from(names).map(_SCALARS.__getitem__)

    def pairs():
        return st.lists(st.tuples(draw(family), draw(family)), max_size=10)

    shared = pairs()
    num_maps = draw(st.integers(1, 4))
    per_map = draw(st.booleans())
    return {
        "splits": [draw(pairs() if per_map else shared) for _ in range(num_maps)],
        "num_reduces": draw(st.integers(1, 5)),
    }


def _typed(records):
    """Records as comparable text: ``repr`` tells -0.0 from 0.0, keeps NaN
    equal to NaN and bool apart from int; the type names say the rest."""
    return [
        (type(k).__name__, repr(k), type(v).__name__, repr(v)) for k, v in records
    ]


def _shuffled_context():
    from repro.cluster import uniform_cluster
    from repro.engine import AnalyticsContext, EngineConf
    from repro.engine.costmodel import CostModelConfig

    cost = CostModelConfig(jitter_sigma=0.0, driver_dispatch_interval=0.0)
    return AnalyticsContext(
        uniform_cluster(n_workers=2, cores=2),
        EngineConf(default_parallelism=2, cost=cost, record_format="list"),
    )


class TestListFormatMapTasksAgainstDictModel:
    @settings(max_examples=150, deadline=None)
    @given(_list_format_shuffle())
    def test_fetch_and_bytes_match_the_dict_of_lists(self, case):
        from repro.common.sizing import estimate_size
        from repro.engine.partitioner import HashPartitioner

        splits, num_reduces = case["splits"], case["num_reduces"]
        partitioner = HashPartitioner(num_reduces)
        ctx = _shuffled_context()
        try:
            shuffled = ctx.source(
                lambda split, _splits: list(splits[split]), len(splits),
                op_name="pairs",
            ).partition_by(partitioner)
            collected = shuffled.collect()
            mgr = ctx.shuffle_manager
            state = mgr._state(shuffled.deps[0].shuffle_id)

            model = []  # per map: {reduce id: records}, first-occurrence order
            for map_id, records in enumerate(splits):
                buckets = {}
                for record in records:
                    buckets.setdefault(partitioner.partition(record[0]), []).append(record)
                model.append(buckets)

                output = state.outputs[map_id]
                columnar = records and RecordBatch.from_records(records) is not None
                assert isinstance(output.records, RecordBatch) == bool(columnar)
                payloads = {}
                for rid, recs in buckets.items():
                    payload = 0.0
                    for record in recs:
                        payload += estimate_size(record)
                    payloads[rid] = payload
                assert output.rids.tolist() == sorted(payloads)
                assert output.payload.tolist() == [payloads[r] for r in sorted(payloads)]
                written = 0.0
                for payload in payloads.values():
                    written += payload + mgr.block_header
                assert output.nbytes == written

            for rid in range(num_reduces):
                want = [r for b in model for r in b.get(rid, [])]
                got, stats = mgr.fetch(shuffled.deps[0].shuffle_id, rid, "A")
                assert _typed(as_record_list(got)) == _typed(want)
                assert stats.n_blocks == sum(rid in b for b in model)
            assert _typed(collected) == _typed(
                [r for rid in range(num_reduces) for b in model for r in b.get(rid, [])]
            )
        finally:
            ctx.close()


class TestWordCountStoresColumns:
    """A list-format wordcount stores two arrays per map task, and a
    reduce partition gathers them into one batch, not one per bucket."""

    def test_containers_are_array_batches_and_fetch_builds_one(self, monkeypatch):
        from repro.workloads import ShuffleWordCountWorkload

        # Hold the shuffle's dependency: once the run drops its RDDs, the
        # next job would release the map outputs inspected here.
        held = []
        register = ShuffleManager.register

        def holding_register(self, shuffle_id, num_maps, num_reduces, dep=None):
            held.append(dep)
            register(self, shuffle_id, num_maps, num_reduces, dep)

        monkeypatch.setattr(ShuffleManager, "register", holding_register)
        ctx = _shuffled_context()
        try:
            ShuffleWordCountWorkload(
                virtual_gb=1.0, physical_records=400, vocabulary=200
            ).run(ctx)
            assert ctx.parallelize(range(4), 2).count() == 4
            mgr = ctx.shuffle_manager
            (shuffle_id,) = mgr._shuffles
            assert len(held) == 1
            outputs = list(mgr._state(shuffle_id).outputs.values())
            assert outputs
            for output in outputs:
                batch = output.records
                assert isinstance(batch, RecordBatch)
                assert isinstance(batch.keys, np.ndarray)
                assert isinstance(batch.values, np.ndarray)

            built = []
            original = RecordBatch.__init__

            def counting_init(self, keys, values):
                built.append(len(keys))
                original(self, keys, values)

            monkeypatch.setattr(RecordBatch, "__init__", counting_init)
            fetched = {
                rid: mgr.fetch(shuffle_id, rid, "A")
                for rid in range(mgr.num_reduces(shuffle_id))
            }
            rid, (records, stats) = max(
                fetched.items(), key=lambda item: item[1][1].n_blocks
            )
            assert stats.n_blocks > 1
            built.clear()
            records, stats = mgr.fetch(shuffle_id, rid, "A")
            assert built == [len(records)]
        finally:
            ctx.close()


class TestWordCountFetchPinned:
    """What a reduce fetch of wordcount-shaped map outputs returns, resident
    and spilled: the column dtypes, every record in order, the fetched
    block count, the write total and the per-partition bytes. Map outputs
    are built as the map task builds them: ``(word, 1.0)`` batches bucketed
    by the hash partitioner and weighted by their exact sizes."""

    LINES = {
        # Every map's widest word has five letters: each column is one
        # dtype across the shuffle.
        "same_width": [
            "the cat sat on the mat while a sheep ate",
            "sheep and goats graze the hill",
            "every sheep sleep",
            "tiger",
        ],
        # Maps of width 3, 4, 5 and 2: key columns differ in width.
        "mixed_width": [
            "the cat sat on the mat", "a dog ran to the park", "sheep and oxen", "ox",
        ],
    }
    # layout -> (bytes_written, partition_sizes, per reduce id:
    # (n_blocks, keys dtype, values dtype, words))
    PINNED = {
        "same_width": (
            1036704.0,
            [210192.0, 156128.0, 307128.0, 257128.0, 106128.0],
            [
                (3, "<U5", "<f8", ["sat", "sheep", "sheep", "sheep"]),
                (2, "<U5", "<f8", ["and", "hill", "every"]),
                (2, "<U5", "<f8", ["cat", "on", "mat", "while", "a", "sleep"]),
                (2, "<U5", "<f8", ["the", "the", "ate", "graze", "the"]),
                (2, "<U5", "<f8", ["goats", "tiger"]),
            ],
        ),
        "mixed_width": (
            815768.0,
            [205256.0, 152128.0, 253192.0, 153128.0, 52064.0],
            [
                (4, "<U5", "<f8", ["sat", "dog", "sheep", "ox"]),
                (2, "<U5", "<f8", ["ran", "to", "and"]),
                (3, "<U5", "<f8", ["cat", "on", "mat", "a", "oxen"]),
                (2, "<U4", "<f8", ["the", "the", "the"]),
                (1, "<U4", "<f8", ["park"]),
            ],
        ),
    }

    @pytest.mark.parametrize("spilled", [False, True], ids=["resident", "spilled"])
    @pytest.mark.parametrize("layout", sorted(LINES))
    def test_fetch_is_pinned(self, layout, spilled, tmp_path):
        from repro.engine.partitioner import HashPartitioner
        from repro.engine.storage import SpillManager

        lines = self.LINES[layout]
        spill = SpillManager(1.0, directory=str(tmp_path)) if spilled else None
        mgr = ShuffleManager(block_header=64.0, spill=spill)
        partitioner = HashPartitioner(5)
        mgr.register(0, len(lines), 5)
        try:
            for map_id, line in enumerate(lines):
                batch = RecordBatch.from_records([(w, 1.0) for w in line.split()])
                rids = partitioner.partition_many(batch.keys)
                output = MapOutput(batch, rids, batch.sizes_array() * 1000.0)
                mgr.put_map_output(0, map_id, "AB"[map_id % 2], output)
                assert output.is_spilled == spilled
            written, sizes, fetches = self.PINNED[layout]
            assert mgr.bytes_written(0) == written
            assert mgr.partition_sizes(0) == sizes
            for rid, (n_blocks, keys, values, words) in enumerate(fetches):
                for _ in range(2):  # a re-fetch (retry) reads the same
                    records, stats = mgr.fetch(0, rid, "A")
                    assert stats.n_blocks == n_blocks
                    assert isinstance(records, RecordBatch)
                    assert (records.keys.dtype.str, records.values.dtype.str) == (
                        keys, values,
                    )
                    assert _typed(records.to_records()) == _typed(
                        [(w, 1.0) for w in words]
                    )
        finally:
            if spill is not None:
                spill.close()


class TestPackedColumnsAreExact:
    """Columns stored narrowed come back as the arrays that were put, by
    dtype and by bytes, resident and spilled: what the unpacked store
    served (each contributing bucket's slice of the stored columns,
    concatenated in map order)."""

    LAYOUTS = {
        # Every map packs both columns to one width: the byte-join path.
        "ascii_exact": [
            [("ab", 1.0), ("", -0.0), ("a\x00c", float("inf")), ("zz", 2.0**-149)],
            [("xyz", 2.0**-149), ("q", -float("inf")), ("\x00qq", 0.5)],
        ],
        # Widths and encodings differ from map to map: empty, interior
        # NUL, non-ASCII keys; float32-exact values next to 0.1, 2**24+1,
        # a float64 subnormal and one past float32's range.
        "mixed": [
            [("a", -0.0), ("", float("inf")), ("a\x00b", -float("inf")), ("word", 2.0**-149)],
            [("été", 5e-324), ("ü", 2.0**24 + 1), ("\x00q", 0.1), ("x", 1e300)],
            [("abcdefgh", 0.5), ("z", -0.0), ("", 3.0), ("b", 1.0)],
            [("ñ", -1.5), ("\x00\x00z", 0.25)],
        ],
        # One ASCII map next to one non-ASCII map.
        "ascii_beside_non_ascii": [
            [("the", 1.0), ("cat", 1.0), ("sat", 1.0), ("on", 1.0)],
            [("été", 1.0), ("naïve", 1.0), ("ü", 1.0)],
        ],
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spilled", [False, True], ids=["resident", "spilled"])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_fetch_returns_the_stored_arrays(self, layout, spilled, tmp_path):
        from repro.engine.storage import SpillManager

        maps = self.LAYOUTS[layout]
        num_reduces = 3
        spill = SpillManager(1.0, directory=str(tmp_path)) if spilled else None
        mgr = ShuffleManager(block_header=8.0, spill=spill)
        mgr.register(0, len(maps), num_reduces)
        batches, rid_lists = [], []
        try:
            for map_id, pairs in enumerate(maps):
                batch = RecordBatch.from_records(pairs)
                assert isinstance(batch.keys, np.ndarray)
                assert isinstance(batch.values, np.ndarray)
                rids = [(i + map_id) % num_reduces for i in range(len(pairs))]
                output = MapOutput(batch, rids, batch.sizes_array())
                mgr.put_map_output(0, map_id, "a", output)
                assert output.is_spilled == spilled
                order = np.argsort(rids, kind="stable")
                for got, want in zip(
                    (output.records.keys, output.records.values),
                    (batch.keys[order], batch.values[order]),
                ):
                    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
                batches.append(batch)
                rid_lists.append(np.array(rids))
            for rid in range(num_reduces):
                records, _stats = mgr.fetch(0, rid, "a")
                picks = [rids == rid for rids in rid_lists]
                for column in ("keys", "values"):
                    want = np.concatenate([
                        getattr(batch, column)[pick]
                        for batch, pick in zip(batches, picks) if pick.any()
                    ])
                    got = getattr(records, column)
                    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
        finally:
            if spill is not None:
                spill.close()
