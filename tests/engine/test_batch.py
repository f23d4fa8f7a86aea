"""RecordBatch round-trip exactness and byte-accounting identity.

The columnar format's whole contract is "invisible": any list of 2-tuples
must survive ``from_records`` → ``to_records`` value-for-value and
type-for-type, and ``sizes_array`` must reproduce ``estimate_size``
bit-for-bit. Hypothesis drives the nasty corners — NUL-bearing unicode,
int64 overflow, NaN/-0.0 floats, bool-vs-int, mixed columns.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.sizing import estimate_size
from repro.engine.batch import RecordBatch, as_record_list

TEXT = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=0x10FFFF),
    max_size=12,
)
SCALARS = st.one_of(
    TEXT,
    st.integers(),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)


def assert_round_trip(records):
    batch = RecordBatch.from_records(records)
    if not records:
        assert batch is None
        return
    out = batch.to_records()
    assert out == records
    # Type-for-type: bool must not come back as int, int not as float,
    # numpy scalars must not leak out.
    for (k0, v0), (k1, v1) in zip(records, out):
        assert type(k0) is type(k1), (k0, k1)
        assert type(v0) is type(v1), (v0, v1)


class TestRoundTrip:
    @given(st.lists(st.tuples(TEXT, st.integers()), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_str_int_records(self, records):
        assert_round_trip(records)

    @given(st.lists(st.tuples(TEXT, st.floats(allow_nan=False)), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_str_float_records(self, records):
        assert_round_trip(records)

    @given(st.lists(st.tuples(SCALARS, SCALARS), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_mixed_key_records(self, records):
        assert_round_trip(records)

    @given(st.lists(st.tuples(st.floats(), st.floats()), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_nan_and_signed_zero_floats(self, records):
        batch = RecordBatch.from_records(records)
        if not records:
            assert batch is None
            return
        out = batch.to_records()
        assert len(out) == len(records)
        for (k0, v0), (k1, v1) in zip(records, out):
            # NaN keys must come back as the *same object* — dict-based
            # grouping folds NaNs by identity, so a minted copy would
            # change every downstream groupBy.
            if k0 != k0:
                assert k1 is k0
            else:
                assert k1 == k0 and type(k1) is type(k0)
            if v0 != v0:
                assert v1 is v0
            else:
                assert v1 == v0 and type(v1) is type(v0)

    def test_trailing_nul_strings_stay_exact(self):
        records = [("a\x00", 1), ("b", 2), ("\x00\x00", 3)]
        assert_round_trip(records)
        # The column must not have been lifted (numpy would strip NULs).
        batch = RecordBatch.from_records(records)
        assert not isinstance(batch.keys, np.ndarray)

    def test_int64_overflow_stays_exact(self):
        records = [("k", 2**63), ("j", -(2**70)), ("i", 5)]
        assert_round_trip(records)

    def test_bool_columns_stay_bool(self):
        assert_round_trip([("a", True), ("b", False)])

    def test_non_pair_records_rejected(self):
        assert RecordBatch.from_records([("a", 1, 2)]) is None
        assert RecordBatch.from_records([["a", 1]]) is None
        assert RecordBatch.from_records(["a"]) is None

    def test_tuple_subclass_rejected(self):
        class Point(tuple):
            pass

        assert RecordBatch.from_records([Point(("a", 1))]) is None

    @pytest.mark.parametrize("odd", [
        "subclass", "one-tuple", "three-tuple", "list-pair", "empty-tuple",
    ])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_one_odd_record_anywhere_rejects_the_batch(self, odd, at):
        """Admission looks at every record, not only the first: a single
        tuple subclass, 1-, 3- or 0-tuple, or length-2 list anywhere keeps
        the whole output a list."""

        class Pair(tuple):
            pass

        bad = {
            "subclass": Pair(("x", 9)),
            "one-tuple": ("x",),
            "three-tuple": ("x", 9, 9),
            "list-pair": ["x", 9],
            "empty-tuple": (),
        }[odd]
        records = [("a", 1), ("b", 2)]
        records.insert(at, bad)
        assert RecordBatch.from_records(records) is None
        assert RecordBatch.from_records(records[:at] + records[at + 1:]) is not None


class TestSizing:
    @given(st.lists(st.tuples(TEXT, st.one_of(st.integers(), TEXT)),
                    min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_sizes_match_estimate_size(self, records):
        batch = RecordBatch.from_records(records)
        sizes = batch.sizes_array()
        expect = [estimate_size(r) for r in records]
        # Bit-identity, not approx: accounting must not drift.
        assert sizes.tolist() == expect

    def test_sizes_on_float_values(self):
        records = [("a", 1.5), ("bb", -2.0)]
        batch = RecordBatch.from_records(records)
        assert batch.sizes_array().tolist() == [
            estimate_size(r) for r in records
        ]


class TestOps:
    def test_take_preserves_types(self):
        batch = RecordBatch.from_records([("a", 1), ("b", 2), ("c", 3)])
        taken = batch.take(np.array([2, 0]))
        assert taken.to_records() == [("c", 3), ("a", 1)]

    def test_take_on_list_columns(self):
        batch = RecordBatch.from_records([(None, 1), ("b", 2)])
        taken = batch.take(np.array([1]))
        assert taken.to_records() == [("b", 2)]

    def test_pickle_round_trip_protocol5(self):
        records = [("a", 1), ("b", 2)]
        batch = RecordBatch.from_records(records)
        clone = pickle.loads(pickle.dumps(batch, protocol=5))
        assert isinstance(clone, RecordBatch)
        assert clone.to_records() == records

    def test_as_record_list(self):
        records = [("a", 1)]
        assert as_record_list(records) is records
        assert as_record_list(RecordBatch.from_records(records)) == records

    def test_len(self):
        assert len(RecordBatch.from_records([("a", 1), ("b", 2)])) == 2


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
