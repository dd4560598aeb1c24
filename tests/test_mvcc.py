"""Tests for the MVCC store: versions, intents, uncertainty."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    ReadWithinUncertaintyIntervalError,
    WriteIntentError,
    WriteTooOldError,
)
from repro.sim.clock import Timestamp, TS_ZERO
from repro.storage.mvcc import MVCCStore


def ts(physical, logical=0, synthetic=False):
    return Timestamp(physical, logical, synthetic)


class TestCommittedReads:
    def test_missing_key_reads_none(self):
        store = MVCCStore()
        result = store.get("k", ts(10))
        assert result.value is None
        assert not result.exists

    def test_read_sees_latest_at_or_below(self):
        store = MVCCStore()
        store.put_committed("k", ts(1), "v1")
        store.put_committed("k", ts(5), "v5")
        store.put_committed("k", ts(9), "v9")
        assert store.get("k", ts(5)).value == "v5"
        assert store.get("k", ts(6)).value == "v5"
        assert store.get("k", ts(100)).value == "v9"

    def test_read_below_first_version(self):
        store = MVCCStore()
        store.put_committed("k", ts(5), "v5")
        assert store.get("k", ts(4)).value is None

    def test_read_exact_boundary_inclusive(self):
        store = MVCCStore()
        store.put_committed("k", ts(5), "v5")
        assert store.get("k", ts(5)).value == "v5"

    def test_tombstone_reads_none(self):
        store = MVCCStore()
        store.put_committed("k", ts(1), "v1")
        store.put_committed("k", ts(2), None)
        assert store.get("k", ts(3)).value is None
        assert store.get("k", ts(1)).value == "v1"

    def test_out_of_order_commits_sorted(self):
        store = MVCCStore()
        store.put_committed("k", ts(9), "v9")
        store.put_committed("k", ts(1), "v1")
        assert store.get("k", ts(2)).value == "v1"
        assert store.version_count("k") == 2


class TestIntents:
    def test_own_intent_visible(self):
        store = MVCCStore()
        store.put_intent("k", ts(5), "mine", txn_id=1)
        result = store.get("k", ts(10), txn_id=1)
        assert result.value == "mine"
        assert result.from_intent

    def test_own_intent_visible_even_below_read_ts(self):
        store = MVCCStore()
        store.put_intent("k", ts(50), "mine", txn_id=1)
        assert store.get("k", ts(10), txn_id=1).value == "mine"

    def test_foreign_intent_below_read_conflicts(self):
        store = MVCCStore()
        store.put_intent("k", ts(5), "theirs", txn_id=2)
        with pytest.raises(WriteIntentError):
            store.get("k", ts(10), txn_id=1)

    def test_foreign_intent_at_read_ts_conflicts(self):
        # The boundary is inclusive: an intent exactly at the read
        # timestamp may commit there, so the reader must not skip it.
        store = MVCCStore()
        store.put_committed("k", ts(1), "old")
        store.put_intent("k", ts(10), "theirs", txn_id=2)
        with pytest.raises(WriteIntentError):
            store.get("k", ts(10), txn_id=1)

    def test_foreign_intent_above_read_invisible(self):
        store = MVCCStore()
        store.put_committed("k", ts(1), "old")
        store.put_intent("k", ts(50), "theirs", txn_id=2)
        assert store.get("k", ts(10), txn_id=1).value == "old"

    def test_foreign_intent_in_uncertainty_window_conflicts(self):
        store = MVCCStore()
        store.put_intent("k", ts(15), "theirs", txn_id=2)
        with pytest.raises(WriteIntentError):
            store.get("k", ts(10), txn_id=1, uncertainty_limit=ts(20))

    def test_commit_intent_creates_version(self):
        store = MVCCStore()
        store.put_intent("k", ts(5), "v", txn_id=1)
        assert store.resolve_intent("k", 1, ts(7))
        assert store.intent_for("k") is None
        assert store.get("k", ts(7)).value == "v"
        assert store.get("k", ts(6)).value is None

    def test_abort_intent_removes_it(self):
        store = MVCCStore()
        store.put_intent("k", ts(5), "v", txn_id=1)
        assert store.resolve_intent("k", 1, None)
        assert store.get("k", ts(10)).value is None

    def test_resolve_is_idempotent(self):
        store = MVCCStore()
        store.put_intent("k", ts(5), "v", txn_id=1)
        assert store.resolve_intent("k", 1, ts(5))
        assert not store.resolve_intent("k", 1, ts(5))
        assert store.version_count("k") == 1

    def test_resolve_wrong_txn_noop(self):
        store = MVCCStore()
        store.put_intent("k", ts(5), "v", txn_id=1)
        assert not store.resolve_intent("k", 99, ts(5))
        assert store.intent_for("k") is not None

    def test_replacing_own_intent(self):
        store = MVCCStore()
        store.put_intent("k", ts(5), "v1", txn_id=1)
        store.put_intent("k", ts(6), "v2", txn_id=1)
        assert store.get("k", ts(10), txn_id=1).value == "v2"

    def test_foreign_intent_blocks_new_intent(self):
        store = MVCCStore()
        store.put_intent("k", ts(5), "v", txn_id=1)
        with pytest.raises(WriteIntentError):
            store.put_intent("k", ts(6), "w", txn_id=2)


class TestUncertainty:
    def test_value_in_window_raises(self):
        store = MVCCStore()
        store.put_committed("k", ts(15), "future")
        with pytest.raises(ReadWithinUncertaintyIntervalError) as exc:
            store.get("k", ts(10), uncertainty_limit=ts(20))
        assert exc.value.value_ts == ts(15)

    def test_value_above_window_ignored(self):
        store = MVCCStore()
        store.put_committed("k", ts(25), "far-future")
        assert store.get("k", ts(10), uncertainty_limit=ts(20)).value is None

    def test_value_at_limit_is_uncertain(self):
        store = MVCCStore()
        store.put_committed("k", ts(20), "edge")
        with pytest.raises(ReadWithinUncertaintyIntervalError):
            store.get("k", ts(10), uncertainty_limit=ts(20))

    def test_no_window_no_uncertainty(self):
        store = MVCCStore()
        store.put_committed("k", ts(15), "future")
        assert store.get("k", ts(10)).value is None


class TestWriteChecks:
    def test_write_above_history_ok(self):
        store = MVCCStore()
        store.put_committed("k", ts(5), "v")
        assert store.check_write("k", ts(6), txn_id=1) == ts(6)

    def test_write_below_committed_raises(self):
        store = MVCCStore()
        store.put_committed("k", ts(5), "v")
        with pytest.raises(WriteTooOldError) as exc:
            store.check_write("k", ts(5), txn_id=1)
        assert exc.value.existing_ts == ts(5)

    def test_write_on_foreign_intent_raises(self):
        store = MVCCStore()
        store.put_intent("k", ts(5), "v", txn_id=2)
        with pytest.raises(WriteIntentError):
            store.check_write("k", ts(6), txn_id=1)

    def test_write_on_own_intent_ok(self):
        store = MVCCStore()
        store.put_intent("k", ts(5), "v", txn_id=1)
        assert store.check_write("k", ts(6), txn_id=1) == ts(6)


class TestChangedInInterval:
    def test_no_change(self):
        store = MVCCStore()
        store.put_committed("k", ts(5), "v")
        assert not store.changed_in_interval("k", ts(5), ts(10))

    def test_committed_change_detected(self):
        store = MVCCStore()
        store.put_committed("k", ts(7), "v")
        assert store.changed_in_interval("k", ts(5), ts(10))

    def test_boundaries(self):
        store = MVCCStore()
        store.put_committed("k", ts(5), "v")
        # lo is exclusive, hi inclusive.
        assert not store.changed_in_interval("k", ts(5), ts(10))
        store.put_committed("k", ts(10), "w")
        assert store.changed_in_interval("k", ts(5), ts(10))

    def test_foreign_intent_counts(self):
        store = MVCCStore()
        store.put_intent("k", ts(7), "v", txn_id=2)
        assert store.changed_in_interval("k", ts(5), ts(10), txn_id=1)

    def test_foreign_intent_at_hi_counts(self):
        # hi is inclusive for intents as for committed versions.
        store = MVCCStore()
        store.put_committed("k", ts(5), "v")
        store.put_intent("k", ts(10), "w", txn_id=2)
        assert store.changed_in_interval("k", ts(5), ts(10), txn_id=1)

    def test_own_intent_ignored(self):
        store = MVCCStore()
        store.put_intent("k", ts(7), "v", txn_id=1)
        assert not store.changed_in_interval("k", ts(5), ts(10), txn_id=1)

    def test_missing_key_unchanged(self):
        store = MVCCStore()
        assert not store.changed_in_interval("k", ts(0), ts(100))


class TestSnapshot:
    def test_snapshot_at_timestamp(self):
        store = MVCCStore()
        store.put_committed("a", ts(1), "a1")
        store.put_committed("b", ts(5), "b5")
        snap = store.snapshot_at(ts(3))
        assert snap == {"a": "a1"}

    def test_snapshot_skips_tombstones(self):
        store = MVCCStore()
        store.put_committed("a", ts(1), "a1")
        store.put_committed("a", ts(2), None)
        assert store.snapshot_at(ts(3)) == {}


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=100),
                          st.integers(min_value=0, max_value=9)),
                min_size=1, max_size=30))
def test_property_read_sees_newest_at_or_below(writes):
    """For any committed history, a read at T returns the version with the
    largest timestamp <= T."""
    store = MVCCStore()
    seen = {}
    for physical, value in writes:
        t = Timestamp(float(physical), seen.get(physical, 0))
        seen[physical] = seen.get(physical, 0) + 1
        store.put_committed("k", t, value)

    read_at = Timestamp(50.0, 1 << 20)
    # Brute-force expectation: enumerate all (ts, value) pairs we inserted.
    expected = None
    history = []
    seen2 = {}
    for physical, value in writes:
        t = Timestamp(float(physical), seen2.get(physical, 0))
        seen2[physical] = seen2.get(physical, 0) + 1
        history.append((t, value))
    eligible = [(t, v) for t, v in history if t <= read_at]
    if eligible:
        expected = max(eligible, key=lambda pair: pair[0].key())[1]
    assert store.get("k", read_at).value == expected
