"""Tests for HLC timestamps, skew, and commit-wait."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import HLC, ClockModel, Timestamp, TS_ZERO
from repro.sim.core import Simulator


class TestTimestamp:
    def test_ordering_by_physical(self):
        assert Timestamp(1.0) < Timestamp(2.0)
        assert Timestamp(2.0) > Timestamp(1.0)

    def test_ordering_by_logical(self):
        assert Timestamp(1.0, 0) < Timestamp(1.0, 1)

    def test_synthetic_does_not_affect_ordering(self):
        assert Timestamp(1.0, 0, synthetic=True) == Timestamp(1.0, 0)
        assert hash(Timestamp(1.0, 0, True)) == hash(Timestamp(1.0, 0, False))

    def test_next_is_strictly_greater(self):
        ts = Timestamp(5.0, 3)
        assert ts.next() > ts
        assert ts.next().physical == ts.physical

    def test_prev_is_strictly_smaller(self):
        ts = Timestamp(5.0, 3)
        assert ts.prev() < ts
        ts0 = Timestamp(5.0, 0)
        assert ts0.prev() < ts0

    def test_add_marks_synthetic(self):
        ts = Timestamp(5.0)
        future = ts.add(100.0)
        assert future.synthetic
        assert future.physical == 105.0

    def test_add_zero_keeps_real(self):
        assert not Timestamp(5.0).add(0.0).synthetic

    def test_with_synthetic(self):
        ts = Timestamp(5.0, 2, synthetic=True)
        real = ts.with_synthetic(False)
        assert not real.synthetic
        assert real == ts  # ordering ignores the flag

    @given(st.floats(min_value=0, max_value=1e9, allow_nan=False),
           st.integers(min_value=0, max_value=1000))
    def test_next_prev_roundtrip_property(self, physical, logical):
        ts = Timestamp(physical, logical)
        assert ts.prev() < ts < ts.next()


class TestSkewModel:
    def test_offsets_bounded_pairwise(self):
        skew = ClockModel(max_offset=250.0, seed=1)
        offsets = [skew.offset_for(i) for i in range(100)]
        for a in offsets:
            for b in offsets:
                assert abs(a - b) <= 250.0

    def test_offsets_stable(self):
        skew = ClockModel(max_offset=100.0, seed=2)
        assert skew.offset_for(7) == skew.offset_for(7)

    def test_zero_fraction_means_no_skew(self):
        skew = ClockModel(max_offset=100.0, seed=3, skew_fraction=0.0)
        assert skew.offset_for(1) == 0.0

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            ClockModel(max_offset=100.0, skew_fraction=1.5)


class TestHLC:
    def test_monotone_readings(self):
        sim = Simulator()
        clock = HLC(sim, node_id=1)
        first = clock.now()
        second = clock.now()
        assert second > first

    def test_advances_with_sim_time(self):
        sim = Simulator()
        clock = HLC(sim, node_id=1)
        t1 = clock.now()
        sim.call_after(10.0, lambda: None)
        sim.run()
        t2 = clock.now()
        assert t2.physical - t1.physical == pytest.approx(10.0)

    def test_update_folds_in_remote_timestamp(self):
        sim = Simulator()
        clock = HLC(sim, node_id=1)
        remote = Timestamp(1000.0, 5)
        after = clock.update(remote)
        assert after > remote

    def test_update_ignores_synthetic(self):
        sim = Simulator()
        clock = HLC(sim, node_id=1)
        future = Timestamp(1000.0, 0, synthetic=True)
        after = clock.update(future)
        assert after < future

    def test_skewed_physical(self):
        sim = Simulator()
        skew = ClockModel(max_offset=100.0, seed=4, skew_fraction=1.0)
        clock = HLC(sim, node_id=1, skew=skew)
        assert clock.physical_now() == skew.offset_for(1)

    def test_commit_wait_blocks_until_target(self):
        sim = Simulator()
        clock = HLC(sim, node_id=1)

        def proc():
            target = Timestamp(50.0, 0, synthetic=True)
            yield clock.wait_until(target)
            return sim.now

        assert sim.run_process(proc()) >= 50.0

    def test_commit_wait_no_op_for_past(self):
        sim = Simulator()
        clock = HLC(sim, node_id=1)
        sim.call_after(100.0, lambda: None)
        sim.run()

        def proc():
            waited = yield clock.wait_until(Timestamp(10.0))
            return waited, sim.now

        waited, now = sim.run_process(proc())
        assert waited == 0.0
        assert now == 100.0

    def test_ts_zero_is_minimum(self):
        assert TS_ZERO <= Timestamp(0.0)
        assert TS_ZERO < Timestamp(0.0, 1)
