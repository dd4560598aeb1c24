"""The kernel's dispatch contract, whatever holds the events.

Dispatch order is the total order on ``(when, schedule sequence)`` —
under random schedules, cancellations, re-entrant scheduling from
callbacks, tombstone compaction, and however a run is cut into
``run(until)`` / ``run_until_future`` calls.  Nothing here looks inside
the queues except the one compaction counter, so the same file pins any
future kernel.
"""

import random

import pytest

from repro.sim.core import Future, SimulationError, Simulator

#: Delay regimes in ms: message hops, timers (heartbeats, RPC timeouts,
#: side-transport ticks), and the minutes-out deadlines of a long soak.
_NEAR, _TIMER, _SOAK = 96.0, 128.0, 8192.0


def _random_delay(rng: random.Random) -> float:
    """Delays from 0 to 20 x 8192 ms, a quarter from each regime."""
    regime = rng.randrange(4)
    if regime == 0:
        return rng.uniform(0.0, _NEAR * 1.5)
    if regime == 1:
        return rng.uniform(_NEAR, _TIMER * 4)
    if regime == 2:
        return rng.uniform(_TIMER, _SOAK * 1.5)
    return rng.uniform(_SOAK, _SOAK * 20)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_order_is_when_then_schedule_index_static_schedule(seed):
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    expect = []
    for i in range(500):
        when = _random_delay(rng)
        expect.append((when, i))
        sim.call_at(when, fired.append, i)
    sim.run()
    expect.sort()
    assert fired == [i for _, i in expect]
    assert sim.events_processed == 500


@pytest.mark.parametrize("seed", [0, 7])
def test_order_is_when_then_schedule_index_with_cancellations(seed):
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    handles = []
    expect = []
    for i in range(400):
        when = _random_delay(rng)
        handles.append((when, i, sim.call_at(when, fired.append, i)))
    cancelled = set()
    for when, i, handle in handles:
        if rng.random() < 0.4:
            sim.cancel(handle)
            cancelled.add(i)
        else:
            expect.append((when, i))
    sim.run()
    expect.sort()
    assert fired == [i for _, i in expect]
    assert not cancelled.intersection(fired)
    assert sim.events_processed == len(expect)  # tombstones do not count


@pytest.mark.parametrize("seed", [0, 11])
def test_order_holds_when_callbacks_schedule_more(seed):
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    budget = [300]

    def fire(label):
        fired.append((sim.now, label))
        while budget[0] > 0 and rng.random() < 0.6:
            budget[0] -= 1
            sim.call_after(_random_delay(rng), fire, budget[0])

    for i in range(20):
        sim.call_after(_random_delay(rng), fire, 10_000 + i)
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert budget[0] == 0
    assert len(fired) == 320


def test_run_until_parks_and_resumes():
    sim = Simulator()
    fired = []
    sim.call_after(50.0, fired.append, "near")
    sim.call_after(5_000.0, fired.append, "far")
    sim.run(until=1_000.0)
    assert fired == ["near"]
    assert sim.now == 1_000.0
    sim.run()
    assert fired == ["near", "far"]


def test_events_at_exactly_until_fire_and_just_after_do_not():
    sim = Simulator()
    fired = []
    sim.call_at(10.0, fired.append, "at")
    sim.call_at(10.0 + 1e-9, fired.append, "after")
    sim.run(until=10.0)
    assert fired == ["at"]
    assert sim.now == 10.0
    sim.run()
    assert fired == ["at", "after"]


def test_far_and_near_timers_for_one_instant_fire_in_schedule_order():
    """The same instant reached from a guard-timer distance (seconds
    ahead) and from a message distance: schedule order still decides."""
    sim = Simulator()
    fired = []
    sim.call_at(5_000.0, fired.append, "set at t=0")
    sim.run(until=4_990.0)
    sim.call_at(5_000.0, fired.append, "set at t=4990")
    sim.call_at(4_995.0, sim.call_at, 5_000.0, fired.append, "set at t=4995")
    sim.run(until=5_000.0)
    assert fired == ["set at t=0", "set at t=4990", "set at t=4995"]


def test_compaction_never_drops_live_events():
    """Mass-cancelling triggers compaction; every surviving event must
    still fire, in order, exactly once."""
    rng = random.Random(3)
    sim = Simulator()
    fired = []
    live = []
    handles = []
    for i in range(1_500):
        when = _random_delay(rng)
        handles.append((when, i, sim.call_at(when, fired.append, i)))
    for when, i, handle in handles:
        if i % 5 == 0:
            live.append((when, i))
        else:
            sim.cancel(handle)  # 1200 tombstones: compaction must kick in
    assert sim._tombstones < 1_200  # compaction actually ran
    sim.run()
    live.sort()
    assert fired == [i for _, i in live]


def test_cancelled_far_future_timer_never_fires_and_compacts_away():
    sim = Simulator()
    fired = []
    handle = sim.call_after(_SOAK * 2, fired.append, "x")
    sim.call_after(_SOAK * 3, fired.append, "y")
    sim.cancel(handle)
    sim._compact()
    assert sim._tombstones == 0
    sim.run()
    assert fired == ["y"]
    assert sim.now == _SOAK * 3
    assert sim._tombstones == 0


def test_cancel_after_dispatch_is_a_no_op():
    sim = Simulator()
    fired = []
    handle = sim.call_after(1.0, fired.append, "x")
    sim.call_after(2.0, fired.append, "y")
    sim.run(until=1.5)
    sim.cancel(handle)
    sim.cancel(handle)
    assert sim._tombstones == 0
    sim.run()
    assert fired == ["x", "y"]
    assert sim.events_processed == 2


def test_cancelling_the_running_timer_leaves_no_phantom_tombstone():
    """A guard timer whose callback settles what it guards cancels its
    own handle (Raft's proposal timeout does).  The event is already off
    the queues, so that must not count as a tombstone: phantom ones are
    never popped, and past the compaction floor every later ``cancel``
    would sweep the whole heap."""
    sim = Simulator()
    handles = []
    fired = []

    def fire(i):
        fired.append(i)
        sim.cancel(handles[i])

    for i in range(5):
        handles.append(sim.call_after(1.0 + i, fire, i))
    handles.append(sim.call_after(0.0, fire, 5))  # the ready-deque path
    sim.run()
    assert fired == [5, 0, 1, 2, 3, 4]
    assert sim._tombstones == 0
    assert sim.events_processed == 6


# -- one loop behind both entry points ---------------------------------------


def _program(seed: int):
    """A fixed re-entrant schedule mixing timers, processes, same-instant
    events and cancellations; returns the simulator, the log it appends
    to, and futures that complete at scattered points of the run."""
    rng = random.Random(seed)
    sim = Simulator()
    log = []
    budget = [200]

    def fire(label):
        log.append((sim.now, label))
        while budget[0] > 0 and rng.random() < 0.55:
            budget[0] -= 1
            handle = sim.call_after(_random_delay(rng) / 40, fire, budget[0])
            if rng.random() < 0.2:
                sim.cancel(handle)

    def worker(name):
        for step in range(6):
            yield sim.sleep(rng.uniform(0.0, 300.0))
            log.append((sim.now, f"{name}.{step}"))
            sim.call_after(0.0, fire, f"{name}.{step}.soon")

    for i in range(15):
        sim.call_after(_random_delay(rng) / 40, fire, 1_000 + i)
    for i in range(4):
        sim.spawn(worker(f"w{i}"), f"w{i}")
    marks = [sim.sleep(t) for t in (40.0, 333.3, 900.0, 2_500.0)]
    return sim, log, marks


@pytest.mark.parametrize("seed", [0, 5])
def test_sliced_run_equals_one_run(seed):
    whole, whole_log, _ = _program(seed)
    whole.run()

    sliced, sliced_log, marks = _program(seed)
    for until, mark in zip((10.0, 120.0, 600.0, 1_700.0), marks):
        sliced.run(until=until)
        assert sliced.now == until
        sliced.run_until_future(mark)
    sliced.run()

    assert len(whole_log) > 200
    assert sliced_log == whole_log
    assert sliced.events_processed == whole.events_processed
    assert sliced.now == whole.now


def test_run_until_in_the_past_does_not_move_the_clock_back():
    """Regression: ``run(until=50)`` at t=100 with a later event queued
    used to set the clock to 50."""
    sim = Simulator()
    fired = []
    sim.call_after(200.0, fired.append, "later")
    sim.run(until=100.0)
    sim.call_at(100.0, fired.append, "same-instant")
    sim.run(until=50.0)
    assert sim.now == 100.0
    assert fired == ["same-instant"]
    sim.run()
    assert fired == ["same-instant", "later"]
    assert sim.now == 200.0


def test_run_until_future_limit_leaves_the_next_event_queued():
    """Regression: the first event past ``limit`` used to be popped
    before the limit check raised, and was never seen again."""
    sim = Simulator()
    fired = []
    sim.call_after(10.0, fired.append, "x")
    with pytest.raises(SimulationError, match="not resolved by simulated"):
        sim.run_until_future(Future(sim), limit=5.0)
    assert fired == []
    sim.run()
    assert fired == ["x"]
    assert sim.events_processed == 1


def test_pending_crash_surfaces_from_both_entry_points():
    def boom():
        yield sim.sleep(1.0)
        raise ValueError("boom")

    sim = Simulator()
    sim.spawn(boom())
    with pytest.raises(ValueError, match="boom"):
        sim.run()

    sim = Simulator()
    sim.spawn(boom())
    sim.call_after(5.0, lambda: None)
    with pytest.raises(ValueError, match="boom"):
        sim.run_until_future(Future(sim))
    sim.run()  # raised once, then the rest of the schedule still runs
    assert sim.now == 5.0
