"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.core import (
    Future,
    SimulationError,
    Simulator,
    all_of,
    any_of,
)


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_after_runs_in_order():
    sim = Simulator()
    seen = []
    sim.call_after(5.0, seen.append, "b")
    sim.call_after(1.0, seen.append, "a")
    sim.call_after(9.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_events_fifo():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.call_after(1.0, seen.append, i)
    sim.run()
    assert seen == list(range(10))


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.call_after(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)


def test_run_until_stops_early():
    sim = Simulator()
    seen = []
    sim.call_after(10.0, seen.append, 1)
    sim.run(until=5.0)
    assert seen == []
    assert sim.now == 5.0
    sim.run()
    assert seen == [1]


def test_run_until_advances_time_with_empty_heap():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_sleep_process():
    sim = Simulator()

    def proc():
        yield sim.sleep(3.0)
        yield sim.sleep(4.0)
        return sim.now

    assert sim.run_process(proc()) == 7.0


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.sleep(1.0)
        return "done"

    assert sim.run_process(proc()) == "done"


def test_process_immediate_return():
    sim = Simulator()

    def proc():
        return 5
        yield  # pragma: no cover

    assert sim.run_process(proc()) == 5


def test_nested_process_wait():
    sim = Simulator()

    def child():
        yield sim.sleep(2.0)
        return "child-result"

    def parent():
        value = yield sim.spawn(child())
        return value

    assert sim.run_process(parent()) == "child-result"


def test_future_resolve_and_value():
    sim = Simulator()
    fut = Future(sim)
    assert not fut.done
    fut.resolve(10)
    assert fut.done
    assert fut.value == 10


def test_future_double_resolve_raises():
    sim = Simulator()
    fut = Future(sim)
    fut.resolve(1)
    with pytest.raises(SimulationError):
        fut.resolve(2)


def test_future_rejection_raises_in_process():
    sim = Simulator()

    class Boom(Exception):
        pass

    def proc():
        fut = Future(sim)
        sim.call_after(1.0, fut.reject, Boom("bad"))
        try:
            yield fut
        except Boom:
            return "caught"
        return "not caught"

    assert sim.run_process(proc()) == "caught"


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def proc():
        yield sim.sleep(1.0)
        raise ValueError("boom")

    process = sim.spawn(proc())
    del process
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_waited_process_exception_propagates_to_parent():
    sim = Simulator()

    def child():
        yield sim.sleep(1.0)
        raise KeyError("inner")

    def parent():
        try:
            yield sim.spawn(child())
        except KeyError:
            return "handled"
        return "unhandled"

    assert sim.run_process(parent()) == "handled"


def test_yielding_non_future_is_an_error():
    sim = Simulator()

    def proc():
        yield 42

    process = sim.spawn(proc())
    sim.run()
    assert isinstance(process.error, SimulationError)


def test_all_of_collects_values():
    sim = Simulator()

    def make(delay, value):
        def proc():
            yield sim.sleep(delay)
            return value
        return sim.spawn(proc())

    def main():
        futures = [make(3.0, "a"), make(1.0, "b"), make(2.0, "c")]
        values = yield all_of(sim, futures)
        return values, sim.now

    values, now = sim.run_process(main())
    assert values == ["a", "b", "c"]
    assert now == 3.0


def test_all_of_empty():
    sim = Simulator()

    def main():
        values = yield all_of(sim, [])
        return values

    assert sim.run_process(main()) == []


def test_any_of_returns_first():
    sim = Simulator()

    def make(delay, value):
        def proc():
            yield sim.sleep(delay)
            return value
        return sim.spawn(proc())

    def main():
        index, value = yield any_of(sim, [make(5.0, "slow"), make(1.0, "fast")])
        return index, value, sim.now

    index, value, now = sim.run_process(main())
    assert (index, value) == (1, "fast")
    assert now == 1.0


def test_run_until_future():
    sim = Simulator()

    def forever():
        while True:
            yield sim.sleep(1.0)

    sim.spawn(forever())

    def task():
        yield sim.sleep(5.5)
        return "task-done"

    process = sim.spawn(task())
    assert sim.run_until_future(process) == "task-done"
    assert sim.now == 5.5


def test_timeout_future_rejects():
    sim = Simulator()

    class Late(Exception):
        pass

    def main():
        try:
            yield sim.timeout(2.0, Late())
        except Late:
            return sim.now

    assert sim.run_process(main()) == 2.0


class TestEagerSpawn:
    """``Simulator.spawn`` runs the generator's first step before it
    returns: a process pays an event only where it waits."""

    def test_the_first_step_runs_before_spawn_returns(self):
        sim = Simulator()
        steps = []

        def proc():
            steps.append("first")
            yield sim.sleep(1.0)
            steps.append("second")

        process = sim.spawn(proc())
        assert steps == ["first"] and not process.done
        sim.run()
        assert steps == ["first", "second"] and process.done

    def test_an_immediate_return_is_a_done_future_and_costs_no_event(self):
        sim = Simulator()

        def proc():
            return "at once"
            yield  # pragma: no cover

        future = sim.spawn(proc())
        assert type(future) is Future
        assert future.done and future.value == "at once"
        sim.run()
        assert sim.events_processed == 0

    def test_a_first_step_failure_reaches_a_waiter_attached_after_spawn(self):
        sim = Simulator()

        def child():
            raise KeyError("first step")
            yield  # pragma: no cover

        def parent():
            failed = sim.spawn(child())
            assert not failed.done  # rejected one ready event later
            try:
                yield failed
            except KeyError:
                return "handled"
            return "unhandled"

        assert sim.run_process(parent()) == "handled"

    def test_an_unwaited_first_step_failure_surfaces_from_run(self):
        sim = Simulator()

        def child():
            raise ValueError("nobody waits")
            yield  # pragma: no cover

        sim.spawn(child())
        with pytest.raises(ValueError, match="nobody waits"):
            sim.run()

    def test_a_spawn_inside_a_step_never_reenters_the_parent(self):
        """The child's first step resolves what the parent waits on next;
        the parent resumes through the ready queue, after its own step
        has returned, not from inside the child."""
        sim = Simulator()
        trail = []
        signal = Future(sim)

        def child():
            trail.append("child first step")
            signal.resolve("from child")
            trail.append("child resolved")
            yield sim.sleep(1.0)

        def parent():
            trail.append("parent before spawn")
            sim.spawn(child())
            trail.append("parent after spawn")
            value = yield signal
            trail.append(f"parent resumed with {value}")
            return value

        assert sim.run_process(parent()) == "from child"
        assert trail == ["parent before spawn", "child first step",
                         "child resolved", "parent after spawn",
                         "parent resumed with from child"]

    def test_run_process_on_a_generator_that_never_yields(self):
        sim = Simulator()

        def proc():
            return 42
            yield  # pragma: no cover

        assert sim.run_process(proc()) == 42
        assert sim.events_processed == 0
