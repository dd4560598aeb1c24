"""Deterministic discrete-event simulation kernel.

The kernel is a classic event-heap simulator with coroutine *processes*
layered on top.  A process is a Python generator that yields
:class:`Future` objects; the process is resumed with the future's value
once it resolves.  ``Simulator.sleep`` returns a future that resolves
after a simulated delay, so protocol code reads sequentially::

    def write(sim, ...):
        yield sim.sleep(1.5)            # e.g. disk latency
        reply = yield rpc_future        # wait for an RPC response
        return reply                    # via StopIteration.value

Everything is single-threaded and deterministic: events firing at the
same simulated time are ordered by insertion sequence.

Simulated time is measured in **milliseconds** (float) throughout the
repository.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..obs import Observability

__all__ = [
    "Future",
    "Process",
    "SimulationError",
    "Simulator",
    "all_of",
    "settle_all",
    "any_of",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel itself."""


class Future:
    """A one-shot container for a value that will exist later in sim time.

    Futures may be resolved with a value (:meth:`resolve`) or rejected
    with an exception (:meth:`reject`).  Processes wait on a future by
    yielding it; plain callbacks can be attached with
    :meth:`add_callback`.

    A future is itself callable — ``fut(value)`` / ``fut(None, error)``
    completes it.  The scheduling fast paths (``sleep``, ``timeout``,
    network delivery) schedule the future object directly instead of a
    per-call bound method.
    """

    __slots__ = ("sim", "_done", "_value", "_error", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        # Lazily allocated: None until the first waiter registers.  Most
        # futures get exactly one waiter (the yielding process), so the
        # empty-list allocation per future was pure churn.
        self._callbacks: Optional[List[Callable[["Future"], None]]] = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError("future is not resolved yet")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def error(self) -> Optional[BaseException]:
        return self._error if self._done else None

    def __call__(self, value: Any = None,
                 error: Optional[BaseException] = None) -> None:
        if self._done:
            raise SimulationError("future resolved twice")
        self._done = True
        self._value = value
        self._error = error
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for callback in callbacks:
                callback(self)

    #: The same function under the name internal completers use: an
    #: event whose ``fn`` is the future itself pays no wrapper frame.
    _complete = __call__

    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully with ``value``."""
        self._complete(value, None)

    def reject(self, error: BaseException) -> None:
        """Complete the future with an exception."""
        self._complete(None, error)

    def add_callback(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` when done (immediately if already done)."""
        if self._done:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)


class Process(Future):
    """A running coroutine; also a future for the coroutine's return value.

    The generator's ``return`` value resolves the process; an uncaught
    exception rejects it.  Unwaited-on failures propagate out of
    :meth:`Simulator.run` so that bugs never pass silently.
    """

    __slots__ = ("_generator", "name", "_resume", "_step_cb", "_gen_send")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bound once: _step registers this on every future the process
        # yields, and binding per yield shows up in profiles.  Same for
        # the _step/send bindings used once per resume.
        self._resume = self._on_target_done
        self._step_cb = self._step
        self._gen_send = generator.send

    def _step(self, send_value: Any = None, throw_error: Optional[BaseException] = None) -> None:
        try:
            if throw_error is not None:
                target = self._generator.throw(throw_error)
            else:
                target = self._gen_send(send_value)
        except StopIteration as stop:
            # Drop the generator and the bound methods of ``self`` kept
            # beside it (here and on the two failure exits below): they
            # make the process a reference cycle, and left in place every
            # finished process, with all its result references, waits for
            # the cyclic collector.  Inline: this runs once per process.
            self._generator = self._gen_send = None
            self._resume = self._step_cb = None
            self._complete(stop.value, None)
            return
        except Exception as exc:  # noqa: BLE001 - deliberate catch-all boundary
            self._generator = self._gen_send = None
            self._resume = self._step_cb = None
            self.sim._reject(self, exc)
            return
        if not isinstance(target, Future):
            self._yielded_non_future(target)
            return
        if target._done:
            self._on_target_done(target)
        else:
            callbacks = target._callbacks
            if callbacks is None:
                target._callbacks = [self._resume]
            else:
                callbacks.append(self._resume)

    def _yielded_non_future(self, target: Any) -> None:
        self._generator = self._gen_send = None
        self._resume = self._step_cb = None
        self.reject(SimulationError(
            f"process {self.name!r} yielded {target!r}; processes must yield Futures"))

    def _on_target_done(self, fut: Future) -> None:
        if fut._error is not None:
            self.sim._call_soon(self._step_cb, None, fut._error)
        else:
            self.sim._call_soon(self._step_cb, fut._value, None)


#: Compaction floor: never scan the heap for tombstones below this many.
_COMPACT_MIN_TOMBSTONES = 512


class Simulator:
    """The event loop.  All simulated components share one instance.

    An event is one mutable list ``[when, seq, fn, args]``, ordered by
    ``(when, seq)``; ``seq`` is unique, so a comparison never reaches
    ``fn``.  Scheduling puts it on ``_ready`` (a FIFO deque) when
    ``when == now`` and on a heap when it is later; one loop,
    :meth:`_dispatch`, fires them, and :meth:`run` /
    :meth:`run_until_future` differ only in what they do once it returns.

    The side structure cannot reorder anything.  Time only advances
    once ``_ready`` drains, so a heap entry for the current instant was
    pushed *before* the instant began and carries a lower ``seq`` than
    every ready entry; the loop pops whichever head has the lower one.

    What is here beyond one bare heap, and the ``bench/`` workload that
    pays for each (numbers: EXPERIMENTS.md "Round 5" and "Round 7"):

    * HOT: ``_ready`` — same-instant events (process resumes, zero
      delays) skip the O(log n) heap: ``tpcc_epoch``, ``openloop``, ``kv``.
    * HOT: ``_call_soon`` — the process-resume path, once per yield, no
      delay arithmetic, past-check or handle: ``openloop``, ``tpcc``.
    * HOT: :meth:`spawn` runs the first step itself, so a process costs
      an event only where it waits and one that returns at once costs
      none: every RPC's ``Range.serve_*`` handler (a read or pipelined
      write answers without waiting), ``tpcc``, ``kv``, ``movr``
      (EXPERIMENTS.md "Round 27").
    * HOT: ``cancel`` leaves a tombstone (``fn = None``), skipped and
      not counted on dispatch; :meth:`_compact` sweeps them once they
      outnumber live entries.  Every RPC deadline (``Network.call``'s
      ``timeout_ms``) and Raft proposal timeout is cancelled when what it
      guards settles, so the heap holds the ~150 live timers and not
      ~2000 parked guards: ``tpcc_epoch``, ``movr``, ``openloop``.
    * An event drops ``fn``/``args`` as it is dispatched, before the
      call: finished processes and their results die by refcount, not
      in the cyclic collector (``tests/test_gc_garbage.py``), and
      ``cancel`` on a handle that is firing or has fired — a timer
      cancelling itself from its own callback — sees a tombstone and
      does nothing.
    """

    def __init__(self, obs_enabled: bool = True,
                 trace_sample_every: int = 1):
        self._now = 0.0
        self._heap: List[list] = []
        self._ready: deque = deque()
        self._seq = 0
        self._pending_crash: Optional[BaseException] = None
        #: Live tombstones created by :meth:`cancel` and not yet popped.
        self._tombstones = 0
        #: Total events dispatched over the simulator's lifetime; the
        #: benchmark harness divides this by wall-clock for events/sec.
        self.events_processed = 0
        #: Shared observability spine: every component that holds a
        #: ``sim`` reference records metrics and spans here.
        #: ``obs_enabled=False`` drops the span ring and two per-event
        #: distributions, nothing else (``repro.obs`` has the definition).
        #: The clock reads ``_now`` without a Python frame per span.
        self.obs = Observability(partial(getattr, self, "_now"),
                                 enabled=obs_enabled,
                                 trace_sample_every=trace_sample_every)

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    # -- scheduling ------------------------------------------------------

    def call_at(self, when: float, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` at simulated time ``when``.

        Returns the scheduled event (a cancellation handle for
        :meth:`cancel`).
        """
        now = self._now
        event = [when, self._seq, fn, args]
        if when > now:
            heapq.heappush(self._heap, event)
        elif when == now:
            self._ready.append(event)
        else:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {now})")
        self._seq += 1
        return event

    def call_after(self, delay: float, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` milliseconds."""
        # HOT: call_at's body again, not a call to it — most events are
        # scheduled here, and the extra frame (and ``*args`` repack)
        # costs 3-10% ``ops_per_s`` on kv_obs, openloop and tpcc.
        now = self._now
        when = now + delay
        event = [when, self._seq, fn, args]
        if when > now:
            heapq.heappush(self._heap, event)
        elif when == now:
            self._ready.append(event)
        else:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {now})")
        self._seq += 1
        return event

    def _call_soon(self, fn: Callable, *args: Any) -> None:
        self._ready.append([self._now, self._seq, fn, args])
        self._seq += 1

    def cancel(self, event: list) -> None:
        """Cancel a scheduled event (returned by ``call_at``/
        ``call_after``).  The event becomes a tombstone: it is skipped
        (and not counted) when its slot comes up.  Idempotent; safe on
        already-dispatched events."""
        if event[2] is None:
            return
        event[2] = None
        event[3] = ()
        tombstones = self._tombstones + 1
        self._tombstones = tombstones
        if (tombstones >= _COMPACT_MIN_TOMBSTONES
                and tombstones * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned entries from the heap in one pass.

        Safe at any point: dispatch order is total on ``(when, seq)``,
        so re-heapifying the surviving entries preserves it exactly.
        """
        # In place: the dispatch loop holds a local reference to it.
        heap = self._heap
        heap[:] = [event for event in heap if event[2] is not None]
        heapq.heapify(heap)
        # Tombstones parked in the ready deque (cancelled same-instant
        # events) drain on their own within the current instant.
        self._tombstones = sum(1 for event in self._ready
                               if event[2] is None)

    def sleep(self, delay: float) -> Future:
        """Future that resolves ``delay`` ms from now."""
        fut = Future(self)
        self.call_after(delay, fut)
        return fut

    def timeout(self, delay: float, error: BaseException) -> Future:
        """Future that *rejects* with ``error`` after ``delay`` ms."""
        fut = Future(self)
        self.call_after(delay, fut, None, error)
        return fut

    def spawn(self, generator: Generator, name: str = "") -> Future:
        """Start ``generator``, running its first step now (as asyncio's
        eager task factory does).  One that returns at once costs no event
        and is an already-resolved :class:`Future`; one that yields is a
        :class:`Process` waiting on its target, resumed through
        :meth:`_call_soon` so no generator is re-entered.  A first step
        that raises rejects one ready event later, so the spawner can
        attach a waiter; unwaited, it surfaces from :meth:`run`."""
        try:
            target = generator.send(None)
        except StopIteration as stop:
            done = Future(self)
            done._done = True
            done._value = stop.value
            return done
        except Exception as exc:  # noqa: BLE001 - the process boundary
            failed = Future(self)
            self._call_soon(self._reject, failed, exc)
            return failed
        process = Process(self, generator, name)
        if not isinstance(target, Future):
            process._yielded_non_future(target)
        elif target._done:
            process._on_target_done(target)
        else:
            target.add_callback(process._resume)
        return process

    # -- execution -------------------------------------------------------

    def _dispatch(self, stop: Optional[Future],
                  bound: Optional[float]) -> None:
        """The dispatch loop: fire events in ``(when, seq)`` order until
        ``stop`` is done, both queues are empty, or the next event lies
        past ``bound`` — that event is only looked at, and stays queued.
        A failure recorded by :meth:`_crash` is raised before the next
        event fires, or on the way out."""
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        popleft = ready.popleft
        processed = 0
        try:
            while True:
                if self._pending_crash is not None:
                    error, self._pending_crash = self._pending_crash, None
                    raise error
                if stop is not None and stop._done:
                    return
                if ready:
                    # A heap entry at the current instant predates every
                    # ready entry's creation but may still order first.
                    if heap and heap[0][0] == self._now \
                            and heap[0][1] < ready[0][1]:
                        event = heappop(heap)
                    else:
                        event = popleft()
                    fn = event[2]
                    if fn is None:
                        self._tombstones -= 1
                        continue
                elif heap:
                    event = heap[0]
                    fn = event[2]
                    if fn is None:
                        heappop(heap)
                        self._tombstones -= 1
                        continue  # cancelled: do not even advance time
                    if bound is not None and event[0] > bound:
                        return
                    heappop(heap)
                    self._now = event[0]
                else:
                    return
                processed += 1
                # Release the callback and its arguments before the call,
                # not when the last handle to the event goes away: the
                # event is already off the queues, so a ``cancel`` from
                # inside ``fn`` must find a tombstone, not a live entry.
                args = event[3]
                event[2] = None
                event[3] = ()
                fn(*args)
        finally:
            self.events_processed += processed

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queues drain or sim time reaches ``until``.

        Events at exactly ``until`` fire and the clock is left there.  An
        ``until`` already in the past means "now": the rest of the
        current instant runs and the clock never moves backwards.
        """
        if until is not None and until < self._now:
            until = self._now
        self._dispatch(None, until)
        if until is not None:
            self._now = until

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Spawn ``generator``, run to completion, and return its value."""
        process = self.spawn(generator, name)
        self.run()
        if not process.done:
            raise SimulationError(
                f"process {process.name!r} never completed (deadlock?)")
        return process.value

    def run_until_future(self, future: Future,
                         limit: Optional[float] = None) -> Any:
        """Run events until ``future`` completes; return its value.

        Unlike :meth:`run`, this works with never-ending background
        processes (heartbeats, side transports) in the event heap.
        ``limit`` bounds simulated time as a deadlock guard: the first
        event past it is left queued and ``SimulationError`` is raised.
        """
        self._dispatch(future, limit)
        if future._done:
            return future.value
        if self._heap:
            raise SimulationError(
                f"future not resolved by simulated time {limit}")
        raise SimulationError("event heap drained before future resolved")

    def _reject(self, future: Future, error: BaseException) -> None:
        """Reject ``future``; with nobody waiting on it, crash the run."""
        had_waiters = bool(future._callbacks)
        future.reject(error)
        if not had_waiters:
            self._crash(error)

    def _crash(self, error: BaseException) -> None:
        # Recorded rather than raised so the failure surfaces from run()
        # instead of unwinding through an arbitrary callback chain.
        if self._pending_crash is None:
            self._pending_crash = error


def all_of(sim: Simulator, futures: Iterable[Future]) -> Future:
    """Future resolving with a list of all values once every input is done.

    Rejects with the first error observed.
    """
    futures = list(futures)
    result = Future(sim)
    if not futures:
        result.resolve([])
        return result
    remaining = [len(futures)]

    def on_done(_fut: Future) -> None:
        if result.done:
            return
        if _fut.error is not None:
            result.reject(_fut.error)
            return
        remaining[0] -= 1
        if remaining[0] == 0:
            result.resolve([f._value for f in futures])

    for fut in futures:
        fut.add_callback(on_done)
    return result


def settle_all(sim: Simulator, futures: Iterable[Future]) -> Future:
    """Future resolving (never rejecting) once every input has settled.

    Resolves with the list of input futures; callers inspect each for
    value or error.  Unlike :func:`all_of`, this does not give up on the
    first failure — needed when side effects of still-pending futures
    (e.g. replicated write intents) must be accounted for before acting
    on the failure.
    """
    futures = list(futures)
    result = Future(sim)
    if not futures:
        result.resolve([])
        return result
    remaining = [len(futures)]

    def on_done(_fut: Future) -> None:
        remaining[0] -= 1
        if remaining[0] == 0:
            result.resolve(futures)

    for fut in futures:
        fut.add_callback(on_done)
    return result


def any_of(sim: Simulator, futures: Iterable[Future]) -> Future:
    """Future resolving with (index, value) of the first input to resolve."""
    futures = list(futures)
    if not futures:
        raise SimulationError("any_of requires at least one future")
    result = Future(sim)

    def make_callback(index: int) -> Callable[[Future], None]:
        def on_done(fut: Future) -> None:
            if result.done:
                return
            if fut.error is not None:
                result.reject(fut.error)
            else:
                result.resolve((index, fut._value))
        return on_done

    for i, fut in enumerate(futures):
        fut.add_callback(make_callback(i))
    return result

