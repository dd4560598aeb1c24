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
    "ProcessFailed",
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

    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully with ``value``."""
        self._complete(value, None)

    def reject(self, error: BaseException) -> None:
        """Complete the future with an exception."""
        self._complete(None, error)

    def __call__(self, value: Any = None,
                 error: Optional[BaseException] = None) -> None:
        # _complete's body, duplicated: this is the event-dispatch entry
        # for the hottest completion paths and the extra frame is
        # measurable at benchmark event rates.
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

    def _complete(self, value: Any, error: Optional[BaseException]) -> None:
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

    def add_callback(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` when done (immediately if already done)."""
        if self._done:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)


class ProcessFailed(SimulationError):
    """A waited-on process terminated with an exception."""


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
            had_waiters = bool(self._callbacks)
            self.reject(exc)
            if not had_waiters and not self.sim._swallow_orphan_failures:
                self.sim._crash(exc)
            return
        if not isinstance(target, Future):
            self._generator = self._gen_send = None
            self._resume = self._step_cb = None
            self.reject(SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Futures"))
            return
        if target._done:
            self._on_target_done(target)
        else:
            callbacks = target._callbacks
            if callbacks is None:
                target._callbacks = [self._resume]
            else:
                callbacks.append(self._resume)

    def _on_target_done(self, fut: Future) -> None:
        if fut._error is not None:
            self.sim._call_soon(self._step_cb, None, fut._error)
        else:
            self.sim._call_soon(self._step_cb, fut._value, None)


#: Upper bound on the recycled-event free list (see Simulator._free).
_FREE_LIST_CAP = 4096

#: Compaction floor: never scan the heap for tombstones below this many.
_COMPACT_MIN_TOMBSTONES = 512

# -- hierarchical timer wheel ------------------------------------------------
#
# Long-delay timers (heartbeat intervals, closed-timestamp side-transport
# ticks, retransmission timers, RPC timeouts) do not go straight into the
# heap: they are appended O(1) to a wheel bucket keyed by quantized fire
# time, and a bucket is merged into the heap only when simulated time
# approaches its window ("one wheel advance per window").  Dispatch order
# is untouched — merged events re-enter the heap and the (when, seq) total
# order decides as before — but the heap stays small, and timers cancelled
# while still parked in a bucket (the common fate of RPC timeouts and
# retransmission timers) are dropped at drain time without ever paying a
# heap push.  Two levels: fine buckets of ``_WHEEL_TICK`` ms, and coarse
# buckets of ``_WHEEL_COARSE`` ms that cascade into fine buckets on drain.

#: Fine-level bucket width (ms).
_WHEEL_TICK = 128.0
#: Fine buckets per coarse bucket.
_WHEEL_SPAN = 64
#: Coarse-level bucket width (ms).
_WHEEL_COARSE = _WHEEL_TICK * _WHEEL_SPAN
#: Only delays at least this long are worth the bucket bookkeeping.
_WHEEL_MIN_DELAY = 96.0


class Simulator:
    """The event loop.  All simulated components share one instance.

    Events are packed mutable lists ``[when, seq, fn, args]`` — one
    allocation per event, heap-ordered by ``(when, seq)``.  Two
    structures hold them:

    * ``_heap`` for future events (``when > now``);
    * ``_ready``, a FIFO deque, for events scheduled *at the current
      instant* (``call_after(0, ...)`` and the process-resume path) —
      the hottest scheduling operation, O(1) instead of O(log n).

    The split preserves exact dispatch order: time only advances once
    ``_ready`` drains, so any heap entry for the current instant was
    pushed *before* the instant began and therefore carries a lower
    ``seq`` than every ready entry; the run loop pops whichever of the
    two heads has the lower sequence.

    ``call_at``/``call_after`` return the event, which doubles as a
    cancellation handle for :meth:`cancel` — cancelled events stay put
    as tombstones (``fn = None``) and are skipped on dispatch, avoiding
    O(n) heap surgery.  Once tombstones pile up past a threshold the
    heap is compacted in one pass (:meth:`_compact`), so long chaos
    runs with many expired timeouts don't drag dead entries.

    Internal scheduling paths whose handles never escape (process
    resumes, ``sleep``, network deliveries) use *recyclable* events —
    5-slot lists drawn from a bounded free list instead of fresh
    allocations.  Mixed 4/5-slot entries coexist in the heap safely:
    ordering compares ``(when, seq)`` and ``seq`` is unique, so the
    comparison never reaches the extra slot.
    """

    def __init__(self, obs_enabled: bool = True,
                 trace_sample_every: int = 1):
        self._now = 0.0
        self._heap: List[list] = []
        self._ready: deque = deque()
        self._seq = 0
        self._pending_crash: Optional[BaseException] = None
        self._swallow_orphan_failures = False
        #: Recycled 5-slot event lists (the "ring" for the zero-fault
        #: fast path): dispatch returns them here, schedulers pop them.
        self._free: List[list] = []
        #: Live tombstones created by :meth:`cancel` and not yet popped.
        self._tombstones = 0
        #: Hierarchical timer wheel (see module comment): fine/coarse
        #: bucket dicts keyed by quantized fire time, the count of
        #: parked events, the start time of the earliest non-empty
        #: bucket, and the drain floor (fine buckets below it are
        #: already merged and must never be re-filled).
        self._wheel_fine: dict = {}
        self._wheel_coarse: dict = {}
        self._wheel_count = 0
        self._wheel_next = float("inf")
        self._wheel_floor = 0
        #: Total events dispatched over the simulator's lifetime; the
        #: benchmark harness divides this by wall-clock for events/sec.
        self.events_processed = 0
        #: Shared observability spine: every component that holds a
        #: ``sim`` reference records metrics and spans here.
        #: ``obs_enabled=False`` swaps in the no-op registry/tracer.
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
        if when <= now:
            if when < now:
                raise SimulationError(
                    f"cannot schedule in the past ({when} < {now})")
            event = [now, self._seq, fn, args]
            self._seq += 1
            self._ready.append(event)
            return event
        event = [when, self._seq, fn, args]
        self._seq += 1
        if when - now >= _WHEEL_MIN_DELAY:
            self._enqueue_future(event, when)
        else:
            heapq.heappush(self._heap, event)
        return event

    def call_after(self, delay: float, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` milliseconds."""
        # call_at's body, inlined: this is the hottest scheduling call
        # in the simulator and the extra frame is measurable.
        now = self._now
        when = now + delay
        event = [when, self._seq, fn, args]
        self._seq += 1
        if when <= now:
            if when < now:
                raise SimulationError(
                    f"cannot schedule in the past ({when} < {now})")
            self._ready.append(event)
        elif delay >= _WHEEL_MIN_DELAY:
            self._enqueue_future(event, when)
        else:
            heapq.heappush(self._heap, event)
        return event

    def _schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """``call_after`` for events whose handle never escapes: the
        event list is drawn from (and after dispatch returned to) the
        free list.  No cancellation handle — callers must not need one.
        """
        now = self._now
        when = now + delay
        free = self._free
        if free:
            event = free.pop()
            event[0] = when
            event[1] = self._seq
            event[2] = fn
            event[3] = args
        else:
            event = [when, self._seq, fn, args, 1]
        self._seq += 1
        if when <= now:
            if when < now:
                raise SimulationError(
                    f"cannot schedule in the past ({when} < {now})")
            self._ready.append(event)
        elif delay >= _WHEEL_MIN_DELAY:
            self._enqueue_future(event, when)
        else:
            heapq.heappush(self._heap, event)

    def _enqueue_future(self, event: list, when: float) -> None:
        """Park a long-delay event on the timer wheel, or fall back to
        the heap when its window is too close (or already draining)."""
        idx = int(when // _WHEEL_TICK)
        if idx > int(self._now // _WHEEL_TICK) and idx >= self._wheel_floor:
            if when - self._now < _WHEEL_COARSE:
                bucket = self._wheel_fine.get(idx)
                if bucket is None:
                    bucket = self._wheel_fine[idx] = []
                start = idx * _WHEEL_TICK
            else:
                cidx = int(when // _WHEEL_COARSE)
                bucket = self._wheel_coarse.get(cidx)
                if bucket is None:
                    bucket = self._wheel_coarse[cidx] = []
                start = cidx * _WHEEL_COARSE
            bucket.append(event)
            self._wheel_count += 1
            if start < self._wheel_next:
                self._wheel_next = start
            return
        heapq.heappush(self._heap, event)

    def _wheel_drain(self) -> None:
        """Advance the wheel one window: merge the earliest non-empty
        fine bucket into the heap (dropping parked tombstones), or
        cascade the earliest coarse bucket into fine buckets."""
        target = self._wheel_next
        fine = self._wheel_fine
        idx = int(target // _WHEEL_TICK)
        bucket = fine.pop(idx, None)
        if bucket is not None:
            heappush = heapq.heappush
            heap = self._heap
            for event in bucket:
                if event[2] is None:
                    self._tombstones -= 1
                else:
                    heappush(heap, event)
                self._wheel_count -= 1
            if idx >= self._wheel_floor:
                self._wheel_floor = idx + 1
        else:
            cidx = int(target // _WHEEL_COARSE)
            cbucket = self._wheel_coarse.pop(cidx, None)
            if cbucket is not None:
                for event in cbucket:
                    if event[2] is None:
                        self._tombstones -= 1
                        self._wheel_count -= 1
                        continue
                    fidx = int(event[0] // _WHEEL_TICK)
                    fbucket = fine.get(fidx)
                    if fbucket is None:
                        fbucket = fine[fidx] = []
                    fbucket.append(event)
        self._recompute_wheel_next()

    def _recompute_wheel_next(self) -> None:
        nxt = float("inf")
        if self._wheel_fine:
            nxt = min(self._wheel_fine) * _WHEEL_TICK
        if self._wheel_coarse:
            coarse_next = min(self._wheel_coarse) * _WHEEL_COARSE
            if coarse_next < nxt:
                nxt = coarse_next
        self._wheel_next = nxt

    def _call_soon(self, fn: Callable, *args: Any) -> None:
        free = self._free
        if free:
            event = free.pop()
            event[0] = self._now
            event[1] = self._seq
            event[2] = fn
            event[3] = args
        else:
            event = [self._now, self._seq, fn, args, 1]
        self._seq += 1
        self._ready.append(event)

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
        # In place: the run loops hold a local reference to the heap.
        heap = self._heap
        heap[:] = [event for event in heap if event[2] is not None]
        heapq.heapify(heap)
        # Cancelled events parked on the timer wheel are dropped from
        # their buckets in place (bucket order is irrelevant: draining
        # re-establishes total order through the heap).
        if self._wheel_count:
            count = 0
            for wheel in (self._wheel_fine, self._wheel_coarse):
                empty = []
                for idx, bucket in wheel.items():
                    bucket[:] = [e for e in bucket if e[2] is not None]
                    if bucket:
                        count += len(bucket)
                    else:
                        empty.append(idx)
                for idx in empty:
                    del wheel[idx]
            self._wheel_count = count
            self._recompute_wheel_next()
        # Tombstones parked in the ready deque (cancelled same-instant
        # events) drain on their own within the current instant.
        self._tombstones = sum(1 for event in self._ready
                               if event[2] is None)

    def sleep(self, delay: float) -> Future:
        """Future that resolves ``delay`` ms from now."""
        fut = Future(self)
        self._schedule(delay, fut)
        return fut

    def timeout(self, delay: float, error: BaseException) -> Future:
        """Future that *rejects* with ``error`` after ``delay`` ms."""
        fut = Future(self)
        self._schedule(delay, fut, None, error)
        return fut

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        process = Process(self, generator, name)
        self._call_soon(process._step_cb, None, None)
        return process

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queues drain or sim time reaches ``until``."""
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        popleft = ready.popleft
        free = self._free
        processed = 0
        try:
            while ready or heap or self._wheel_count:
                if self._pending_crash is not None:
                    error, self._pending_crash = self._pending_crash, None
                    raise error
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
                else:
                    # Merge due wheel windows before dispatching at or
                    # past them (wheel events are strictly future, so
                    # the ready path above never needs this).
                    if self._wheel_count and (
                            not heap or heap[0][0] >= self._wheel_next):
                        self._wheel_drain()
                        continue
                    head = heap[0]
                    if until is not None and head[0] > until:
                        self._now = until
                        return
                    event = heappop(heap)
                    fn = event[2]
                    if fn is None:
                        self._tombstones -= 1
                        continue  # cancelled: do not even advance time
                    self._now = event[0]
                processed += 1
                fn(*event[3])
                # Release callback/args references eagerly (shorter
                # object lifetimes, cheaper GC) and recycle 5-slot
                # internal events.
                event[2] = None
                event[3] = ()
                if len(event) == 5 and len(free) < _FREE_LIST_CAP:
                    free.append(event)
        finally:
            self.events_processed += processed
        if self._pending_crash is not None:
            error, self._pending_crash = self._pending_crash, None
            raise error
        if until is not None and until > self._now:
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
        ``limit`` bounds simulated time as a deadlock guard.
        """
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        popleft = ready.popleft
        free = self._free
        processed = 0
        try:
            while not future._done and (ready or heap or self._wheel_count):
                if self._pending_crash is not None:
                    error, self._pending_crash = self._pending_crash, None
                    raise error
                if ready:
                    if heap and heap[0][0] == self._now \
                            and heap[0][1] < ready[0][1]:
                        event = heappop(heap)
                    else:
                        event = popleft()
                    fn = event[2]
                    if fn is None:
                        self._tombstones -= 1
                        continue
                else:
                    if self._wheel_count and (
                            not heap or heap[0][0] >= self._wheel_next):
                        self._wheel_drain()
                        continue
                    event = heappop(heap)
                    fn = event[2]
                    if fn is None:
                        self._tombstones -= 1
                        continue
                    if limit is not None and event[0] > limit:
                        raise SimulationError(
                            f"future not resolved by simulated time {limit}")
                    self._now = event[0]
                processed += 1
                fn(*event[3])
                event[2] = None
                event[3] = ()
                if len(event) == 5 and len(free) < _FREE_LIST_CAP:
                    free.append(event)
        finally:
            self.events_processed += processed
        if self._pending_crash is not None:
            error, self._pending_crash = self._pending_crash, None
            raise error
        if not future.done:
            raise SimulationError("event heap drained before future resolved")
        return future.value

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


def with_timeout(sim: Simulator, future: Future, delay_ms: float,
                 error) -> Future:
    """Mirror ``future`` unless ``delay_ms`` elapses first.

    The returned future resolves/rejects with ``future``'s outcome, or
    rejects with ``error`` at the deadline.  ``error`` may be an
    exception instance, or a zero-argument callable returning one —
    deadlines almost never fire, so hot callers pass a factory to avoid
    building an exception (and formatting its message) per call.  A
    late outcome on the inner future is consumed silently (the caller
    has already moved on) — this is the per-RPC timeout primitive for
    hardened client paths.
    """
    result = Future(sim)

    def on_done(fut: Future) -> None:
        if result.done:
            return
        if fut.error is not None:
            result.reject(fut.error)
        else:
            result.resolve(fut._value)

    def on_deadline() -> None:
        if not result.done:
            err = error if isinstance(error, BaseException) else error()
            result.reject(err)

    future.add_callback(on_done)
    sim.call_after(delay_ms, on_deadline)
    return result


__all__.append("with_timeout")


def quorum_of(sim: Simulator, futures: Iterable[Future], needed: int) -> Future:
    """Future resolving once ``needed`` of the inputs have resolved.

    Used for Raft quorum waits: rejections count as unreachable replicas
    and only fail the quorum when success becomes impossible.
    """
    futures = list(futures)
    result = Future(sim)
    if needed <= 0:
        result.resolve([])
        return result
    if needed > len(futures):
        raise SimulationError("quorum larger than the group")
    successes: List[Any] = []
    failures = [0]

    def on_done(fut: Future) -> None:
        if result.done:
            return
        if fut.error is not None:
            failures[0] += 1
            if len(futures) - failures[0] < needed:
                result.reject(fut.error)
            return
        successes.append(fut._value)
        if len(successes) >= needed:
            result.resolve(list(successes))

    for fut in futures:
        fut.add_callback(on_done)
    return result


__all__.append("quorum_of")
