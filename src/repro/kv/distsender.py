"""DistSender: routes KV requests from a gateway node to replicas.

Fresh writes always go to the leaseholder.  Reads are routed by policy:

* ``LEASEHOLDER`` — REGIONAL-table fresh reads (linearizable at the
  leaseholder);
* ``NEAREST`` — GLOBAL-table fresh reads and stale reads: try the
  closest replica first and fall back to the leaseholder when the
  follower cannot serve (closed timestamp too low, or an intent needs
  conflict resolution — paper §5.1.1/§6.2).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import partial
from typing import (Any, Generator, Iterable, List, Optional, Sequence,
                    Tuple)

from ..errors import (
    ClockFencedError,
    DatabaseError,
    DeadlineExceededError,
    FollowerReadNotAvailableError,
    RangeKeyMismatchError,
    StaleReadBoundError,
    WriteIntentError,
)
from ..sim.clock import Timestamp
from ..sim.core import Future, all_of
from ..sim.network import (NetworkUnavailableError, RequestNotSentError,
                           RpcTimeoutError)
from ..sim.retry import ExponentialBackoff
from ..storage.mvcc import ReadResult
from .circuit import BreakerSet
from .keyspace import TableSpan, encode_key
from .range import Range

__all__ = ["DistSender", "ReadRouting", "negotiated_timestamp"]


class ReadRouting:
    LEASEHOLDER = "leaseholder"
    NEAREST = "nearest"


def _value_generator(fn, *args) -> Generator:
    """Run ``fn(*args)`` as a zero-yield coroutine: an RPC handler for a
    synchronous replica call."""
    result = fn(*args)
    return result
    yield  # pragma: no cover


def negotiated_timestamp(servable: Iterable[Timestamp],
                         min_ts: Timestamp) -> Timestamp:
    """The §5.3.2 negotiation rule, as a pure function.

    Given every required replica's maximum locally-servable timestamp,
    the negotiated read timestamp is their minimum — the newest
    timestamp *all* replicas can serve — clamped to be meaningful by
    ``min_ts`` when there are no replicas.  Raises
    :class:`StaleReadBoundError` if that falls below the caller's
    minimum bound.
    """
    servable = list(servable)
    negotiated = min(servable) if servable else min_ts
    if negotiated < min_ts:
        raise StaleReadBoundError(
            f"negotiated {negotiated} below bound {min_ts}")
    return negotiated


class _Batch:
    """One ``read_batch`` / ``write_batch`` / ``query_intents`` /
    ``resolve_intents`` in flight: ``requests`` — tuples that start
    ``(token, key)`` — sent as one per-range request per owning range.

    The requests are grouped through the span cache, in order of first
    appearance, and each group is sent as ``handler(members)``: the
    verb's per-range request, whose value is the member's result for a
    one-member group and lists one result per member otherwise.
    ``result`` never rejects: it resolves, once every group has settled,
    with one outcome per request *in request order* — the key's result,
    or for every key of a group that failed, that group's exception.

    A group bounced with ``RangeKeyMismatch`` (a split or merge landed
    between grouping and serving) can never fit the range it was sent
    to, so it is not retried as it stands: the bounce has invalidated
    the span cache, and the group's keys are partitioned again and
    re-sent, each new group with the full robustness kit.  (A one-key
    request has a single new owner, and its own call re-routes it.)
    ``RPC_MAX_ATTEMPTS`` bounds the re-partitions of one lineage.

    An object with bound-method callbacks, not a pair of closures that
    name each other: a finished batch dies by refcount, not in the
    cyclic collector (``tests/test_kv_batch.py::TestNoCyclicGarbage``).
    """

    __slots__ = ("ds", "requests", "handler", "outcomes", "result",
                 "in_flight")

    def __init__(self, ds: "DistSender", requests, handler):
        self.ds = ds
        self.requests = requests
        self.handler = handler
        self.outcomes: List[Any] = [None] * len(requests)
        self.result = Future(ds.cluster.sim)
        self.in_flight = 0
        if requests:
            self.send(range(len(requests)), 0)
        else:
            self.result.resolve(self.outcomes)

    def send(self, indices, attempt: int) -> None:
        requests = self.requests
        resolve = self.ds.resolve
        groups: dict = {}
        for index in indices:
            request = requests[index]
            groups.setdefault(resolve(request[0], request[1]),
                              []).append(index)
        self.in_flight += len(groups)
        for members in groups.values():
            call = self.handler([requests[index] for index in members])
            call.add_callback(partial(self.settle, members, attempt))

    def settle(self, members: List[int], attempt: int, fut: Future) -> None:
        outcomes = self.outcomes
        error = fut._error
        if error is None:
            values = fut._value if len(members) > 1 else (fut._value,)
            for index, value in zip(members, values):
                outcomes[index] = value
        elif (isinstance(error, RangeKeyMismatchError) and len(members) > 1
                and attempt + 1 < self.ds.RPC_MAX_ATTEMPTS):
            self.send(members, attempt + 1)
        else:
            for index in members:
                outcomes[index] = error
        self.in_flight -= 1
        if not self.in_flight:
            self.result.resolve(outcomes)


class _LeaseholderCall(Future):
    """One :meth:`DistSender._leaseholder_call`, and the future of its
    outcome: the attempt loop as callbacks, so an RPC costs no process.
    :meth:`_send` runs attempts until one is in flight (its outcome comes
    to :meth:`_on_outcome`) or backs off (a timer calls :meth:`_next`);
    what it raises ends the call.  A first attempt's failure rejects one
    ready event later, as a spawned process's first step does, so the
    caller can attach a waiter.  Bound-method callbacks, as in
    :class:`_Batch`: a finished call dies by refcount."""

    __slots__ = ("ds", "gateway", "token", "handler", "op", "deadline_ms",
                 "keys", "rng", "op_span", "attempt", "attempt_span",
                 "breaker", "backoff", "last_error", "in_doubt")

    def __init__(self, ds: "DistSender", gateway, token, handler, span,
                 op: str, deadline_ms: Optional[float],
                 keys: Sequence[Any], record_load: bool):
        sim = ds.cluster.sim
        Future.__init__(self, sim)
        self.ds = ds
        self.gateway = gateway
        self.token = token
        self.handler = handler
        self.op = op
        self.deadline_ms = deadline_ms
        self.keys = keys
        rng = self.rng = ds.resolve(token, keys[0] if keys else None)
        if record_load:
            load = rng.descriptor.load
            region = gateway.locality.region
            for each in keys:
                load.record(sim.now, key=each, region=region)
        # ``span`` is 0 for an untraced request (skip the calls) and
        # None for a caller with no trace context (a client entry).
        self.op_span = (ds._tracer.start(
            op, span, ("range", rng.name, "keys", len(keys))
            if len(keys) > 1 else ("range", rng.name))
            if span != 0 else 0)
        self.attempt = 0
        # Constructed lazily: the zero-retry fast path never draws a
        # backoff delay, so skip the allocation.
        self.backoff = None
        self.last_error: Optional[BaseException] = None
        # The failure of an attempt that may have reached the range (and
        # may yet take effect): what the call fails with, whatever the
        # later attempts ran into.
        self.in_doubt: Optional[BaseException] = None
        try:
            self._send()
        except (DatabaseError, NetworkUnavailableError) as err:
            self._finish_op()
            sim._call_soon(sim._reject, self, err)

    def _send(self) -> None:
        ds = self.ds
        sim = ds.cluster.sim
        tracer = ds._tracer
        gateway = self.gateway
        deadline_ms = self.deadline_ms
        while self.attempt < ds.RPC_MAX_ATTEMPTS:
            if self.attempt:
                # Attempt 0 reuses the constructor's resolve.
                keys = self.keys
                self.rng = ds.resolve(self.token, keys[0] if keys else None)
            rng = self.rng
            if deadline_ms is not None and sim.now >= deadline_ms:
                # Nobody is waiting for this answer anymore: drop the RPC
                # instead of spending an attempt (and server capacity)
                # past the deadline.
                ds._c_deadline_drops.inc()
                tracer.tag(self.op_span, "error", "deadline_exceeded")
                raise DeadlineExceededError(self.op, deadline_ms, sim.now)
            if ds.network.node_is_dead(gateway.node_id):
                # The client's own gateway store is down: fail fast
                # instead of blaming (and failing over) a healthy
                # leaseholder for our local outage.
                tracer.tag(self.op_span, "error", "gateway_down")
                raise self.in_doubt or RequestNotSentError(
                    f"gateway node {gateway.node_id} is down")
            dst = rng.leaseholder_node
            breaker = self.breaker = ds.breakers.for_node(dst.node_id)
            attempt_span = self.attempt_span = self.op_span and tracer.start(
                "rpc.attempt", self.op_span,
                ("attempt", self.attempt + 1, "dst", dst.node_id))
            if not breaker.allow(sim.now):
                # Known-bad leaseholder: try to move the lease right away
                # rather than burning a timeout on it.
                tracer.tag(attempt_span, "breaker", "open")
                if rng.maybe_failover(from_node=gateway, force=True):
                    ds._c_failovers.inc()
                    tracer.finish(attempt_span, "failover", True)
                    self.attempt += 1
                    continue
                self.last_error = RequestNotSentError(
                    f"node {dst.node_id}: circuit breaker open")
                self._back_off()
                return
            timeout_ms = ds.RPC_TIMEOUT_MS
            if deadline_ms is not None:
                timeout_ms = min(timeout_ms, deadline_ms - sim.now)
            ds.network.call(
                gateway, dst, self.handler, rng, attempt_span,
                payload_size=len(self.keys) or 1, span=attempt_span,
                timeout_ms=timeout_ms,
                timeout_error=ds._timeout_error_factory(dst.node_id),
            ).add_callback(self._on_outcome)
            return
        raise self.in_doubt or self.last_error

    def _next(self) -> None:
        self.attempt += 1
        try:
            self._send()
        except (DatabaseError, NetworkUnavailableError) as err:
            self._fail(err)

    def _back_off(self) -> None:
        """Close the attempt's span and retry after a seeded delay — or
        drop the call: a retry whose backoff outlasts the deadline used
        to sleep it in full and fire anyway, long after the client had
        given up."""
        ds = self.ds
        sim = ds.cluster.sim
        if self.backoff is None:
            self.backoff = ExponentialBackoff(rng=ds._retry_rng,
                                              base_ms=10.0, max_ms=400.0)
        delay = self.backoff.next_delay()
        deadline_ms = self.deadline_ms
        if deadline_ms is not None and sim.now + delay >= deadline_ms:
            ds._c_deadline_drops.inc()
            ds._tracer.finish(self.attempt_span, "error", "deadline_exceeded")
            raise DeadlineExceededError(self.op, deadline_ms, sim.now)
        ds._tracer.finish(self.attempt_span, "backoff_ms", delay)
        sim.call_after(delay, self._next)

    def _on_outcome(self, fut: Future) -> None:
        error = fut._error
        breaker = self.breaker
        tracer = self.ds._tracer
        attempt_span = self.attempt_span
        if error is None:
            breaker.record_success()
            if attempt_span:
                tracer.finish(attempt_span)
            self._finish_op()
            self._complete(fut._value, None)
            return
        ds = self.ds
        if isinstance(error, (NetworkUnavailableError, ClockFencedError)):
            # ClockFencedError: the leaseholder refused to serve because
            # it clock-fenced itself — treat exactly like node death:
            # fail the lease over to a healthy voter and retry there.
            breaker.record_failure(ds.cluster.sim.now)
            self.last_error = error
            if not isinstance(error, (RequestNotSentError,
                                      ClockFencedError)):
                self.in_doubt = error
            ds._c_retries.inc()
            tracer.tag(attempt_span, "error", type(error).__name__)
            if self.rng.maybe_failover(
                    from_node=self.gateway,
                    force=(breaker.is_open
                           or isinstance(error, ClockFencedError))):
                ds._c_failovers.inc()
                tracer.tag(attempt_span, "failover", True)
            try:
                self._back_off()
            except DeadlineExceededError as err:
                self._fail(err)
            return
        if isinstance(error, RangeKeyMismatchError):
            # The contacted range no longer owns the key — a split/merge
            # won the race.  Not a failure of the node (it answered), so
            # the breaker records success; invalidate the descriptor
            # cache and re-resolve immediately, no backoff.
            breaker.record_success()
            self.last_error = error
            ds._c_retries.inc()
            tracer.finish(attempt_span, "error", "range_key_mismatch")
            ds._invalidate_token(self.token)
            if len(self.keys) > 1:
                self._fail(error)
            else:
                self._next()
            return
        if isinstance(error, DatabaseError):
            # The node answered; the failure is application-level.
            breaker.record_success()
            tracer.finish(attempt_span, "error", type(error).__name__)
        self._fail(error)

    def _finish_op(self) -> None:
        if self.op_span:
            self.ds._tracer.finish(self.op_span)

    def _fail(self, error: BaseException) -> None:
        self._finish_op()
        self.ds.cluster.sim._reject(self, error)


class DistSender:
    """Per-cluster request router (stateless; one instance is shared)."""

    #: Per-RPC timeout for leaseholder calls; generous so only genuinely
    #: lost RPCs (dropped packets, gray nodes) trip it, never a slow but
    #: progressing consensus round or lock wait.
    RPC_TIMEOUT_MS = 5000.0
    #: Tries per leaseholder call (failover and mismatch re-routes
    #: included).
    RPC_MAX_ATTEMPTS = 3
    #: Per-replica circuit breaker: consecutive failures to trip, time
    #: open before a half-open probe, and the seeded probe stagger.
    BREAKER_THRESHOLD = 3
    BREAKER_COOLDOWN_MS = 500.0
    BREAKER_PROBE_JITTER = 0.15

    def __init__(self, cluster):
        self.cluster = cluster
        self.network = cluster.network
        registry = cluster.sim.obs.registry
        self._tracer = cluster.sim.obs.tracer
        # Half-open probe scheduling is seeded through the simulation
        # seed: a fleet of breakers tripped by the same fault re-probes
        # staggered instead of in lockstep, and every run of a given
        # seed schedules probes byte-identically.
        breaker_rng = random.Random((cluster.seed << 8) ^ 0xB4EA)
        self.breakers = BreakerSet(self.BREAKER_THRESHOLD,
                                   self.BREAKER_COOLDOWN_MS,
                                   registry=registry, rng=breaker_rng,
                                   probe_jitter=self.BREAKER_PROBE_JITTER)
        # A restarted node deserves a clean slate: accumulated failures
        # (and any probe stranded when it died) belong to the previous
        # incarnation.
        self.network.on_node_restart(self.breakers.reset)
        self._retry_rng = random.Random((cluster.seed << 8) ^ 0xD157)
        #: (gateway_node_id, range_id) -> (replica, routing_generation).
        #: Consulted only while the fault plane is clean and no breaker
        #: is open — the only conditions under which replica selection
        #: depends on anything beyond membership and lease placement.
        self._route_cache: dict = {}
        #: Span-keyed range-descriptor cache: span id -> (start-key
        #: list, descriptor list) snapshot.  Keyed by identity,
        #: not name: two databases' same-named tables are different
        #: spans.  Entries go stale the moment a split/merge lands;
        #: staleness is caught either by the synchronous span-change
        #: subscription (meta-range gossip) or by a RangeKeyMismatch
        #: bounce from the old owner.
        self._span_cache: dict = {}
        #: dst node_id -> lazy RpcTimeoutError factory for an RPC deadline
        #: (timeouts almost never fire; don't build the exception per RPC).
        self._timeout_factories: dict = {}
        #: Counters, read through ``registry.value(name)``.
        self._c_fallbacks = registry.counter("distsender.follower_read_fallbacks")
        self._c_follower_served = registry.counter("distsender.follower_reads_served")
        self._c_retries = registry.counter("distsender.rpc_retries")
        self._c_failovers = registry.counter("distsender.failovers_triggered")
        self._c_deadline_drops = registry.counter("distsender.deadline_drops")
        self._c_cache_hit = registry.counter("distsender.range_cache_hit")
        self._c_cache_miss = registry.counter("distsender.range_cache_miss")
        self._c_cache_inval = registry.counter(
            "distsender.range_cache_invalidation")
        self._c_resolve_batches = registry.counter("kv.resolve_batches")

    # -- span-keyed descriptor resolution --------------------------------------

    def _timeout_error_factory(self, node_id: int):
        factory = self._timeout_factories.get(node_id)
        if factory is None:
            def factory(_node_id=node_id):
                return RpcTimeoutError(
                    f"rpc to node {_node_id} timed out")
            self._timeout_factories[node_id] = factory
        return factory

    def resolve(self, token: Any, key: Any = None) -> Range:
        """Resolve a routing token to the :class:`Range` owning ``key``.

        Key-less (transaction records, epoch orders): the token's
        ``anchor`` — a Range itself, a span's first range.  Keyed: the
        token's ``span`` is looked up in the span-keyed descriptor cache
        (bisect over cached start keys); misses snapshot the span's
        current descriptors and subscribe to its change notifications.
        A stale snapshot can still route to a range that no longer owns
        the key — the serve path bounces those with ``RangeKeyMismatch``
        and the retry loop invalidates and re-resolves.
        """
        if key is None:
            return token.anchor
        span = token.span
        entry = self._span_cache.get(span.span_id)
        if entry is None:
            self._c_cache_miss.inc()
            span.subscribe(self._on_span_change)
            entry = (list(span._starts), list(span.descriptors))
            self._span_cache[span.span_id] = entry
        else:
            self._c_cache_hit.value += 1  # inc(), minus a frame per request
        starts, descriptors = entry
        # starts[0] is /Min, below every encoded key: the index is >= 0.
        return descriptors[bisect_right(starts, encode_key(key)) - 1].rng

    def _invalidate_token(self, token: Any) -> None:
        """Drop the cached descriptor snapshot after a mismatch bounce."""
        if self._span_cache.pop(token.span.span_id, None) is not None:
            self._c_cache_inval.inc()

    def _on_span_change(self, span: TableSpan, range_ids: List[int]) -> None:
        """Span subscription: a split/merge landed.  Drop the descriptor
        snapshot and every (gateway, range_id) replica-routing entry for
        the affected ranges — their membership/lease placement may have
        just changed identity entirely."""
        if self._span_cache.pop(span.span_id, None) is not None:
            self._c_cache_inval.inc()
        affected = set(range_ids)
        for cache_key in [k for k in self._route_cache if k[1] in affected]:
            del self._route_cache[cache_key]

    # -- replica selection -----------------------------------------------------

    def nearest_replica(self, gateway, rng: Range):
        """The live, reachable replica cheapest to reach from ``gateway``.

        Replicas behind an open circuit breaker or an (asymmetric)
        partition are skipped so chaos cannot route reads into a black
        hole.

        With a clean fault plane and no open breakers the selection
        depends only on membership and lease placement, so the result is
        cached per (gateway, range) and reused until the range's
        ``routing_generation`` moves.  Any installed fault or open
        breaker bypasses the cache entirely (full rescan per read)."""
        cacheable = (not self.network.faults.active
                     and not self.breakers.any_open)
        if cacheable:
            cached = self._route_cache.get((gateway.node_id, rng.range_id))
            if cached is not None and cached[1] == rng.routing_generation:
                return cached[0]
        latency = self.network.latency
        now = self.cluster.sim.now
        # A dead gateway node is still a valid locality vantage point
        # (the client process is separate from the store): only filter
        # on reachability when the gateway itself is up.
        gateway_up = not self.network.node_is_dead(gateway.node_id)
        best = None
        best_cost = None
        for replica in rng.replicas.values():
            node = replica.node
            if self.network.node_is_dead(node.node_id):
                continue
            if gateway_up and node.node_id != gateway.node_id and not (
                    self.network.reachable(gateway, node)
                    and self.network.reachable(node, gateway)):
                continue
            if self.breakers.for_node(node.node_id).blocked(now):
                continue
            if node.node_id == gateway.node_id:
                cost = 0.0
            else:
                cost = latency.rtt(gateway.locality.region,
                                   gateway.locality.zone,
                                   node.locality.region, node.locality.zone)
            if best_cost is None or cost < best_cost:
                best, best_cost = replica, cost
        if best is None:
            raise FollowerReadNotAvailableError(rng.range_id, None, None)
        if cacheable:
            self._route_cache[(gateway.node_id, rng.range_id)] = (
                best, rng.routing_generation)
        return best

    # -- hardened leaseholder RPC ----------------------------------------------

    def _leaseholder_call(self, gateway, token, handler,
                          span=None, op: str = "kv.rpc",
                          deadline_ms: Optional[float] = None,
                          keys: Sequence[Any] = (),
                          record_load: bool = False) -> Future:
        """Send ``handler`` to the owning range's leaseholder with the
        full robustness kit: per-RPC timeout, seeded exponential backoff
        with jitter between attempts, a per-replica circuit breaker, and
        automatic lease failover when the leaseholder is unreachable but
        quorum survives (paper §4.1 — previously an operator action).

        ``token`` is re-resolved against the first of ``keys`` (none:
        the token's anchor) on *every* attempt, so a split or merge
        landing mid-call (signalled by a ``RangeKeyMismatch`` bounce,
        which invalidates the descriptor cache) re-routes the next
        attempt of a one-key request to the new owner instead of
        failing it.  A request carrying several keys (a batch group) has
        no single new owner: its bounce is handed back for the caller to
        re-partition.  ``record_load`` counts every key against the
        range it first resolves to, for load-based splitting and
        follow-the-workload placement.

        ``handler`` takes ``(rng, attempt_span)``: the resolved range
        and the per-attempt span id (0 when untraced) to thread into the
        serve-side coroutine.  The call is traced as a span named ``op``
        (``kv.read``, ...; child of ``span``) with one ``rpc.attempt``
        child per try, tagged with breaker, backoff and failover decisions.
        The first attempt is sent before this returns.
        """
        return _LeaseholderCall(self, gateway, token, handler, span, op,
                                deadline_ms, keys, record_load)

    # -- reads -------------------------------------------------------------------

    def read(self, gateway, token, key: Any, ts: Timestamp,
             txn_id: Optional[int] = None,
             uncertainty_limit: Optional[Timestamp] = None,
             routing: str = ReadRouting.LEASEHOLDER,
             allow_server_side_bump: bool = False, span=None,
             deadline_ms: Optional[float] = None) -> Future:
        """Read ``key`` at ``ts``; resolves with (ReadResult, effective_ts).

        One key, because its callers read one: ``NEAREST`` routing picks
        a replica per key.  ``LEASEHOLDER`` routing is the one-key
        per-range read request (:meth:`_leaseholder_read`).

        ``allow_server_side_bump`` lets the serving replica retry
        uncertainty restarts locally (legal only when the transaction has
        no other spans); otherwise
        ``ReadWithinUncertaintyIntervalError`` rejections bubble up for
        the transaction coordinator to handle.
        """
        if routing == ReadRouting.NEAREST:
            rng = self.resolve(token, key)
            replica = self.nearest_replica(gateway, rng)
            if not replica.is_leaseholder:
                return self._follower_read_with_fallback(
                    gateway, token, replica, key, ts, txn_id,
                    uncertainty_limit, allow_server_side_bump, span=span)
        return self._leaseholder_read(gateway, token, (key,), ts, txn_id,
                                      uncertainty_limit,
                                      allow_server_side_bump, span=span,
                                      deadline_ms=deadline_ms)

    def _leaseholder_read(self, gateway, token, keys, ts, txn_id,
                          uncertainty_limit,
                          allow_server_side_bump: bool = False,
                          span=None,
                          deadline_ms: Optional[float] = None) -> Future:
        """The per-range read request: leaseholder reads of ``keys`` —
        all owned by one range — in one RPC; resolves with ``(ReadResult,
        effective_ts)`` per key, for one key the bare pair (see
        :meth:`Range.serve_read`)."""
        return self._leaseholder_call(
            gateway, token,
            lambda _rng, _span=None: _rng.serve_read(keys, ts, txn_id,
                                                     uncertainty_limit,
                                                     allow_server_side_bump,
                                                     span=_span,
                                                     deadline_ms=deadline_ms),
            span=span, op="kv.read", deadline_ms=deadline_ms, keys=keys,
            record_load=True)

    def _follower_read_with_fallback(self, gateway, token, replica,
                                     key, ts, txn_id, uncertainty_limit,
                                     allow_server_side_bump: bool,
                                     span=None) -> Future:
        result = Future(self.cluster.sim)
        tracer = self._tracer
        follower_span = tracer.start(
            "kv.read.follower", span,
            ("range", replica.range.name, "replica", replica.node.node_id))
        attempt = self.network.call(
            gateway, replica.node,
            _value_generator, replica.follower_read, key, ts, txn_id,
            uncertainty_limit, allow_server_side_bump, span=follower_span)

        def on_done(fut: Future) -> None:
            error = fut.error
            if error is None:
                self._c_follower_served.inc()
                replica.range.descriptor.load.record(
                    self.cluster.sim.now, key=key,
                    region=gateway.locality.region)
                tracer.finish(follower_span, "served", True)
                result.resolve(fut._value)
                return
            if isinstance(error, (FollowerReadNotAvailableError,
                                  WriteIntentError,
                                  NetworkUnavailableError)):
                # Redirect to the leaseholder for conflict resolution /
                # an up-to-date read (paper §5.1.1), or because the
                # follower died / got cut off mid-read — in which case
                # its breaker keeps later reads away until it recovers.
                if isinstance(error, NetworkUnavailableError):
                    self.breakers.for_node(
                        replica.node.node_id).record_failure(
                            self.cluster.sim.now)
                self._c_fallbacks.inc()
                tracer.finish(follower_span, "fallback",
                              type(error).__name__)
                fallback = self._leaseholder_read(
                    gateway, token, (key,), ts, txn_id, uncertainty_limit,
                    allow_server_side_bump, span=span)
                fallback.add_callback(
                    lambda f: result.reject(f.error) if f.error is not None
                    else result.resolve(f._value))
                return
            tracer.finish(follower_span, "error", type(error).__name__)
            result.reject(error)

        attempt.add_callback(on_done)
        return result

    # -- stale reads ----------------------------------------------------------------

    def exact_staleness_read(self, gateway, token, key: Any,
                             ts: Timestamp, span=None) -> Future:
        """``AS OF SYSTEM TIME <ts>`` single-key read (paper §5.3.1).

        Resolves with the bare ReadResult (the timestamp is the caller's
        and never moves — stale reads have no uncertainty interval).
        """
        inner = self.read(gateway, token, key, ts,
                          routing=ReadRouting.NEAREST, span=span)
        result = Future(self.cluster.sim)
        inner.add_callback(
            lambda f: result.reject(f.error) if f.error is not None
            else result.resolve(f._value[0]))
        return result

    def bounded_staleness_read(self, gateway, token, key: Any,
                               min_ts: Timestamp,
                               nearest_only: bool = False,
                               span=None) -> Future:
        """``with_min_timestamp(...)`` read (paper §5.3.2).

        One RPC to the nearest replica negotiates the highest locally
        servable timestamp and performs the read there.  If the local
        maximum falls below ``min_ts`` the read is either redirected to
        the leaseholder at ``min_ts`` or fails (``nearest_only``).
        """
        rng = self.resolve(token, key)
        replica = self.nearest_replica(gateway, rng)
        tracer = self._tracer
        read_span = tracer.start(
            "kv.read.bounded_staleness", span,
            ("range", rng.name, "replica", replica.node.node_id))

        def negotiate_and_read():
            servable = replica.max_servable_ts(key)
            if servable < min_ts:
                raise StaleReadBoundError(
                    f"local replica servable {servable} below bound {min_ts}")
            return replica.store.get(key, servable), servable

        result = Future(self.cluster.sim)
        attempt = self.network.call(
            gateway, replica.node,
            _value_generator, negotiate_and_read, span=read_span)

        def on_done(fut: Future) -> None:
            error = fut.error
            if error is None:
                tracer.finish(read_span)
                result.resolve(fut._value)
                return
            if isinstance(error, (StaleReadBoundError,
                                  NetworkUnavailableError)) and not nearest_only:
                # Route to the leaseholder using the staleness bound as
                # the read timestamp (paper §5.3.2).
                tracer.finish(read_span, "fallback", type(error).__name__)
                fallback = self._leaseholder_read(
                    gateway, token, (key,), min_ts, None, None, span=span)
                fallback.add_callback(
                    lambda f: result.reject(f.error) if f.error is not None
                    else result.resolve(f._value))
                return
            tracer.finish(read_span, "error", type(error).__name__)
            result.reject(error)

        attempt.add_callback(on_done)
        return result

    def negotiate_bounded_staleness(self, gateway,
                                    spans: Iterable[Tuple[Range, Any]],
                                    min_ts: Timestamp, span=None) -> Future:
        """The §5.3.2 negotiation phase for multi-key bounded-staleness
        reads: ask the nearest replica of every touched range for its
        maximum locally-servable timestamp and take the minimum.

        Resolves with the negotiated timestamp; rejects with
        :class:`StaleReadBoundError` if any replica cannot satisfy
        ``min_ts`` locally (the caller decides whether to redirect to
        leaseholders at ``min_ts`` instead).
        """
        spans = list(spans)
        tracer = self._tracer
        negotiate_span = tracer.start("kv.negotiate_staleness", span,
                                      ("spans", len(spans)))
        futures = []
        for token, key in spans:
            replica = self.nearest_replica(gateway, self.resolve(token, key))
            futures.append(self.network.call(
                gateway, replica.node,
                _value_generator, replica.max_servable_ts, key,
                span=negotiate_span))
        result = Future(self.cluster.sim)
        gathered = all_of(self.cluster.sim, futures)

        def on_done(fut: Future) -> None:
            if fut.error is not None:
                tracer.finish(negotiate_span, "error",
                              type(fut.error).__name__)
                result.reject(fut.error)
                return
            try:
                negotiated = negotiated_timestamp(fut._value, min_ts)
            except StaleReadBoundError as err:
                tracer.finish(negotiate_span, "error", "below_bound")
                result.reject(err)
            else:
                tracer.finish(negotiate_span)
                result.resolve(negotiated)

        gathered.add_callback(on_done)
        return result

    # -- writes -------------------------------------------------------------------

    def write(self, gateway, token, items: Sequence[Tuple[Any, Any]],
              ts: Timestamp, txn_id: int, anchor_node_id: int, span=None,
              deadline_ms: Optional[float] = None, commit: bool = False,
              can_forward: bool = False,
              expect_absent: bool = False,
              pipelined: bool = False) -> Future:
        """Write an intent for every ``(key, value)`` of ``items`` — all
        owned by one range — in one request and one Raft entry; resolves
        with the timestamp each was laid at (for one item, the bare
        timestamp) — or, one item asked to ``commit`` in the same
        consensus round (see :meth:`Range.serve_write`), with ``(ts,
        committed)``.  ``expect_absent`` makes each a conditional put,
        rejected with :class:`~repro.errors.ConditionFailedError` when
        its key has a live value.  ``pipelined`` resolves once the
        intents are proposed, not replicated: the caller owes a
        :meth:`query_intents` proof.

        Safe to retry: re-laying the same transaction's intent is
        idempotent (it replaces its own intent, which a conditional put
        counts as absent), and a one-phase commit applies at most once.
        A one-phase write is its transaction's commit RPC, so like every
        commit RPC it runs deadline-free once sent — giving up on it at
        the deadline would leave its outcome unknown; the leaseholder
        still sheds it at admission, unevaluated, when the deadline has
        passed."""
        return self._leaseholder_call(
            gateway, token,
            lambda _rng, _span=None: _rng.serve_write(
                items, ts, txn_id, anchor_node_id, span=_span,
                deadline_ms=deadline_ms, commit=commit,
                can_forward=can_forward, expect_absent=expect_absent,
                pipelined=pipelined, txn_span=span),
            span=span, op="kv.write",
            deadline_ms=None if commit else deadline_ms,
            keys=[key for key, _value in items], record_load=True)

    # -- per-range batching --------------------------------------------------------

    def read_batch(self, gateway, requests, ts: Timestamp,
                   txn_id: Optional[int] = None,
                   uncertainty_limit: Optional[Timestamp] = None,
                   allow_server_side_bump: bool = False, span=None,
                   deadline_ms: Optional[float] = None) -> Future:
        """Leaseholder-read every ``(token, key)`` of ``requests`` at
        ``ts``, one RPC per owning range.  Resolves (see
        :class:`_Batch` for the order and failure contract) with a
        ``(ReadResult, effective_ts)`` per request."""
        def send(members) -> Future:
            return self._leaseholder_read(
                gateway, members[0][0], [key for _token, key in members], ts,
                txn_id, uncertainty_limit, allow_server_side_bump, span=span,
                deadline_ms=deadline_ms)

        return _Batch(self, requests, send).result

    def write_batch(self, gateway, items, ts: Timestamp, txn_id: int,
                    anchor_node_id: int, span=None,
                    deadline_ms: Optional[float] = None,
                    expect_absent: bool = False,
                    pipelined: bool = False) -> Future:
        """Write an intent for every ``(token, key, value)`` of
        ``items``, one RPC and one Raft entry per owning range.
        Resolves (see :class:`_Batch`) with the timestamp each
        intent was laid at — a group lays all of its intents or, when
        its outcome is an exception, is not known to have laid any
        (``expect_absent``: a live value on one key fails its group).
        Safe to retry, and ``pipelined`` as for :meth:`write`."""
        def send(members) -> Future:
            return self.write(gateway, members[0][0],
                              [(key, value) for _token, key, value in members],
                              ts, txn_id, anchor_node_id, span=span,
                              deadline_ms=deadline_ms,
                              expect_absent=expect_absent,
                              pipelined=pipelined)

        return _Batch(self, items, send).result

    def query_intents(self, gateway, writes, txn_id: int, span=None,
                      deadline_ms: Optional[float] = None) -> Future:
        """Prove a transaction's pipelined ``(token, key, value)``
        writes, one RPC per owning range (see :class:`_Batch`; read-only,
        so safe to retry).  Resolves with ``None`` per write, or its
        group's exception — :class:`~repro.errors.TransactionRetryError`
        for a lost write."""
        def send(members) -> Future:
            pairs = tuple((key, value) for _token, key, value in members)
            return self._leaseholder_call(
                gateway, members[0][0],
                lambda _rng, _span=None: _rng.serve_query_intents(
                    pairs, txn_id, span=_span),
                span=span, op="kv.query_intents", deadline_ms=deadline_ms,
                keys=[key for key, _value in pairs])

        return _Batch(self, writes, send).result

    def locking_read(self, gateway, token, key: Any, ts: Timestamp,
                     txn_id: int, anchor_node_id: int, span=None,
                     deadline_ms: Optional[float] = None) -> Future:
        """SELECT FOR UPDATE read: resolves with (value, lock_ts)."""
        return self._leaseholder_call(
            gateway, token,
            lambda _rng, _span=None: _rng.serve_locking_read(
                key, ts, txn_id, anchor_node_id, span=_span,
                deadline_ms=deadline_ms),
            span=span, op="kv.locking_read", deadline_ms=deadline_ms,
            keys=(key,), record_load=True)

    def refresh(self, gateway, token, key: Any, lo: Timestamp,
                hi: Timestamp, txn_id: int, span=None,
                deadline_ms: Optional[float] = None) -> Future:
        return self._leaseholder_call(
            gateway, token,
            lambda _rng, _span=None: _rng.serve_refresh(key, lo, hi, txn_id,
                                                        span=_span),
            span=span, op="kv.refresh", deadline_ms=deadline_ms, keys=(key,))

    def write_txn_record(self, gateway, token, txn_id: int, status: str,
                         commit_ts: Optional[Timestamp], span=None,
                         resolve_keys: tuple = (),
                         prove: tuple = ()) -> Future:
        """Write the transaction record and, in the same RPC and Raft
        entry, resolve the intents on ``resolve_keys`` (the write-set
        keys living on the record's range) — once the pipelined
        ``(key, value)`` writes of ``prove`` on that range are proven
        (CRDB's ``EndTxn`` with its range's ``QueryIntent`` s)."""
        # No key: the transaction record lives on the anchor range the
        # transaction pinned at its first write, split or no split.
        return self._leaseholder_call(
            gateway, token,
            lambda _rng, _span=None: _rng.serve_txn_record(
                txn_id, status, commit_ts, span=_span,
                resolve_keys=resolve_keys, prove=prove),
            span=span, op="kv.txn_record")

    def epoch_order(self, gateway, token, epoch: int, txn_ids,
                    span=None) -> Future:
        """Replicate an epoch-OCC ordering decision on ``token``'s range.

        No key: like transaction records, the decision is pinned to the
        anchor range the epoch service chose, split or no split.  Safe
        to retry — re-proposing the same epoch's order overwrites it
        with identical content.
        """
        return self._leaseholder_call(
            gateway, token,
            lambda _rng, _span=None: _rng.serve_epoch_order(
                epoch, tuple(txn_ids), span=_span),
            span=span, op="kv.epoch_order")

    def resolve_intent(self, gateway, token, keys: Sequence[Any],
                       txn_id: int, commit_ts: Optional[Timestamp],
                       span=None) -> Future:
        """Resolve ``txn_id``'s intents on ``keys`` — all owned by one
        range — in one RPC and one Raft entry."""
        return self._leaseholder_call(
            gateway, token,
            lambda _rng, _span=None: _rng.serve_resolve_intent(
                keys, txn_id, commit_ts, span=_span),
            span=span, op="kv.resolve_intent", keys=keys)

    def resolve_intents(self, gateway, spans: Sequence[Tuple[Any, Any]],
                        txn_id: int, commit_ts: Optional[Timestamp],
                        span=None) -> Future:
        """Resolve a transaction's intents, one RPC and one Raft entry
        per owning range (see :class:`_Batch`); resolves when all have,
        rejects with the first failure.  Nothing to resolve is a settled
        future: no process, no RPC."""
        result = Future(self.cluster.sim)
        if not spans:
            result.resolve(None)
            return result

        def send(members) -> Future:
            if len(members) > 1:
                self._c_resolve_batches.value += 1
            return self.resolve_intent(
                gateway, members[0][0], [key for _token, key in members],
                txn_id, commit_ts, span=span)

        def settle(fut: Future) -> None:
            for outcome in fut._value:
                if isinstance(outcome, BaseException):
                    result.reject(outcome)
                    return
            result.resolve(None)

        _Batch(self, spans, send).result.add_callback(settle)
        return result
