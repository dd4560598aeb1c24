"""A Range: a replicated span of the keyspace (paper §3.1).

Each Range is a Raft group plus leaseholder-only machinery: the
timestamp cache, the lock table, and the closed-timestamp policy.  The
``serve_*`` methods are coroutines executed *on the leaseholder node*
(the DistSender gets them there via RPC).

The write path implements the paper's rules in order:

1. latch/lock: conflicting in-flight writes and intents are waited on;
2. timestamp cache: writes advance above prior reads of the key;
3. closed-timestamp floor: writes advance above the closed target — for
   GLOBAL ranges (``LeadPolicy``) this is what pushes transaction
   timestamps into the future (§6.2.1);
4. the intent replicates through Raft with the next closed timestamp
   attached — and a *pipelined* write (CRDB's transactional write
   pipelining) is answered as soon as it is proposed: its transaction
   proves it at commit (:meth:`Range.serve_query_intents`), and its own
   reads of the key wait for the entry first.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from ..errors import (
    ConditionFailedError,
    RangeKeyMismatchError,
    RangeUnavailableError,
    ReadWithinUncertaintyIntervalError,
    TransactionRetryError,
    WriteIntentError,
    WriteTooOldError,
)
from ..obs import DETACHED
from ..raft.group import RaftGroup, ReplicaType
from ..raft.membership import ConfigChangeError
from ..sim.clock import TS_ZERO, Timestamp
from ..storage.locktable import LockTable
from ..storage.mvcc import ReadResult
from ..storage.tscache import TimestampCache
from .closedts import ClosedTimestampPolicy, LagPolicy
from .commands import (
    BatchCommand,
    EpochOrderCommand,
    PutIntentCommand,
    ResolveIntentCommand,
    SetTxnRecordCommand,
    TxnStatus,
)
from .replica import Replica
from .sidetransport import SideTransport

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node
    from ..cluster.topology import Cluster

__all__ = ["Range"]


class Range:
    """One replicated range of keys and its leaseholder state."""

    #: Default closed-timestamp side-transport interval (CRDB: 200 ms).
    SIDE_TRANSPORT_INTERVAL_MS = 200.0
    #: How long a waiter blocks before pushing the lock holder's txn.
    PUSH_INTERVAL_MS = 50.0
    #: Snapshot transfer fixed cost + per-log-entry replay cost (ms).
    SNAPSHOT_BASE_MS = 10.0
    SNAPSHOT_PER_ENTRY_MS = 0.05
    #: Learner catch-up poll cadence and give-up horizon (ms).
    CATCHUP_POLL_MS = 25.0
    CATCHUP_TIMEOUT_MS = 5000.0
    #: A one-phase commit's Raft entry carries the transaction's commit
    #: record, the guard against applying a re-sent request twice.  Off
    #: only in the verify harness's ``one-phase-reapply`` ablation.
    commit_marker = True
    #: A conditional put (``expect_absent``) evaluates its condition.
    #: Off only in the verify harness's ``cput-blind`` ablation.
    check_condition = True

    def __init__(self, cluster: "Cluster", policy: Optional[ClosedTimestampPolicy] = None,
                 name: str = "", proposal_timeout_ms: Optional[float] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.range_id = cluster.allocate_range_id()
        self.name = name or f"r{self.range_id}"
        self.policy: ClosedTimestampPolicy = policy or LagPolicy()
        self.group = RaftGroup(cluster.sim, cluster.network, self.range_id,
                               apply_fn=self._apply,
                               proposal_timeout_ms=proposal_timeout_ms,
                               coalesce_ms=cluster.raft_coalesce_ms)
        self.replicas = {}
        self.leaseholder_node_id: Optional[int] = None
        #: Bumped on every membership or lease change; the DistSender's
        #: replica-routing cache compares generations instead of
        #: re-scanning the replica set per read.
        self.routing_generation = 0
        #: Lazily-resolved per-range instrument handles (serve_read /
        #: serve_write are hot; one registry lookup each, not per op).
        self._c_reads = None
        self._c_writes = None
        self._h_lock_wait = None
        self.ts_cache = TimestampCache()
        self.lock_table = LockTable(cluster.sim, cluster.wait_graph)
        #: Pipelined writes not yet proven: (txn_id, key) -> the Raft
        #: future of the transaction's latest pipelined write of the key.
        #: The futures are the Raft group's, so the table survives a
        #: lease move: a failover rejects the entries the new leader
        #: lacks and re-drives the rest under their futures, which settle
        #: once applied on the new leaseholder.  A split moves each entry
        #: with its key.
        self.pipelined = {}
        #: Highest closed timestamp this leaseholder has promised.
        self.closed_emitted: Timestamp = TS_ZERO
        #: Automatic (non-cooperative) lease failovers performed.
        self.failovers = 0
        #: Set once the range has joined a side transport.
        self.side_transport_interval_ms: Optional[float] = None
        self._destroyed = False
        #: As a routing token (repro.kv.keyspace): key-less requests
        #: stay on this range; keyed ones route through ``span``.
        self.anchor = self
        # Sets ``descriptor`` ([/Min, /Max) at generation 1) and ``span``
        # (the one-descriptor TableSpan holding it).
        cluster.keyspace.adopt(self)

    # -- membership / lease ----------------------------------------------------

    def add_replica(self, node: "Node", replica_type: str = ReplicaType.VOTER) -> Replica:
        replica = Replica(self, node)
        # Late joiners receive a snapshot of the leaseholder's state
        # (the Raft log alone does not contain bulk-ingested data).
        if self.leaseholder_node_id is not None:
            source = self.replicas.get(self.leaseholder_node_id)
            if source is not None:
                replica.install(source)
        self.replicas[node.node_id] = replica
        self.group.add_peer(node, replica_type)
        node.add_replica(replica)
        self.routing_generation += 1
        return replica

    def remove_replica(self, node: "Node") -> None:
        self.replicas.pop(node.node_id, None)
        self.group.remove_peer(node.node_id)
        node.remove_replica(self.range_id)
        self.routing_generation += 1

    def add_replica_safely(self, node: "Node",
                           replica_type: str = ReplicaType.VOTER) -> Generator:
        """Coroutine: the safe membership-change pipeline (repair path).

        The replica joins as an *empty learner*, receives a leader-driven
        snapshot over the network (paying real transfer latency, unlike
        :meth:`add_replica`'s instant provisioning shortcut), catches up
        on the live Raft stream, and only then — if it is to be a voter —
        is promoted.  The range's config guard is held across the entire
        pipeline, so any overlapping membership change raises
        :class:`ConfigChangeError` instead of composing unsafely.  At no
        point does the voter set change in a way that could lose a live
        quorum: the learner phase never affects quorum arithmetic, and
        promotion re-checks quorum before taking effect.

        Returns the new :class:`Replica`; on any failure the half-added
        learner is rolled back so the range is exactly as before.
        """
        guard = self.group.config_guard
        guard.acquire(f"safe-add-{replica_type}@n{node.node_id}",
                      self.sim.now)
        node_id = node.node_id
        try:
            replica = Replica(self, node)
            self.replicas[node_id] = replica
            node.add_replica(replica)
            self.routing_generation += 1
            self.group.add_learner(node)
            leader_node = self.leaseholder_node
            source = self.replicas[self.leaseholder_node_id]
            entries = len(self.group.leader.log)
            transfer_ms = (self.SNAPSHOT_BASE_MS
                           + self.SNAPSHOT_PER_ENTRY_MS * entries)
            tracer = self.sim.obs.tracer
            snap_span = tracer.start(
                "raft.snapshot", DETACHED,
                ("range", self.name, "to", node_id, "entries", entries))
            try:
                yield self.cluster.network.call(
                    leader_node, node, self._install_snapshot, replica,
                    source, transfer_ms, payload_size=max(1, entries),
                    span=snap_span)
                yield from self._wait_caught_up(node_id)
            finally:
                tracer.finish(snap_span)
            if replica_type == ReplicaType.VOTER:
                # No sim time passes between the caught-up check and the
                # promotion, so the learner still holds every committed
                # entry when it joins the electorate.
                self.group.promote_learner(node_id)
            return replica
        except BaseException:
            # Roll back the half-added learner directly (the guard is
            # still held, so the guarded remove path cannot be used).
            self.replicas.pop(node_id, None)
            self.group.peers.pop(node_id, None)
            node.remove_replica(self.range_id)
            self.routing_generation += 1
            raise
        finally:
            guard.release(self.sim.now)

    def _install_snapshot(self, replica: Replica, source: Replica,
                          transfer_ms: float) -> Generator:
        """RPC handler on the joining node, once the request arrives: the
        sleep models streaming + sideloading the snapshot."""
        yield self.sim.sleep(transfer_ms)
        replica.install(source)
        return self.group.install_snapshot(replica.node.node_id)

    def _wait_caught_up(self, node_id: int,
                        timeout_ms: Optional[float] = None) -> Generator:
        """Poll until the learner's log reaches the commit index."""
        deadline = self.sim.now + (timeout_ms or self.CATCHUP_TIMEOUT_MS)
        while True:
            peer = self.group.peers.get(node_id)
            if peer is None:
                raise RangeUnavailableError(
                    f"{self.name}: learner {node_id} vanished mid-catch-up")
            if (peer.last_index >= self.group.commit_index
                    and self.group.log_complete(peer)):
                return None
            if self.sim.now >= deadline:
                raise RangeUnavailableError(
                    f"{self.name}: learner {node_id} failed to catch up "
                    f"(at {peer.last_index}, commit "
                    f"{self.group.commit_index})")
            self.group.resync_peer(node_id)
            yield self.sim.sleep(self.CATCHUP_POLL_MS)

    def remove_replica_safely(self, node_id: int) -> None:
        """Quorum-safe replica removal (repair path).

        Refuses to remove the leaseholder (transfer the lease first) and
        refuses any voter removal that would leave the remaining voter
        set without a live quorum.
        """
        if node_id == self.leaseholder_node_id:
            raise ConfigChangeError(
                f"{self.name}: cannot remove the leaseholder replica")
        peer = self.group.peers.get(node_id)
        if peer is None:
            return
        if (peer.replica_type == ReplicaType.VOTER
                and not self.group.would_retain_quorum_without(node_id)):
            raise ConfigChangeError(
                f"{self.name}: removing voter n{node_id} would drop the "
                f"range below a live quorum")
        replica = self.replicas.pop(node_id, None)
        self.group.remove_peer(node_id)
        if replica is not None:
            replica.node.remove_replica(self.range_id)
        self.routing_generation += 1

    def set_leaseholder(self, node_id: int) -> None:
        self.group.set_leader(node_id)
        self.leaseholder_node_id = node_id
        self.routing_generation += 1

    def transfer_lease(self, node_id: int) -> None:
        """Move the lease (and Raft leadership) to another voter.

        The lease moves with the leadership: at once when the target's
        log is caught up, otherwise once the entries it misses reach it
        by message (:meth:`RaftGroup.transfer_leadership`).  Until then
        the old leaseholder keeps serving.  The incoming leaseholder
        starts a fresh timestamp cache whose low-water mark covers every
        read the old lease could have served.
        """
        self.group.transfer_leadership(node_id, on_lead=self._install_lease)

    def _install_lease(self, node_id: int) -> None:
        self.leaseholder_node_id = node_id
        self.routing_generation += 1
        new_clock = self.replicas[node_id].node.clock
        low_water = new_clock.now().add(new_clock.max_offset).with_synthetic(False)
        self.ts_cache = TimestampCache(low_water=low_water)
        # The lock table survives the lease move: an in-flight writer's
        # lock spans evaluation through replication (CRDB's latch span),
        # and dropping it would let the new leaseholder evaluate a
        # conflicting write against an intent still in the Raft pipeline.
        # Orphaned entries are reaped by the waiters' push machinery.

    def failover_lease(self, node_id: Optional[int] = None) -> int:
        """Non-cooperative lease movement after losing the leaseholder.

        Unlike :meth:`transfer_lease` (a cooperative handoff between two
        live nodes), this elects a new Raft leader among the surviving
        voters, repairs the log, and installs the lease on the winner.
        """
        winner = self.group.fail_over(node_id)
        self._install_lease(winner)
        self.failovers += 1
        self.sim.obs.registry.counter("kv.lease_failovers",
                                      range=self.name).inc()
        return winner

    def maybe_failover(self, from_node=None, force: bool = False) -> bool:
        """Automatic lease failover (paper §4.1 survivability).

        Invoked by the DistSender when a leaseholder RPC fails: if the
        leaseholder is genuinely unreachable (or ``force``, for gray
        leaseholders that time out while nominally reachable) and a
        quorum of voters survives, move the lease to the best surviving
        voter.  Returns True if the lease moved.

        ``from_node`` scopes reachability to the requester's vantage
        point: a gateway cut off in a minority partition cannot steal
        the lease away from a healthy majority.
        """
        network = self.cluster.network
        # A dead gateway node is vantage-only (the client process is
        # separate from the store): don't let its own death make every
        # candidate look unreachable.
        if from_node is not None and network.node_is_dead(from_node.node_id):
            from_node = None
        lh_id = self.leaseholder_node_id
        if lh_id is not None and not force:
            lh_node = self.replicas[lh_id].node
            if not network.node_is_dead(lh_id) and (
                    from_node is None
                    or (network.reachable(from_node, lh_node)
                        and network.reachable(lh_node, from_node))):
                return False  # leaseholder looks healthy from here
        best = None
        best_key = None
        quorum = self.group.quorum_size()
        voters = self.group.voters()
        for peer in voters:
            node = peer.node
            if network.node_is_dead(node.node_id):
                continue
            if not self.group.log_complete(peer):
                continue  # missing committed entries: cannot lead
            if from_node is not None and not (
                    network.reachable(from_node, node)
                    and network.reachable(node, from_node)):
                continue
            # The candidate must see a quorum of voters both ways.
            mutual = sum(
                1 for other in voters
                if not network.node_is_dead(other.node.node_id)
                and network.reachable(node, other.node)
                and network.reachable(other.node, node))
            if mutual < quorum:
                continue
            key = (peer.last_term, peer.last_index, -node.node_id)
            if best_key is None or key > best_key:
                best, best_key = peer, key
        if best is None or best.node.node_id == lh_id:
            return False
        self.failover_lease(best.node.node_id)
        return True

    @property
    def leaseholder_replica(self) -> Replica:
        if self.leaseholder_node_id is None:
            raise RangeUnavailableError(f"{self.name}: no leaseholder")
        return self.replicas[self.leaseholder_node_id]

    @property
    def leaseholder_node(self) -> "Node":
        return self.leaseholder_replica.node

    # -- closed timestamps -------------------------------------------------------

    def closed_target(self) -> Timestamp:
        """The next closed timestamp, per policy, monotone over time."""
        now = self.leaseholder_node.clock.now()
        target = self.policy.target(now)
        if target > self.closed_emitted:
            return target
        return self.closed_emitted

    def _note_closed(self, closed_ts: Timestamp) -> None:
        if closed_ts > self.closed_emitted:
            self.closed_emitted = closed_ts

    def start_side_transport(self, interval_ms: Optional[float] = None) -> None:
        """Periodically ship closed timestamps even when the range is
        idle: joins the cluster's per-node-pair side transport for this
        interval, which ships it from its next tick until the range is
        destroyed."""
        if self.side_transport_interval_ms is not None:
            return
        interval = interval_ms or self.SIDE_TRANSPORT_INTERVAL_MS
        self.side_transport_interval_ms = interval
        SideTransport.register(self, interval)

    def destroy(self) -> None:
        self._destroyed = True

    # -- latency estimates (for LeadPolicy sizing) -------------------------------

    def raft_latency_ms(self) -> float:
        """RTT from the leaseholder to the nearest write quorum (L_raft)."""
        leader = self.leaseholder_node
        latency = self.cluster.network.latency
        rtts = []
        for peer in self.group.voters():
            if peer.node.node_id == leader.node_id:
                continue
            rtts.append(latency.rtt(
                leader.locality.region, leader.locality.zone,
                peer.node.locality.region, peer.node.locality.zone))
        rtts.sort()
        needed = self.group.quorum_size() - 1  # leader acks itself
        if needed <= 0 or not rtts:
            return 1.0
        return rtts[needed - 1] + 2 * RaftGroup.DISK_APPEND_MS

    def replicate_latency_ms(self) -> float:
        """One-way delay to the furthest replica (L_replicate)."""
        leader = self.leaseholder_node
        latency = self.cluster.network.latency
        delays = [0.0]
        for peer in self.group.peers.values():
            if peer.node.node_id == leader.node_id:
                continue
            delays.append(latency.rtt(
                leader.locality.region, leader.locality.zone,
                peer.node.locality.region, peer.node.locality.zone) / 2.0)
        return max(delays)

    # -- proposal helper ----------------------------------------------------------

    def _propose(self, command: Any, span=None):
        closed = self.closed_target()
        self._note_closed(closed)
        return self.group.propose(command, closed, span=span)

    def _apply(self, node: "Node", command: Any) -> None:
        """Learn a committed entry on ``node``: whatever depends on when
        it is learned is decided here, then each of its commands goes to
        :meth:`Replica.apply`."""
        if type(command) is BatchCommand:
            head = command.commands[0]
            if (type(head) is SetTxnRecordCommand and head.key is None
                    and head.status == TxnStatus.COMMITTED
                    and self.cluster.txn_status(head.txn_id) == (True, None)):
                # A commit its coordinator gave up on while the entry
                # sat in the log (proposal timed out, partition healed):
                # the transaction's other intents are being aborted, so
                # the record must not commit this range's.
                return
            # One entry, many commands: each member applies on its own,
            # so one a split moved is forwarded like any other.
            for member in command.commands:
                self._apply(node, member)
            return
        # A split/merge may have moved the command's key out of this
        # range while the proposal was in the Raft pipeline; apply it on
        # the range that owns the key now (same node — splits never move
        # data between stores), so the intent and its eventual
        # resolution land where the key is served.
        key = getattr(command, "key", None)
        if key is not None and not self.descriptor.contains_key(key):
            self.span.descriptor_for_key(key).rng._apply(node, command)
            return
        replica = self.replicas.get(node.node_id)
        if replica is not None:
            replica.apply(command)

    def _check_owns(self, key: Any) -> None:
        descriptor = self.descriptor
        if not descriptor.contains_key(key):
            raise RangeKeyMismatchError(self.range_id, key,
                                        descriptor.generation)

    # -- leaseholder request serving (coroutines) ----------------------------------

    def _wait_or_push(self, key: Any, waiter_txn_id: Optional[int],
                      holder_txn_id: int, span=None) -> Generator:
        """Wait for the lock on ``key``; periodically *push* the holder.

        CRDB's txnwait/push mechanism: a waiter that has blocked for a
        while asks for the holder transaction's authoritative status.
        If the holder already committed or aborted (e.g. its intent
        resolution was lost to a node failure), the waiter resolves the
        intent itself and proceeds.  Status lookups go through the
        cluster's transaction registry — the simulation stand-in for
        CRDB's txn records + heartbeats.  A holder the registry does not
        know is finished with every intent it knew of resolved (a
        transaction leaves the registry only then), so this intent is a
        stray — a write that landed after its transaction's cleanup —
        and the waiter aborts it."""
        from ..sim.core import any_of
        tracer = self.sim.obs.tracer
        wait_span = tracer.start(
            "lock.wait", span,
            ("range", self.name, "key", str(key),
             "waiter", waiter_txn_id, "holder", holder_txn_id))
        started = self.sim.now
        try:
            fut = self.lock_table.wait_for(key, waiter_txn_id)
            while not fut.done:
                index, _value = yield any_of(
                    self.sim, [fut, self.sim.sleep(self.PUSH_INTERVAL_MS)])
                if index == 0:
                    return None
                status = self.cluster.txn_status(holder_txn_id)
                final, commit_ts = status or (True, None)
                if not final:
                    continue  # holder still pending: keep waiting
                # Push succeeded: resolve the orphaned intent ourselves.
                tracer.tag(wait_span, "pushed", True)
                yield self._propose(ResolveIntentCommand(
                    key=key, txn_id=holder_txn_id, commit_ts=commit_ts),
                    span=wait_span)
                if not fut.done:
                    # The lock entry may have belonged to a never-applied
                    # intent; release it directly.
                    self.lock_table.release(key, holder_txn_id)
                return None
            yield fut  # propagate a deadlock rejection, or no-op if resolved
            return None
        finally:
            self._observe_lock_wait(self.sim.now - started)
            tracer.finish(wait_span)

    def _observe_lock_wait(self, waited_ms: float) -> None:
        if self._h_lock_wait is None:
            self._h_lock_wait = self.sim.obs.registry.histogram(
                "lock.wait_ms", range=self.name)
        self._h_lock_wait.observe(waited_ms)

    def _admit(self, ts: Timestamp, deadline_ms: Optional[float],
               units: int = 1) -> Generator:
        """What every keyed request pays before it touches a lock: one
        store-admission unit per key, then the clock-safety check."""
        admission = self.cluster.admission
        if admission is not None:
            # Store-level admission: hold an evaluation slot (modeled
            # CPU/IO cost) before touching locks; expired work is shed
            # here without consuming capacity.
            for _unit in range(units):
                yield from admission.store_work(self.leaseholder_node_id,
                                                deadline_ms=deadline_ms)
        monitor = self.cluster.clock_monitor
        if monitor is not None:
            # Clock safety: refuse to serve while fenced, and reject
            # request timestamps only an out-of-contract clock could
            # have produced (they would escape commit-wait; a
            # beyond-bound *read* timestamp would poison the ts-cache
            # far into the future, forcing every later writer through
            # spurious refreshes).
            monitor.check_request(self.leaseholder_replica.node, ts)

    def _await_pipelined(self, txn_id: Optional[int], key: Any,
                         prove: bool = False, value: Any = None) -> Generator:
        """Wait out ``txn_id``'s pipelined write of ``key`` if one is in
        flight here — CRDB's pipeline stall, which readers enter while
        :attr:`pipelined` is not empty — and raise
        :class:`TransactionRetryError` if its entry was lost.  ``prove``
        (the commit's ``QueryIntent``) also takes the write out of the
        table and requires the transaction's intent, holding ``value``,
        in the leaseholder's store: what decides for a re-sent proof,
        whose first attempt took the write out (the value stands in for
        CRDB's sequence number)."""
        table = self.pipelined
        proposal = (table.pop if prove else table.get)((txn_id, key), None)
        if proposal is not None and not proposal.done:
            if not prove:
                self.sim.obs.registry.counter("txn.pipeline_stalls").inc()
            try:
                yield proposal
            except RangeUnavailableError:
                pass  # a timeout or a failover lost it: judged below
        lost = proposal is not None and proposal.error is not None
        if prove and not lost:
            intent = self.leaseholder_replica.store.intent_for(key)
            lost = (intent is None or intent.txn_id != txn_id
                    or intent.value != value)
        if lost:
            self.sim.obs.registry.counter("txn.async_write_failures").inc()
            raise TransactionRetryError(
                f"txn {txn_id}: async write failure on {key!r}")

    def _count_writes(self, keys: int) -> None:
        if self._c_writes is None:
            self._c_writes = self.sim.obs.registry.counter(
                "kv.writes", range=self.name)
        self._c_writes.value += keys

    def _evaluate_write(self, key: Any, ts: Timestamp, txn_id: int,
                        expect_absent: bool = False):
        """One yield-free evaluation of a write to ``key`` at ``ts``:
        ownership, lock table, ``check_write``, write-too-old bump, and
        — for a conditional put — the condition.

        Returns ``(ts, None)`` when the write may go ahead at the
        (possibly bumped) ``ts``, or ``(ts, holder_txn_id)`` when it
        must first wait for that transaction's lock — after which the
        caller evaluates again: lock waits yield, and a split or merge
        may move the key out from under us mid-wait.

        ``expect_absent`` is judged last — no foreign intent left, ``ts``
        above every committed version, so the newest version *is* the
        key's state at ``ts`` — and a live value raises
        :class:`ConditionFailedError` with nothing latched.  The
        transaction's own intent counts as absent: it can only be this
        request's earlier attempt (the coordinator sends no conditional
        put for a key it has written).
        """
        self._check_owns(key)
        holder = self.lock_table.holder_of(key)
        if holder is not None and holder.txn_id != txn_id:
            return ts, holder.txn_id
        store = self.leaseholder_replica.store
        while True:
            try:
                store.check_write(key, ts, txn_id)
            except WriteIntentError as err:
                # Applied intent without a lock-table entry (lease moved):
                # reconstruct the holder so the wait is released on resolve.
                self.lock_table.note_holder(key, err.txn_id, err.intent_ts)
                return ts, err.txn_id
            except WriteTooOldError as err:
                ts = err.existing_ts.next()
                continue
            if expect_absent and self.check_condition:
                newest = store.get(key, ts, txn_id=txn_id)
                if newest.value is not None and not newest.from_intent:
                    raise ConditionFailedError(key, newest.value)
            return ts, None

    def _await_write(self, key: Any, ts: Timestamp, txn_id: int,
                     span=None, expect_absent: bool = False) -> Generator:
        """Evaluate a write to ``key``, waiting out (or pushing) every
        conflicting lock; returns the timestamp it may be written at."""
        while True:
            ts, blocker = self._evaluate_write(key, ts, txn_id,
                                               expect_absent)
            if blocker is None:
                return ts
            yield from self._wait_or_push(key, txn_id, blocker, span=span)

    def _latch_write(self, key: Any, ts: Timestamp, txn_id: int) -> Timestamp:
        """Lift an evaluated write above the timestamp cache and the
        closed-timestamp target, and latch the key for the duration of
        replication + intent lifetime.  Returns the intent timestamp."""
        ts = self.ts_cache.min_write_ts(key, ts, txn_id)
        floor = self.closed_target()
        if ts <= floor:
            ts = floor.next()
        self.lock_table.note_holder(key, txn_id, ts)
        return ts

    def serve_write(self, items, ts: Timestamp, txn_id: int,
                    anchor_node_id: int, span=None,
                    deadline_ms: Optional[float] = None,
                    commit: bool = False,
                    can_forward: bool = False,
                    expect_absent: bool = False,
                    pipelined: bool = False, txn_span=0) -> Generator:
        """Evaluate transactional writes — ``items`` is ``[(key,
        value)]``, all owned by this range — and replicate them as *one*
        Raft entry; returns the (possibly advanced) timestamp each
        intent was written at, in item order — for one item, the bare
        timestamp of a bare ``PutIntentCommand``.

        No key is latched until every key has passed one yield-free
        evaluation pass (:meth:`_evaluate_write`; after any lock wait
        the pass starts over from the first key), so a request that
        fails on one key — deadlock abort, mismatch, shed, a failed
        ``expect_absent`` condition — leaves no lock-table holder behind
        on the others.

        ``expect_absent`` makes each write a conditional put: the intent
        is laid only if the key has no live value, else
        :class:`ConditionFailedError` — before anything is latched.

        ``pipelined`` answers once the intents are evaluated, latched
        and proposed: the proposal is traced under ``txn_span`` (it
        outlives this request) and waits in :attr:`pipelined` for the
        transaction's proof or its next request on each key.

        ``commit`` (one item only) asks for a one-phase commit — the
        transaction's only write, its commit record and the intent's
        resolution as *one* Raft entry, so no replica ever exposes the
        intent — and makes the return value ``(ts, committed)``.  It is
        granted when evaluation left ``ts`` where the transaction reads,
        or the transaction ``can_forward`` its timestamp (it has no read
        spans to refresh); otherwise the plain intent is laid.  The
        record in the entry is what makes a re-sent request harmless: it
        is answered from the record, and the replicas drop a second
        application.
        """
        self._count_writes(len(items))
        if commit:
            record = self.leaseholder_replica.committed(txn_id)
            if record is not None:
                return record.commit_ts, True
        yield from self._admit(ts, deadline_ms, units=len(items))
        stamps = [ts] * len(items)
        index = 0
        while index < len(items):
            key = items[index][0]
            stamps[index], blocker = self._evaluate_write(
                key, stamps[index], txn_id, expect_absent)
            if blocker is None:
                index += 1
                continue
            yield from self._wait_or_push(key, txn_id, blocker, span=span)
            index = 0
        commands = []
        for index, (key, value) in enumerate(items):
            stamps[index] = self._latch_write(key, stamps[index], txn_id)
            commands.append(PutIntentCommand(
                key=key, ts=stamps[index], value=value, txn_id=txn_id,
                anchor_node_id=anchor_node_id))
        put = commands[0] if len(commands) == 1 else BatchCommand(
            tuple(commands))
        written = stamps[0] if len(stamps) == 1 else stamps
        if pipelined:
            proposal = self._propose(put, span=txn_span)
            for key, _value in items:
                self.pipelined[(txn_id, key)] = proposal
            return written
        if not commit or (written != ts and not can_forward):
            yield self._propose(put, span=span)
            return (written, False) if commit else written
        key = items[0][0]
        resolve = ResolveIntentCommand(key=key, txn_id=txn_id,
                                       commit_ts=written)
        yield self._propose(BatchCommand(
            (put, SetTxnRecordCommand(txn_id, TxnStatus.COMMITTED, written,
                                      key),
             resolve) if self.commit_marker else (put, resolve)), span=span)
        # An earlier attempt's entry may have applied first: its record
        # (and timestamp) is the one that stands.
        record = self.leaseholder_replica.committed(txn_id)
        return (written if record is None else record.commit_ts), True

    def serve_locking_read(self, key: Any, ts: Timestamp, txn_id: int,
                           anchor_node_id: int, span=None,
                           deadline_ms: Optional[float] = None) -> Generator:
        """A locking read (SELECT FOR UPDATE): wait for conflicting
        locks, read the *latest* committed value, and lay an exclusive
        intent over it in one leaseholder visit.

        Returns ``(value, lock_ts)``.  Because the value is read at the
        lock's (write) timestamp, a transaction with no earlier read
        spans can adopt ``lock_ts`` as its read timestamp and never pay
        a write-too-old refresh — CRDB's motivation for FOR UPDATE in
        contended read-modify-write transactions.
        """
        yield from self._admit(ts, deadline_ms)
        if self.pipelined:
            yield from self._await_pipelined(txn_id, key)
        ts = yield from self._await_write(key, ts, txn_id, span=span)
        ts = self._latch_write(key, ts, txn_id)
        # Latest committed value (what the lock protects).
        newest = self.leaseholder_replica.store.get(key, ts, txn_id=txn_id)
        yield self._propose(PutIntentCommand(
            key=key, ts=ts, value=newest.value, txn_id=txn_id,
            anchor_node_id=anchor_node_id), span=span)
        self.ts_cache.record_read(key, ts, txn_id)
        return newest.value, ts

    def serve_read(self, keys, ts: Timestamp, txn_id: Optional[int],
                   uncertainty_limit: Optional[Timestamp],
                   allow_server_side_bump: bool = False,
                   span=None, deadline_ms: Optional[float] = None
                   ) -> Generator:
        """Leaseholder reads of ``keys`` — all owned by this range — at
        ``ts``, in order; each blocks on conflicting locks.  A request
        the range no longer owns in full bounces before any key is read.

        Returns ``(ReadResult, effective_read_ts)`` per key — for one
        key, the bare pair.  With ``allow_server_side_bump``
        (transaction has no other spans) an uncertainty restart is
        retried here at the value's timestamp instead of costing the
        coordinator another WAN round trip; otherwise
        ``ReadWithinUncertaintyIntervalError`` propagates and the
        coordinator refreshes.
        """
        if self._c_reads is None:
            self._c_reads = self.sim.obs.registry.counter(
                "kv.reads", range=self.name)
        for key in keys:
            self._check_owns(key)
        results = []
        for key in keys:
            self._c_reads.value += 1
            yield from self._admit(ts, deadline_ms)
            if self.pipelined:
                yield from self._await_pipelined(txn_id, key)
            read_ts = ts
            horizon = (uncertainty_limit if uncertainty_limit is not None
                       else ts)
            while True:
                self._check_owns(key)
                holder = self.lock_table.holder_of(key)
                if (holder is not None and holder.txn_id != txn_id
                        and holder.ts <= horizon):
                    yield from self._wait_or_push(key, txn_id, holder.txn_id,
                                                  span=span)
                    continue
                try:
                    result = self.leaseholder_replica.store.get(
                        key, read_ts, txn_id=txn_id,
                        uncertainty_limit=uncertainty_limit)
                except WriteIntentError as err:
                    self.lock_table.note_holder(key, err.txn_id,
                                                err.intent_ts)
                    yield from self._wait_or_push(key, txn_id, err.txn_id,
                                                  span=span)
                    continue
                except ReadWithinUncertaintyIntervalError as err:
                    if not allow_server_side_bump:
                        raise
                    read_ts = err.value_ts
                    if read_ts > horizon:
                        horizon = read_ts
                    continue
                self.ts_cache.record_read(key, read_ts, txn_id)
                results.append((result, read_ts))
                break
        return results[0] if len(results) == 1 else results

    def serve_refresh(self, key: Any, lo: Timestamp, hi: Timestamp,
                      txn_id: int, span=None) -> Generator:
        """Read refresh (paper §5.1/§6.1): is ``key`` unchanged in (lo, hi]?

        On success the refreshed timestamp is recorded in the timestamp
        cache so later writes cannot invalidate it.
        """
        self._check_owns(key)
        holder = self.lock_table.holder_of(key)
        if holder is not None and holder.txn_id != txn_id and holder.ts <= hi:
            return False
        changed = self.leaseholder_replica.store.changed_in_interval(
            key, lo, hi, txn_id=txn_id)
        if not changed:
            self.ts_cache.record_read(key, hi, txn_id)
        return changed is False
        yield  # pragma: no cover - marks this function as a generator

    def serve_query_intents(self, writes: tuple, txn_id: int,
                            span=None) -> Generator:
        """Prove ``txn_id``'s pipelined ``writes`` — ``(key, value)``
        pairs, all owned by this range — as CockroachDB's ``QueryIntent``
        does: :meth:`_await_pipelined` each.  The value is one ``None``
        per write; a lost one raises :class:`TransactionRetryError`."""
        for key, _value in writes:
            self._check_owns(key)
        for key, value in writes:
            yield from self._await_pipelined(txn_id, key, True, value)
        return None if len(writes) == 1 else (None,) * len(writes)

    def serve_txn_record(self, txn_id: int, status: str,
                         commit_ts: Optional[Timestamp],
                         span=None, resolve_keys: tuple = (),
                         prove: tuple = ()) -> Generator:
        """Write the transaction record (commit/abort) on the anchor
        range — and, in the same Raft entry, resolve the transaction's
        intents on ``resolve_keys`` (CRDB's ``EndTxn`` resolving the
        record range's intents in its own command): their lock-table
        holders release when the record applies.  A key a split has
        moved meanwhile is forwarded at apply like any batch member.

        ``prove`` — the transaction's pipelined ``(key, value)`` writes
        on this range — are proven first, as by
        :meth:`serve_query_intents` (a key a split moved, on the range
        that owns it now, on this node).  A re-sent request whose first
        attempt's record applied — resolving those intents — is not
        proven again."""
        if prove and self.leaseholder_replica.committed(txn_id) is None:
            for key, value in prove:
                owner = (self if self.descriptor.contains_key(key)
                         else self.span.descriptor_for_key(key).rng)
                yield from owner._await_pipelined(txn_id, key, True, value)
        command: Any = SetTxnRecordCommand(
            txn_id=txn_id, status=status, commit_ts=commit_ts)
        if resolve_keys:
            for key in resolve_keys:
                self.pipelined.pop((txn_id, key), None)
            command = BatchCommand((command,) + tuple(
                ResolveIntentCommand(key=key, txn_id=txn_id,
                                     commit_ts=commit_ts)
                for key in resolve_keys))
        yield self._propose(command, span=span)
        return None

    def serve_epoch_order(self, epoch: int, txn_ids: tuple,
                          span=None) -> Generator:
        """Replicate an epoch-OCC commit-order decision (key-less: it is
        anchored to whichever range the epoch service chose and is never
        re-routed by splits)."""
        entry = yield self._propose(EpochOrderCommand(
            epoch=epoch, txn_ids=tuple(txn_ids)), span=span)
        del entry
        return None

    def serve_resolve_intent(self, keys, txn_id: int,
                             commit_ts: Optional[Timestamp],
                             span=None) -> Generator:
        """Replicate the resolution of ``txn_id``'s intents on ``keys``
        — all owned by this range — as one Raft entry (for one key, a
        bare ``ResolveIntentCommand``); lock waiters release on apply.
        The value is one ``None`` per key — for one key, ``None``.  A
        rollback's resolve also ends the keys' unproven pipelined
        writes: its entry applies after theirs."""
        for key in keys:
            self._check_owns(key)
        if self.pipelined:
            for key in keys:
                self.pipelined.pop((txn_id, key), None)
        commands = tuple(ResolveIntentCommand(key=key, txn_id=txn_id,
                                              commit_ts=commit_ts)
                         for key in keys)
        yield self._propose(commands[0] if len(commands) == 1
                            else BatchCommand(commands), span=span)
        return None if len(keys) == 1 else (None,) * len(keys)

    # -- bulk ingestion -------------------------------------------------------------

    def bulk_ingest(self, items, ts: Timestamp) -> None:
        """Bulk-load ``items`` into this range's *span* (a Range token
        means its span): each key lands on the range now owning it."""
        self.span.bulk_ingest(items, ts)
