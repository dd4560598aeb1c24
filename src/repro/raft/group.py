"""A Raft group: one per Range.

Faithful to the latency-relevant behaviour of etcd/raft as used by
CockroachDB:

* The leader appends to its local log (small disk latency), streams the
  entry to every peer, and commits once a *quorum of voters* has
  acknowledged — learners (non-voting replicas, paper §5.2) receive the
  log but never count toward quorum and therefore never affect write
  latency.
* Followers apply an entry only once they know it is committed.  No
  message exists for that alone: every append carries the leader's
  commit index at send time (etcd's ``MsgApp``), and an idle range's
  followers learn it from the closed-timestamp side transport.  So the
  paper's ``L_replicate`` — the time for an entry to apply on the
  furthest follower — is the one-way delay of the next message the
  leader sends that follower after the commit.
* Each entry carries a closed timestamp; a follower's local closed
  timestamp is the maximum over applied entries, optionally refreshed by
  an idle-range side-transport heartbeat.

Leadership is stable (no randomized election timers): the placement
layer assigns leadership/leases explicitly, a cooperative handoff is
``transfer_leadership`` and failover is ``fail_over``.  This keeps
experiments deterministic while still letting failure tests exercise
quorum loss and recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import RangeUnavailableError
from ..sim.clock import TS_ZERO, Timestamp
from ..sim.core import Future, Simulator
from .log import Entry
from .membership import ConfigChangeError, ConfigChangeGuard

__all__ = ["RaftGroup", "PeerState", "ReplicaType"]


class ReplicaType:
    """Replica roles within a group."""

    VOTER = "voter"
    NON_VOTER = "non_voter"  # Raft learner


@dataclass
class PeerState:
    """The per-replica Raft state living on one node."""

    node: Any
    replica_type: str
    log: List[Entry] = field(default_factory=list)
    applied_index: int = 0
    closed_ts: Timestamp = TS_ZERO
    #: Out-of-order appends, keyed by index: (entry, predecessor).
    _staged: Dict[int, Any] = field(default_factory=dict)
    #: Highest commit index this peer has heard of.
    known_commit_index: int = 0

    @property
    def last_index(self) -> int:
        return self.log[-1].index if self.log else 0

    @property
    def last_term(self) -> int:
        return self.log[-1].term if self.log else 0

    def stage(self, entry: Entry, prev: Optional[Entry] = None,
              authoritative: bool = False) -> None:
        """Stage an appended entry; append once contiguous.

        ``prev`` is the sender's log entry immediately before ``entry``
        (Raft's AppendEntries consistency check): an entry only chains
        onto a log whose tail *is* that predecessor, so replicas can
        never build a log mixing stale and current-term suffixes.

        ``authoritative`` marks a delivery from the *current* leader at
        the *current* term.  Only such a delivery may overwrite a
        conflicting suffix (Raft's log-matching repair); anything else
        — a delayed append from a deposed leader — must not clobber the
        log the current leader is building.
        """
        log = self.log
        if entry.index <= (log[-1].index if log else 0):
            existing = log[entry.index - 1]
            if existing is entry:
                return  # duplicate delivery of an entry we already hold
            if entry.index <= max(self.applied_index,
                                  self.known_commit_index):
                # Known-committed entries are immutable even before they
                # are applied: rewriting one would let _apply_ready feed
                # the wrong branch's command to the state machine.
                return
            if not authoritative:
                return  # stale sender may never rewrite a suffix
            if prev is not (self.log[entry.index - 2]
                            if entry.index >= 2 else None):
                return  # predecessor mismatch: wait for a deeper resync
            # Conflicting suffix was never committed — truncate, take
            # the current leader's entry instead.
            del self.log[entry.index - 1:]
        staged = self._staged.get(entry.index)
        if staged is None or authoritative:
            self._staged[entry.index] = (entry, prev)
        get_staged = self._staged.get
        while True:
            tail = log[-1] if log else None
            nxt = get_staged((tail.index if tail is not None else 0) + 1)
            if nxt is None:
                break
            nxt_entry, nxt_prev = nxt
            if nxt_prev is not tail:
                break  # predecessor mismatch: wait for a resync
            log.append(nxt_entry)
            del self._staged[nxt_entry.index]


def _inflight_record(sim: Simulator, entry: Entry,
                     acks: Dict[int, bool]) -> list:
    """The leader's bookkeeping for one uncommitted log index, a list
    (slot access by position is the hot path's cheapest)::

        0  future the proposer waits on (resolves with the entry)
        1  acks: node id -> bool (True once the node's ack arrived)
        2  the entry
        3  {peer id: raft.append span id}, None when untraced
        4  raft.propose span id, 0 when untraced
        5  proposed-at sim ms; None for a tail entry ``fail_over``
           re-drives (nobody waits on it: no spans, no metrics)
        6  proposal-timeout timer handle, None when unarmed or spent
    """
    return [Future(sim), acks, entry, None, 0, None, None]


class RaftGroup:
    """Replication state machine for a single Range.

    What one proposal costs per follower — at most two messages, each
    one kernel event — and the ``bench/`` workload that pays for each
    (numbers: EXPERIMENTS.md "Round 7" and "Round 24"):

    * HOT: one **append** (``_send_append`` → ``_deliver_append``), to
      voters and learners alike: ``kv``, ``tpcc`` (4 of their 6
      messages per proposal).  It carries the leader's send-time
      ``commit_index`` and the entry at it (``_last_committed``); the
      follower adopts that commit index once its log holds that exact
      entry, the rule ``_learn_commit`` applies.
    * HOT: one **ack** (``_send_ack`` → ``_on_ack``) from a follower
      that lands the entry while it is still uncommitted — in practice
      the voters inside the quorum race only.  An append that lands at
      or below ``commit_index`` (a learner an ocean away, a resync of
      committed history) is not acked: ``_inflight`` holds nothing such
      an ack could change.  The follower's disk append rides on the
      ack's flight (``Network.send(after_ms=)``) instead of a timer that
      then sends: ``kv``, ``tpcc`` (2 per proposal), ``verify_sweep``.
    * No **commit update** per committed entry.  A follower learns an
      entry committed from the next append after it, or, on an idle
      range, from the side-transport tick — which is how a GLOBAL
      table's followers (``movr``) learn it.  ``resync_peer`` still
      sends one after the entries it re-sends.
    * Beside them the leader's own disk append is one timer
      (``propose`` → ``_on_ack``), and the ``proposal_timeout_ms`` guard
      is cancelled when the proposal settles: ``verify_sweep``,
      ``openloop`` (the workloads provisioned with one).
    * None of the above is paid twice per write any more: an auto-commit
      single-row statement proposes **one** entry (the one-phase
      ``BatchCommand`` of ``Range.serve_write``) where it proposed an
      intent and then its resolution, and every other transaction one
      resolve entry per range, not per key — ``kv`` 1.02 → 0.51
      proposals per operation, ``openloop`` 0.36 → 0.18, ``tpcc`` 15.2 →
      12.1, ``tpcc_epoch`` 11.8 → 8.7 (EXPERIMENTS.md "Round 10").
    * Nor once for a commit record and again to resolve the intents
      beside it: a multi-range commit's record entry resolves its own
      range's intents (``Range.serve_txn_record(resolve_keys=)``) —
      ``tpcc`` 12.10 → 11.23 proposals per operation (EXPERIMENTS.md
      "Round 11").
    * Closed-timestamp heartbeats do not travel per group at all: the
      per-node-pair transport (``repro.kv.sidetransport``) carries
      them — ``movr``, ``tpcc_epoch``, ``verify_sweep``.  The
      ``coalesce_ms`` fork below is off in every shipped workload.
    """

    #: Simulated local storage append latency per entry (ms).
    DISK_APPEND_MS = 0.25
    #: A cooperative transfer whose target has not caught up by then is
    #: abandoned: the old leader keeps leading (ms).
    TRANSFER_TIMEOUT_MS = 1000.0

    def __init__(self, sim: Simulator, network, range_id: int,
                 apply_fn: Callable[[Any, Any], None],
                 proposal_timeout_ms: Optional[float] = None,
                 coalesce_ms: Optional[float] = None):
        """``apply_fn(peer_node, command)`` applies a committed command to
        the replica state on ``peer_node``.

        ``coalesce_ms`` enables per-follower message coalescing: appends,
        commit-index advances and closed-timestamp heartbeats produced
        within one window travel as a single batched message per peer
        (GeoGauss-style replication batching).  None disables it, which
        keeps the message schedule — and therefore every downstream
        jitter draw — identical to the uncoalesced protocol.
        """
        self.sim = sim
        self.network = network
        self.range_id = range_id
        self.apply_fn = apply_fn
        self.proposal_timeout_ms = proposal_timeout_ms
        self.coalesce_ms = coalesce_ms
        #: (leader_node_id, peer_node_id) -> pending batch (created
        #: lazily per window; flushed ``coalesce_ms`` after creation).
        self._outbox: Dict[Any, Dict[str, Any]] = {}
        self.term = 1
        self.leader_node_id: Optional[int] = None
        self.peers: Dict[int, PeerState] = {}
        self.commit_index = 0
        self._next_index = 1
        #: index -> :func:`_inflight_record`.  Never holds an index at or
        #: below ``commit_index``: ``_advance_commit`` pops as it goes
        #: and ``fail_over`` re-creates records only past it.
        self._inflight: Dict[int, list] = {}
        self.proposals_committed = 0
        #: The entry at the current commit index (leader completeness).
        self._last_committed: Optional[Entry] = None
        #: One-at-a-time membership-change enforcement.
        self.config_guard = ConfigChangeGuard(range_id)
        #: A pending cooperative transfer, ``(target node id, on_lead,
        #: abandon timer)``; None when none is.  See
        #: :meth:`transfer_leadership`.
        self._transfer: Optional[tuple] = None
        #: Proposals made while a transfer is pending, ``(command,
        #: closed_ts, span, future)``: the next leader proposes them.
        self._deferred: List[tuple] = []
        #: Set by :meth:`start_retransmission`; remembered so an elastic
        #: split can start the child's group with the same hardening.
        self._retransmit_interval_ms: Optional[float] = None
        #: Per-range instrument handles, resolved lazily on first use:
        #: binding them here would cost six registry lookups per range
        #: at cluster build and export a zero row for every idle range.
        self._c_proposals = None
        self._c_rejected = None
        self._h_commit_ms = None
        self._c_commits = None
        self._obs_on = sim.obs.enabled
        self._tracer = sim.obs.tracer

    # -- membership --------------------------------------------------------

    def add_peer(self, node, replica_type: str) -> PeerState:
        """Instant-snapshot membership add (provisioning shortcut).

        Counts as a complete config change: it conflicts with any
        long-running learner/snapshot change already in flight.
        """
        self.config_guard.acquire(f"add-{replica_type}@n{node.node_id}",
                                  self.sim.now)
        try:
            peer = PeerState(node=node, replica_type=replica_type)
            # New peers catch up from the leader's log (snapshot shortcut).
            if self.leader_node_id is not None:
                leader = self.peers[self.leader_node_id]
                peer.log = list(leader.log)
                peer.applied_index = leader.applied_index
                peer.closed_ts = leader.closed_ts
                peer.known_commit_index = self.commit_index
            self.peers[node.node_id] = peer
            return peer
        finally:
            self.config_guard.release(self.sim.now)

    def remove_peer(self, node_id: int) -> None:
        self.config_guard.acquire(f"remove@n{node_id}", self.sim.now)
        try:
            self.peers.pop(node_id, None)
        finally:
            self.config_guard.release(self.sim.now)

    # Guardless primitives below are the building blocks of the safe
    # learner → snapshot → promote pipeline; the *composite* operation
    # (Range.add_replica_safely) holds the config guard across the whole
    # multi-step change, so the primitives must not re-acquire it.

    def add_learner(self, node) -> PeerState:
        """Join as an empty learner: receives the live stream but holds
        no data until :meth:`install_snapshot` lands."""
        if node.node_id in self.peers:
            raise ConfigChangeError(
                f"r{self.range_id}: node {node.node_id} is already a member")
        peer = PeerState(node=node, replica_type=ReplicaType.NON_VOTER)
        self.peers[node.node_id] = peer
        return peer

    def install_snapshot(self, node_id: int) -> int:
        """Complete a leader-driven snapshot transfer onto a learner.

        Copies the leader's log (entry identity preserved, so later
        appends chain), applied index, closed timestamp, and commit
        knowledge, then drains any live-stream entries that arrived
        while the snapshot was in transit.  Returns the peer's new last
        index.  The caller is responsible for having moved the state
        machine (the MVCC store) alongside.
        """
        leader = self.leader
        peer = self.peers.get(node_id)
        if peer is None:
            raise ConfigChangeError(
                f"r{self.range_id}: snapshot for non-member {node_id}")
        self.sim.obs.registry.counter("raft.snapshots_installed",
                                      range=self.range_id).inc()
        peer.log = list(leader.log)
        peer.applied_index = leader.applied_index
        peer.closed_ts = leader.closed_ts
        peer.known_commit_index = max(peer.known_commit_index,
                                      self.commit_index)
        # Entries the live stream delivered during the transfer: drop
        # what the snapshot already covers, chain the rest.
        peer._staged = {i: s for i, s in peer._staged.items()
                        if i > peer.last_index}
        while True:
            nxt = peer._staged.get(peer.last_index + 1)
            if nxt is None:
                break
            nxt_entry, nxt_prev = nxt
            tail = peer.log[-1] if peer.log else None
            if nxt_prev is not tail:
                break
            peer.log.append(nxt_entry)
            del peer._staged[nxt_entry.index]
        self._apply_ready(peer)
        return peer.last_index

    def promote_learner(self, node_id: int) -> PeerState:
        """Promote a caught-up learner to voter.

        Refuses if the learner misses committed entries (promoting it
        would let an incomplete log into the electorate) or if the
        promotion would leave the *new* voter set without a live quorum.
        """
        peer = self.peers.get(node_id)
        if peer is None or peer.replica_type != ReplicaType.NON_VOTER:
            raise ConfigChangeError(
                f"r{self.range_id}: node {node_id} is not a learner")
        if peer.last_index < self.commit_index or not self.log_complete(peer):
            raise ConfigChangeError(
                f"r{self.range_id}: learner {node_id} not caught up "
                f"(at {peer.last_index}, commit {self.commit_index})")
        peer.replica_type = ReplicaType.VOTER
        if not self.has_quorum():
            peer.replica_type = ReplicaType.NON_VOTER
            raise ConfigChangeError(
                f"r{self.range_id}: promoting {node_id} would enlarge the "
                f"voter set beyond its live quorum")
        return peer

    def demote_voter(self, node_id: int) -> PeerState:
        """Voter → learner (the first half of a safe voter removal)."""
        peer = self.peers.get(node_id)
        if peer is None or peer.replica_type != ReplicaType.VOTER:
            raise ConfigChangeError(
                f"r{self.range_id}: node {node_id} is not a voter")
        if node_id == self.leader_node_id:
            raise ConfigChangeError(
                f"r{self.range_id}: cannot demote the leader")
        if not self.would_retain_quorum_without(node_id):
            raise ConfigChangeError(
                f"r{self.range_id}: demoting {node_id} would lose quorum")
        peer.replica_type = ReplicaType.NON_VOTER
        return peer

    def would_retain_quorum_without(self, node_id: int) -> bool:
        """Would the voter set minus ``node_id`` still have a live quorum?"""
        remaining = [p for p in self.voters() if p.node.node_id != node_id]
        if not remaining:
            return False
        quorum = len(remaining) // 2 + 1
        live = sum(1 for p in remaining
                   if not self.network.node_is_dead(p.node.node_id))
        return live >= quorum

    def _electable(self, node_id: int) -> PeerState:
        """The peer on ``node_id``, if it is a voter and so may lead."""
        peer = self.peers.get(node_id)
        if peer is None:
            raise RangeUnavailableError(
                f"r{self.range_id}: node {node_id} is not a member")
        if peer.replica_type != ReplicaType.VOTER:
            raise RangeUnavailableError(
                f"r{self.range_id}: non-voter {node_id} cannot lead")
        return peer

    def set_leader(self, node_id: int) -> None:
        self._electable(node_id)
        self.leader_node_id = node_id

    def transfer_leadership(self, node_id: int,
                            on_lead: Optional[Callable[[int], None]] = None
                            ) -> None:
        """Cooperatively hand leadership to the voter ``node_id``.

        As in etcd's leadership transfer, the target leads only once its
        log holds the leader's last entry.  A target that lags is sent
        what it misses (``resync_peer``) and takes over when that lands;
        until then the old leader keeps leading, and proposals wait in
        ``_deferred`` for the new leader.  Were the target to lead at
        once, it would stage the next proposal on its own, shorter tail,
        whose predecessor never matches, and every later proposal would
        stall.  ``on_lead(node_id)`` runs when the target takes over —
        at once when it is caught up, or when the old leader is dead and
        can send nothing.  A target still behind after
        ``TRANSFER_TIMEOUT_MS`` is given up on.
        """
        target = self._electable(node_id)
        self._end_transfer()
        leader = self.peers.get(self.leader_node_id)
        if (leader is None or leader is target or self._holds_tail(target)
                or self.network.node_is_dead(leader.node.node_id)):
            self._lead(target, on_lead)
            return
        self._transfer = (node_id, on_lead, self.sim.call_after(
            self.TRANSFER_TIMEOUT_MS, self._abandon_transfer))
        self.resync_peer(node_id)

    def _holds_tail(self, peer: PeerState) -> bool:
        """Does ``peer``'s log end in the leader's last entry?"""
        llog = self.peers[self.leader_node_id].log
        if not llog:
            return True
        tail = llog[-1]
        plog = peer.log
        return (plog[-1].index if plog else 0) >= tail.index and (
            plog[tail.index - 1] is tail)

    def _end_transfer(self) -> None:
        if self._transfer is not None:
            self.sim.cancel(self._transfer[2])
            self._transfer = None

    def _lead(self, peer: PeerState,
              on_lead: Optional[Callable[[int], None]]) -> None:
        """Make the caught-up ``peer`` leader at a new term, then hand it
        the proposals that waited for it."""
        self._end_transfer()
        self.term += 1
        node_id = peer.node.node_id
        self.leader_node_id = node_id
        # It holds every entry the old leader held, so every committed
        # one: the commit index moves with the leadership.
        if self.commit_index > peer.known_commit_index:
            peer.known_commit_index = self.commit_index
        self._apply_ready(peer)
        if on_lead is not None:
            on_lead(node_id)
        self._propose_deferred()

    def _propose_deferred(self) -> None:
        deferred, self._deferred = self._deferred, []
        for command, closed_ts, span, fut in deferred:
            self.propose(command, closed_ts, span).add_callback(
                lambda done, fut=fut: fut(done._value, done._error))

    def _abandon_transfer(self) -> None:
        self._transfer = None
        self._propose_deferred()

    def fail_over(self, node_id: Optional[int] = None) -> int:
        """Elect a new leader after losing the old one.

        Candidates are live voters; per Raft's leader-completeness
        argument the one with the longest log wins (ties break to the
        lowest node id for determinism).  Proposals the new leader never
        received are rejected (their clients retry); its uncommitted
        tail is re-driven under the new term so the commit index can
        keep advancing.  Returns the new leader's node id.
        """
        if node_id is not None:
            candidate = self.peers.get(node_id)
            if candidate is None or candidate.replica_type != ReplicaType.VOTER:
                raise RangeUnavailableError(
                    f"r{self.range_id}: node {node_id} cannot lead")
            if not self.log_complete(candidate):
                # Leader completeness: electing a log that misses
                # committed entries would lose acknowledged writes.
                raise RangeUnavailableError(
                    f"r{self.range_id}: node {node_id} log misses "
                    f"committed entries (commit {self.commit_index})")
        else:
            live = [p for p in self.voters()
                    if not self.network.node_is_dead(p.node.node_id)
                    and self.log_complete(p)]
            if not live:
                raise RangeUnavailableError(
                    f"r{self.range_id}: no electable live voter")
            candidate = max(live, key=lambda p: (p.last_term, p.last_index,
                                                 -p.node.node_id))
        self.term += 1
        self.leader_node_id = candidate.node.node_id
        self._end_transfer()
        for _command, _closed_ts, _span, fut in self._deferred:
            fut.reject(RangeUnavailableError(
                f"r{self.range_id}: proposal dropped in failover to node "
                f"{candidate.node.node_id}"))
        self._deferred = []
        # Proposals the new leader does not hold — by index, or by a
        # *different* entry at the same index (a divergent branch won) —
        # were never committed (commit requires a quorum, and the new
        # leader has the most complete live log): their proposers get a
        # definite failure instead of a phantom ack when the winning
        # branch's entry at that index commits.
        for index in sorted(self._inflight):
            record = self._inflight[index]
            if (index <= candidate.last_index
                    and candidate.log[index - 1] is record[2]):
                continue
            self._inflight.pop(index)
            self._settle(record, RangeUnavailableError(
                f"r{self.range_id}: proposal {index} lost in "
                f"failover to node {candidate.node.node_id}"))
        self._next_index = candidate.last_index + 1
        candidate.known_commit_index = max(candidate.known_commit_index,
                                           self.commit_index)
        self._apply_ready(candidate)
        # Re-drive the uncommitted tail: count the new leader's durable
        # copy as an ack and re-replicate to everyone else.
        for entry in candidate.log[self.commit_index:]:
            if entry.index not in self._inflight:
                self._inflight[entry.index] = _inflight_record(
                    self.sim, entry, {})
            self.sim.call_after(self.DISK_APPEND_MS, self._on_ack,
                                entry.index, candidate.node.node_id,
                                entry.term)
        for peer in self.peers.values():
            if peer is not candidate:
                self.resync_peer(peer.node.node_id)
        return candidate.node.node_id

    def log_complete(self, peer: PeerState) -> bool:
        """Does ``peer``'s log contain every committed entry?

        Stands in for the vote-quorum up-to-date check of a real Raft
        election: a deposed leader's replica can have a *longer* log
        than an up-to-date one (a stale uncommitted tail) — electing it
        anyway would silently drop acknowledged writes.
        """
        last = self._last_committed
        return (last is None
                or (peer.last_index >= last.index
                    and peer.log[last.index - 1] is last))

    def resync_peer(self, node_id: int) -> None:
        """Re-send a lagging peer everything it is missing.

        Used for crash-restart catch-up and post-failover repair: the
        peer receives every log entry past its last index plus the
        current commit index; duplicate deliveries are idempotent
        (:meth:`PeerState.stage` drops them).
        """
        if self.leader_node_id is None or node_id == self.leader_node_id:
            return
        leader = self.peers[self.leader_node_id]
        peer = self.peers.get(node_id)
        if peer is None:
            return
        # Start from the first point where the logs diverge — a peer
        # with a stale (post-failover) tail needs those indices
        # re-sent, not just everything past its last index.
        start = min(peer.last_index, leader.last_index)
        while start > 0 and peer.log[start - 1] is not leader.log[start - 1]:
            start -= 1
        for entry in leader.log[start:]:
            self._send_append(leader, peer, entry)
        self._send_commit_update(leader, peer, self.commit_index)

    def start_retransmission(self, interval_ms: float = 150.0) -> None:
        """Leader keep-alive: periodically resync every lagging peer.

        Raft's append retries, modelled coarsely: without this, a single
        dropped append or ack under packet loss would stall the commit
        index forever.  Off by default (seed experiments count
        messages); chaos provisioning turns it on.
        """
        if self._retransmit_interval_ms is not None:
            return
        self._retransmit_interval_ms = interval_ms

        def retransmit():
            while True:
                yield self.sim.sleep(interval_ms)
                leader_id = self.leader_node_id
                if leader_id is None or self.network.node_is_dead(leader_id):
                    continue
                leader = self.peers.get(leader_id)
                if leader is None:
                    continue
                tail = leader.log[self.commit_index:]
                for peer in self.peers.values():
                    if peer is leader or self.network.node_is_dead(
                            peer.node.node_id):
                        continue
                    if (peer.last_index < leader.last_index
                            or peer.known_commit_index < self.commit_index):
                        self.resync_peer(peer.node.node_id)
                    elif any(peer.node.node_id not in
                             self._inflight[e.index][1]
                             for e in tail if e.index in self._inflight):
                        # The peer has the entries but its acks were
                        # lost: re-send the tail, which re-acks dups.
                        for entry in tail:
                            self._send_append(leader, peer, entry)
                # Re-ack the leader's own uncommitted tail so commit can
                # advance once quorum reappears.
                for entry in tail:
                    if entry.index in self._inflight:
                        self._on_ack(entry.index, leader_id, entry.term)

        self.sim.spawn(retransmit(), name=f"r{self.range_id}-retransmit")

    @property
    def leader(self) -> PeerState:
        if self.leader_node_id is None:
            raise RangeUnavailableError(f"r{self.range_id}: no leader")
        return self.peers[self.leader_node_id]

    def voters(self) -> List[PeerState]:
        return [p for p in self.peers.values()
                if p.replica_type == ReplicaType.VOTER]

    def non_voters(self) -> List[PeerState]:
        return [p for p in self.peers.values()
                if p.replica_type == ReplicaType.NON_VOTER]

    def quorum_size(self) -> int:
        # Counted inline (no voters() list) — this runs on every ack.
        n = 0
        for p in self.peers.values():
            if p.replica_type == ReplicaType.VOTER:
                n += 1
        return n // 2 + 1

    def live_voter_count(self) -> int:
        return sum(1 for p in self.voters()
                   if not self.network.node_is_dead(p.node.node_id))

    def has_quorum(self) -> bool:
        return self.live_voter_count() >= self.quorum_size()

    # -- proposal path -------------------------------------------------------

    def propose(self, command: Any, closed_ts: Timestamp,
                span=None) -> Future:
        """Replicate ``command``; resolves once committed & applied on the
        leader.  The resolved value is the :class:`Entry`.

        Traces a ``raft.propose`` span (child of ``span``) covering
        stage → quorum ack → commit, with one ``raft.append`` child per
        follower stream.
        """
        leader = self.leader
        if self.network.node_is_dead(leader.node.node_id):
            fut = Future(self.sim)
            fut.reject(RangeUnavailableError(f"r{self.range_id}: leader dead"))
            return fut
        if self._transfer is not None:
            fut = Future(self.sim)
            self._deferred.append((command, closed_ts, span, fut))
            return fut
        entry = Entry(index=self._next_index, term=self.term,
                      command=command, closed_ts=closed_ts)
        self._next_index += 1
        record = _inflight_record(self.sim, entry,
                                  {leader.node.node_id: False})
        fut = record[0]
        self._inflight[entry.index] = record
        prop_span = 0
        if self._c_proposals is None:
            self._c_proposals = self.sim.obs.registry.counter(
                "raft.proposals", range=self.range_id)
        self._c_proposals.value += 1  # inc(), minus a frame per proposal
        record[5] = self.sim.now
        if span != 0:
            # ``span`` 0 is an untraced request (every request, with
            # observability off); None (no trace context) makes the
            # proposal a root of its own.
            tracer = self._tracer
            prop_span = record[4] = tracer.start(
                "raft.propose", span,
                ("range", self.range_id, "index", entry.index,
                 "term", entry.term))
            if prop_span:
                append_spans = record[3] = {}

        if self.proposal_timeout_ms is not None:
            record[6] = self.sim.call_after(self.proposal_timeout_ms,
                                            self._maybe_timeout, entry.index)
        # Local append (counts as the leader's own ack after disk latency).
        # The leader's log is canonical at its own term: a stale in-flight
        # append from a deposed leader may have extended it past the
        # proposal point, and staging against that tail would wedge the
        # chain once the conflict is truncated.  Drop the stale suffix
        # first, then append.
        llog = leader.log
        if (llog[-1].index if llog else 0) >= entry.index:
            del llog[entry.index - 1:]
            leader._staged = {i: s for i, s in leader._staged.items()
                              if i < entry.index}
        leader.stage(entry, llog[-1] if llog else None,
                     authoritative=True)
        self.sim.call_after(self.DISK_APPEND_MS, self._on_ack,
                            entry.index, leader.node.node_id, entry.term)
        # Stream to every other peer, voters and learners alike.
        for peer in self.peers.values():
            if peer.node.node_id == leader.node.node_id:
                continue
            if prop_span:
                peer_id = peer.node.node_id
                append_spans[peer_id] = tracer.start(
                    "raft.append", prop_span, ("peer", peer_id))
            self._send_append(leader, peer, entry)
        return fut

    def _settle(self, record, error: Optional[BaseException] = None) -> None:
        """Resolve a proposal's future with its entry, or reject it —
        closing its spans and recording its metrics first."""
        fut = record[0]
        if fut.done:
            return
        if record[6] is not None:
            # The timeout guards this future only; it dies with it.
            self.sim.cancel(record[6])
            record[6] = None
        if record[5] is not None:
            tracer = self._tracer
            if record[3]:
                # Streams whose ack never arrived (or arrives after the
                # proposal resolved) end with the proposal, so every
                # child stays inside the raft.propose window.
                for append_span in record[3].values():
                    tracer.finish(append_span, "acked", False)
                record[3].clear()
            if error is not None:
                tracer.tag(record[4], "error", type(error).__name__)
                if self._c_rejected is None:
                    self._c_rejected = self.sim.obs.registry.counter(
                        "raft.proposals_rejected", range=self.range_id)
                self._c_rejected.inc()
            elif self._obs_on:
                # One of the two distributions the obs mode gates.
                if self._h_commit_ms is None:
                    self._h_commit_ms = self.sim.obs.registry.histogram(
                        "raft.commit_ms", range=self.range_id)
                self._h_commit_ms.observe(self.sim.now - record[5])
            if record[4]:
                tracer.finish(record[4])
        if error is None:
            fut.resolve(record[2])
        else:
            fut.reject(error)

    def _maybe_timeout(self, index: int) -> None:
        # Reject the waiting client but keep the ack tracking: the entry
        # is still in the log, and late acks (a healed partition, a
        # retransmission) must be able to commit it — otherwise every
        # later entry stalls behind the gap forever.
        inflight = self._inflight.get(index)
        if inflight is not None:
            self._settle(inflight, RangeUnavailableError(
                f"r{self.range_id}: proposal {index} timed out (no quorum)"))

    # -- message coalescing --------------------------------------------------

    def _outbox_for(self, leader: PeerState, peer: PeerState) -> Dict[str, Any]:
        """The pending batch for one leader→peer stream; the first
        message of a window creates the batch and schedules its flush."""
        key = (leader.node.node_id, peer.node.node_id)
        batch = self._outbox.get(key)
        if batch is None:
            batch = {"leader": leader, "peer": peer,
                     "appends": [], "commit": None, "closed": None}
            self._outbox[key] = batch
            self.sim.call_after(self.coalesce_ms, self._flush_outbox, key)
        return batch

    def _flush_outbox(self, key) -> None:
        batch = self._outbox.pop(key, None)
        if batch is None:
            return
        leader, peer = batch["leader"], batch["peer"]
        commit = batch["commit"]
        if batch["appends"] and (commit is None
                                 or self.commit_index > commit[0]):
            # The commit index rides on the appends, as uncoalesced.
            batch["commit"] = (self.commit_index, self._last_committed)
        self.sim.obs.registry.counter("raft.coalesced_batches",
                                      range=self.range_id).inc()
        self.network.send(leader.node, peer.node, self._deliver_batch,
                          leader, peer, batch)

    def _deliver_batch(self, leader: PeerState, peer: PeerState,
                       batch: Dict[str, Any]) -> None:
        """Apply one coalesced leader→peer message: appends in order,
        then the commit-index advance, then the closed-ts heartbeat —
        so a batch can carry an entry *and* the word that it committed."""
        before = peer.last_index
        for entry, prev, msg_term in batch["appends"]:
            peer.stage(entry, prev, authoritative=(
                msg_term == self.term
                and self.leader_node_id == leader.node.node_id))
        self._apply_ready(peer)
        acks: List = []
        if peer.last_index > before:
            for index in range(before + 1, peer.last_index + 1):
                acks.append((index, peer.log[index - 1].term))
        for entry, prev, msg_term in batch["appends"]:
            if (entry.index <= before
                    and peer.log[entry.index - 1] is entry):
                # Duplicate delivery (retransmission): the original ack
                # may have been lost — re-ack.
                acks.append((entry.index, entry.term))
        if acks:
            # One ack message for the whole batch, after a single disk
            # append (the entries land in one write).
            self.sim.call_after(self.DISK_APPEND_MS, self._send_ack_batch,
                                peer, acks)
        commit = batch["commit"]
        if commit is not None:
            self._learn_commit(peer, commit[0], commit[1])
        transfer = self._transfer
        if transfer is not None and transfer[0] == peer.node.node_id:
            self._maybe_take_over(peer)
        closed = batch["closed"]
        if closed is not None:
            self._deliver_closed_ts(peer, *closed)

    def _send_ack_batch(self, peer: PeerState, acks: List) -> None:
        leader = self.peers.get(self.leader_node_id)
        if leader is None:
            return
        self.network.send(peer.node, leader.node, self._deliver_acks,
                          peer.node.node_id, acks)

    def _deliver_acks(self, node_id: int, acks: List) -> None:
        for index, term in acks:
            self._on_ack(index, node_id, term)

    def _send_append(self, leader: PeerState, peer: PeerState,
                     entry: Entry) -> None:
        llog = leader.log
        prev = (llog[entry.index - 2]
                if 2 <= entry.index <= (llog[-1].index if llog else 0) + 1
                else None)
        if self.coalesce_ms is not None:
            self._outbox_for(leader, peer)["appends"].append(
                (entry, prev, self.term))
            return
        # Send-time state (the message's term, claimed sender and commit
        # index) rides as args; delivery-time state (current term/leader)
        # is read in _deliver_append.  No closure on the hot path.
        self.network.send(leader.node, peer.node, self._deliver_append,
                          peer, entry, prev, self.term, leader.node.node_id,
                          self.commit_index, self._last_committed)

    def _deliver_append(self, peer: PeerState, entry: Entry,
                        prev: Optional[Entry], msg_term: int,
                        from_node_id: int, commit: int,
                        commit_entry: Optional[Entry]) -> None:
        log = peer.log
        before = log[-1].index if log else 0
        peer.stage(entry, prev, authoritative=(
            msg_term == self.term
            and self.leader_node_id == from_node_id))
        after = log[-1].index if log else 0
        # The sender's commit index, under _learn_commit's rule: only a
        # log that holds the committed entry itself may adopt it.
        if (commit > peer.known_commit_index and after >= commit
                and log[commit - 1] is commit_entry):
            peer.known_commit_index = commit
        self._apply_ready(peer)
        transfer = self._transfer
        if transfer is not None and transfer[0] == peer.node.node_id:
            self._maybe_take_over(peer)
        # Ack whatever actually landed in the log — never a
        # merely-staged entry, whose prefix the peer does not yet have
        # durably — but only what is still uncommitted: ``_inflight``
        # holds no index at or below the commit index, so an ack for
        # one (a learner an ocean away, a resync of committed history)
        # could not change any state.  (This reads the group's commit
        # index, not the message's: ROADMAP 6(c).)
        committed = self.commit_index
        if after > before:
            for index in range(max(before, committed) + 1, after + 1):
                self._send_ack(peer, index, log[index - 1].term)
        elif (committed < entry.index <= after
              and log[entry.index - 1] is entry):
            # Duplicate delivery (retransmission): the original ack
            # may have been lost — re-ack.
            self._send_ack(peer, entry.index, entry.term)

    def _maybe_take_over(self, peer: PeerState) -> None:
        """A pending transfer's target received entries: it leads once
        it holds the leader's last entry."""
        if self._holds_tail(peer):
            self._lead(peer, self._transfer[1])

    def _send_ack(self, peer: PeerState, index: int,
                  term: Optional[int] = None) -> None:
        """Ack ``index`` to the leader once the peer's disk append is
        done: the append's latency rides on the message's flight
        (``after_ms``), one delivery event instead of a timer that then
        sends."""
        leader = self.peers.get(self.leader_node_id)
        if leader is None:
            return
        self.network.send(peer.node, leader.node, self._on_ack,
                          index, peer.node.node_id, term,
                          after_ms=self.DISK_APPEND_MS)

    def _on_ack(self, index: int, from_node_id: int,
                term: Optional[int] = None) -> None:
        inflight = self._inflight.get(index)
        if inflight is None:
            return
        if term is not None:
            # A stale ack (for an entry replaced after failover) must
            # not count toward the entry now occupying this index.
            leader = self.peers.get(self.leader_node_id)
            if leader is None:
                return
            llog = leader.log
            if (index > (llog[-1].index if llog else 0)
                    or llog[index - 1].term != term):
                return
        acks = inflight[1]
        acks[from_node_id] = True
        if inflight[3]:
            append_span = inflight[3].pop(from_node_id, 0)
            if append_span:
                self._tracer.finish(append_span, "acked", True)
        if (self._live_quorum_acks(index, acks) >= self.quorum_size()
                and index == self.commit_index + 1):
            self._advance_commit(index)

    def _live_quorum_acks(self, index: int, acks: Dict[int, bool]) -> int:
        """Count voter acks for ``index`` that are still *valid*: the
        acking replica's log must currently hold the leader's exact
        entry at that index.  An ack recorded before the peer's suffix
        was truncated in a failover is a phantom — counting it would
        commit an entry that no quorum actually stores."""
        peers = self.peers
        leader = peers.get(self.leader_node_id)
        if leader is None:
            return 0
        llog = leader.log
        if index > (llog[-1].index if llog else 0):
            return 0
        entry = llog[index - 1]
        count = 0
        for nid, acked in acks.items():
            if not acked:
                continue
            peer = peers.get(nid)
            if peer is None or peer.replica_type != ReplicaType.VOTER:
                continue
            plog = peer.log
            if (plog and plog[-1].index >= index
                    and plog[index - 1] is entry):
                count += 1
        return count

    def _advance_commit(self, index: int) -> None:
        """Commit ``index`` and any consecutive successors already acked."""
        while True:
            self.commit_index = index
            self.proposals_committed += 1
            if self._c_commits is None:
                self._c_commits = self.sim.obs.registry.counter(
                    "raft.commits", range=self.range_id)
            self._c_commits.value += 1
            leader = self.leader
            self._last_committed = leader.log[index - 1]
            leader.known_commit_index = index
            self._apply_ready(leader)
            inflight = self._inflight.pop(index, None)
            if inflight is not None:
                if inflight[2] is leader.log[index - 1]:
                    self._settle(inflight)
                else:
                    # A divergent branch's entry won this index; the
                    # original proposal was lost in a failover.
                    self._settle(inflight, RangeUnavailableError(
                        f"r{self.range_id}: proposal {index} superseded "
                        f"after failover"))
            # No message of its own: followers learn the new commit index
            # from the next append (or side-transport tick) they receive.
            nxt = self._inflight.get(index + 1)
            if nxt is None:
                break
            if self._live_quorum_acks(index + 1, nxt[1]) < self.quorum_size():
                break
            index += 1

    def _send_commit_update(self, leader: PeerState, peer: PeerState,
                            index: int) -> None:
        llog = leader.log
        entry = (llog[index - 1]
                 if 0 < index <= (llog[-1].index if llog else 0) else None)
        if self.coalesce_ms is not None:
            batch = self._outbox_for(leader, peer)
            if batch["commit"] is None or index > batch["commit"][0]:
                batch["commit"] = (index, entry)
            return

        self.network.send(leader.node, peer.node, self._learn_commit,
                          peer, index, entry)

    def _learn_commit(self, peer: PeerState, index: int,
                      entry: Optional[Entry]) -> None:
        """Advance a peer's known commit index — but only if its log
        actually holds the committed entry at that index.  A replica
        with a stale (replaced-after-failover) entry there must resync
        first, or it would apply the wrong command."""
        if index > peer.known_commit_index:
            log = peer.log
            if entry is None or ((log[-1].index if log else 0) >= index
                                 and log[index - 1] is entry):
                peer.known_commit_index = index
        self._apply_ready(peer)

    def _apply_ready(self, peer: PeerState) -> None:
        """Apply every log entry that is both local and known-committed."""
        log = peer.log
        limit = peer.known_commit_index
        if not log:
            return
        if log[-1].index < limit:
            limit = log[-1].index
        while peer.applied_index < limit:
            entry = log[peer.applied_index]
            self.apply_fn(peer.node, entry.command)
            peer.applied_index = entry.index
            if entry.closed_ts > peer.closed_ts:
                peer.closed_ts = entry.closed_ts

    # -- closed-timestamp side transport -------------------------------------

    def closed_ts_updates(self, closed_ts: Timestamp) -> List[tuple]:
        """This group's share of a side-transport tick: advance the
        leader's own closed timestamp and return one ``(group, peer,
        closed_ts, commit_index, last_committed)`` per follower — the
        arguments of :meth:`_deliver_closed_ts` at the far end.  The
        per-node-pair transport (``repro.kv.sidetransport``) packs the
        updates of every range two nodes share into one message."""
        leader = self.leader
        if closed_ts > leader.closed_ts:
            leader.closed_ts = closed_ts
        commit_index = self.commit_index
        last_committed = self._last_committed
        return [(self, peer, closed_ts, commit_index, last_committed)
                for peer in self.peers.values() if peer is not leader]

    def broadcast_closed_ts(self, closed_ts: Timestamp) -> None:
        """Ship this group's closed-timestamp heartbeat on its own, one
        message per follower.

        The per-range form of the side transport: coalescing groups fold
        the update into their per-peer batch; every other range rides
        the shared per-node-pair transport instead.
        """
        leader = self.leader
        leader_node = leader.node
        coalesce = self.coalesce_ms
        send = self.network.send
        for update in self.closed_ts_updates(closed_ts):
            peer = update[1]
            if coalesce is not None:
                batch = self._outbox_for(leader, peer)
                closed = batch["closed"]
                if closed is None or closed_ts > closed[0]:
                    batch["closed"] = update[2:]
                continue
            send(leader_node, peer.node, self._deliver_closed_ts, *update[1:])

    def _deliver_closed_ts(self, peer: PeerState, ts: Timestamp,
                           commit: int, committed: Optional[Entry]) -> None:
        self._learn_commit(peer, commit, committed)
        # Valid only if the peer is caught up on application; otherwise
        # it would claim data it does not yet have.
        if peer.applied_index >= commit and ts > peer.closed_ts:
            mon = self.network.clock_monitor
            if mon is None or mon.accepts_closed_ts(peer.node, ts):
                peer.closed_ts = ts
