"""Closed-timestamp policies (paper §5.1.1 and §6.2.1).

A closed timestamp is the leaseholder's promise not to accept further
writes at or below that MVCC timestamp.  Two policies exist:

* ``LAG``: close ~3 s in the past.  Default for REGIONAL tables; recent
  enough for useful follower reads, old enough to avoid interfering with
  foreground read-write transactions.
* ``LEAD``: close *in the future* by
  ``L_raft + L_replicate + max_clock_offset``.  Used by GLOBAL tables so
  that by the time the closed timestamp reaches every replica, present
  time is already closed there — enabling strongly-consistent
  present-time reads from any replica.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.clock import Timestamp

__all__ = ["ClosedTimestampPolicy", "LagPolicy", "LeadPolicy",
           "DEFAULT_CLOSED_TS_LAG_MS", "closed_ts_within_contract"]

#: CRDB's default ``kv.closed_timestamp.target_duration``.
DEFAULT_CLOSED_TS_LAG_MS = 3000.0


def closed_ts_within_contract(closed_ts: "Timestamp", local_physical: float,
                              max_offset: float,
                              slack_ms: float = 200.0) -> bool:
    """Receiver-side sanity check on an incoming closed timestamp.

    A *non-synthetic* closed timestamp claims real time has reached it.
    If it sits further ahead of the receiving follower's clock than
    ``max_offset`` plus flight slack, the leaseholder that emitted it
    must have a clock outside the tolerated bound (e.g. a forward jump
    turning its LAG targets into future time) — accepting it would let
    the follower serve "past" reads at timestamps nobody has reached.
    Synthetic (LEAD-policy) targets promise nothing about wall time and
    always pass.  Used by the clock-safety monitor when one is
    installed; the legacy path skips the check entirely.
    """
    if closed_ts.synthetic:
        return True
    return closed_ts.physical <= local_physical + max_offset + slack_ms


class ClosedTimestampPolicy:
    """Computes the closed-timestamp target for new proposals.

    Policies are consulted on every proposal and every side-transport
    tick (each tick is one ordinary timer event on the simulator's
    heap), so the concrete policies are frozen ``slots`` values:
    immutable, dict-free, shareable across ranges.
    """

    __slots__ = ()

    def target(self, now: Timestamp) -> Timestamp:
        raise NotImplementedError

    @property
    def leads(self) -> bool:
        """Does this policy close future time?"""
        return False


@dataclass(frozen=True, slots=True)
class LagPolicy(ClosedTimestampPolicy):
    """Close ``lag_ms`` behind present time (REGIONAL tables)."""

    lag_ms: float = DEFAULT_CLOSED_TS_LAG_MS

    def target(self, now: Timestamp) -> Timestamp:
        return Timestamp(now.physical - self.lag_ms, 0)


@dataclass(frozen=True, slots=True)
class LeadPolicy(ClosedTimestampPolicy):
    """Close ``lead_ms`` ahead of present time (GLOBAL tables).

    ``lead_ms`` should be ``L_raft + L_replicate + max_clock_offset``;
    :meth:`for_range` computes that from a range's actual topology, which
    is how CRDB estimates its ``lead time for global reads``.
    """

    lead_ms: float

    @property
    def leads(self) -> bool:
        return True

    def target(self, now: Timestamp) -> Timestamp:
        return Timestamp(now.physical + self.lead_ms, 0, synthetic=True)

    @staticmethod
    def for_range(raft_latency_ms: float, replicate_latency_ms: float,
                  max_clock_offset: float,
                  side_transport_interval_ms: float = 200.0,
                  skew_allowance_ms: float = 0.0,
                  slack_ms: float = 5.0) -> "LeadPolicy":
        """Build the policy from measured range latencies (paper §6.2.1).

        Beyond the paper's headline formula
        (``L_raft + L_replicate + max_clock_offset``) the target must
        absorb the closed-timestamp side-transport period (an idle
        follower's closed timestamp is up to one interval stale) and the
        *actual* clock skew between the leaseholder closing time and the
        reader computing its uncertainty limit.  CRDB sizes its
        ``lead-for-global-reads`` target the same way, which is why the
        paper measures 500-600 ms GLOBAL write latency at
        ``max_clock_offset = 250 ms``.
        """
        lead = (raft_latency_ms + replicate_latency_ms + max_clock_offset
                + side_transport_interval_ms + skew_allowance_ms + slack_ms)
        return LeadPolicy(lead_ms=lead)
