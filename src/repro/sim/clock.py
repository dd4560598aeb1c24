"""Hybrid logical clocks (HLC), MVCC timestamps, and the clock model.

Every node owns an :class:`HLC` backed by a skewed view of simulated
time.  The database *assumes* that any two node clocks differ by at
most ``max_clock_offset`` — exactly the assumption CockroachDB makes of
NTP-disciplined clocks.  The :class:`ClockModel` draws each node a
fixed base offset within that bound, but the bound is a testable
contract, not an axiom: the chaos nemesis can violate it at runtime
with piecewise drift rates, step jumps (forward or backward), and
frozen clocks, all per node.
The clock-safety subsystem (``repro.cluster.clocksync``) is what
detects and fences the resulting outliers.

Timestamps are (physical ms, logical counter) pairs with an additional
``synthetic`` bit.  Synthetic timestamps do not promise that any clock
has reached them; they are produced by future-time (GLOBAL-table)
writes and by lead closed timestamps.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from .core import Future, Simulator

__all__ = ["Timestamp", "HLC", "ClockModel", "TS_ZERO", "TS_MAX"]


class Timestamp:
    """An MVCC timestamp: physical milliseconds plus a logical tiebreak.

    A hand-rolled ``__slots__`` class rather than a frozen dataclass:
    timestamps are minted on every HLC tick and compared on every MVCC
    read, and frozen-dataclass construction (``object.__setattr__`` per
    field) was a measurable share of the hot path.  Treat instances as
    immutable — they are hashed and shared.
    """

    __slots__ = ("physical", "logical", "synthetic")

    def __init__(self, physical: float, logical: int = 0,
                 synthetic: bool = False):
        self.physical = physical
        self.logical = logical
        self.synthetic = synthetic

    def key(self):
        return (self.physical, self.logical)

    # Comparisons are lexicographic on (physical, logical) — written out
    # field-by-field because these run on every MVCC read and Raft step,
    # and building two key() tuples per compare dominates the cost.

    def __lt__(self, other: "Timestamp") -> bool:
        if self.physical != other.physical:
            return self.physical < other.physical
        return self.logical < other.logical

    def __le__(self, other: "Timestamp") -> bool:
        if self.physical != other.physical:
            return self.physical < other.physical
        return self.logical <= other.logical

    def __gt__(self, other: "Timestamp") -> bool:
        if self.physical != other.physical:
            return self.physical > other.physical
        return self.logical > other.logical

    def __ge__(self, other: "Timestamp") -> bool:
        if self.physical != other.physical:
            return self.physical > other.physical
        return self.logical >= other.logical

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return (self.physical == other.physical
                and self.logical == other.logical)

    def __hash__(self) -> int:
        return hash(self.key())

    def next(self) -> "Timestamp":
        """The smallest timestamp strictly greater than this one."""
        return Timestamp(self.physical, self.logical + 1, self.synthetic)

    def prev(self) -> "Timestamp":
        if self.logical > 0:
            return Timestamp(self.physical, self.logical - 1, self.synthetic)
        return Timestamp(self.physical - 1e-6, 1 << 30, self.synthetic)

    def add(self, delta_ms: float) -> "Timestamp":
        """This timestamp shifted ``delta_ms`` into the future (synthetic)."""
        return Timestamp(self.physical + delta_ms, self.logical,
                         synthetic=self.synthetic or delta_ms > 0)

    def with_synthetic(self, synthetic: bool) -> "Timestamp":
        return Timestamp(self.physical, self.logical, synthetic)

    def __repr__(self) -> str:
        mark = "?" if self.synthetic else ""
        return f"{self.physical:.3f},{self.logical}{mark}"


TS_ZERO = Timestamp(0.0, 0)
TS_MAX = Timestamp(float("inf"), 0)


class _NodeClockFault:
    """Dynamic fault state for one node's clock (nemesis-injected)."""

    __slots__ = ("drift_rate", "drift_anchor", "drift_accum", "jump_ms",
                 "frozen_value")

    def __init__(self, anchor: float):
        self.drift_rate = 0.0       # clock-ms gained per sim-ms
        self.drift_anchor = anchor  # sim time the current rate started
        self.drift_accum = 0.0      # error accumulated by previous rates
        self.jump_ms = 0.0          # net step adjustment
        self.frozen_value = None    # frozen physical reading, or None


class ClockModel:
    """Per-node clock offsets within the tolerated bound, plus faults.

    Base offsets are drawn uniformly from ``[-max_offset/2, +max_offset/2]``
    scaled by ``skew_fraction`` so any pairwise difference is at most
    ``max_offset``, matching the paper's ``max_clock_offset`` contract
    (real deployments are usually well inside the bound).

    Offsets are precomputed eagerly at construction, in node-id order,
    so the assignment depends only on ``(seed, node_id)`` — never on
    which code path happens to query a node's clock first.  Ids beyond
    the preallocated bank extend it deterministically; non-positive ids
    (ad-hoc test clocks) get a stable per-id derived draw.

    On top of the static assignment sits the nemesis surface: per-node
    piecewise *drift* rates, step *jumps* (either direction), and
    *frozen* clocks, every one schedulable as a chaos ``FaultEvent``.
    Nodes without injected faults never touch the dynamic path, so
    legacy runs are byte-identical.
    """

    #: Offsets preallocated at construction (covers every built-in
    #: topology; larger clusters extend the bank deterministically).
    PREALLOC_NODES = 64

    def __init__(self, max_offset: float, seed: int = 0,
                 skew_fraction: float = 0.5,
                 sim: Optional[Simulator] = None):
        if not 0.0 <= skew_fraction <= 1.0:
            raise ValueError("skew_fraction must be within [0, 1]")
        self.max_offset = max_offset
        self.skew_fraction = skew_fraction
        self._seed = seed
        self._half = max_offset * skew_fraction / 2.0
        self._rng = random.Random(seed)
        self._bank = []
        self._fringe: Dict[int, float] = {}
        self._dynamic: Dict[int, _NodeClockFault] = {}
        self._sim = sim
        self._extend_bank(self.PREALLOC_NODES)

    # -- static offsets -----------------------------------------------------

    def _extend_bank(self, upto: int) -> None:
        bank = self._bank
        half = self._half
        while len(bank) < upto:
            bank.append(self._rng.uniform(-half, half) if half > 0.0 else 0.0)

    def offset_for(self, node_id: int) -> float:
        """The node's base (fault-free) offset from true simulated time."""
        if node_id >= 1:
            bank = self._bank
            if node_id > len(bank):
                self._extend_bank(node_id)
            return bank[node_id - 1]
        off = self._fringe.get(node_id)
        if off is None:
            rng = random.Random(self._seed * 1_000_003 + node_id * 7919)
            off = rng.uniform(-self._half, self._half) if self._half else 0.0
            self._fringe[node_id] = off
        return off

    # -- clock readings -----------------------------------------------------

    def physical_now(self, node_id: int, now: float) -> float:
        """The node's physical clock reading at sim time ``now``."""
        fault = self._dynamic.get(node_id)
        if fault is None:
            return now + self.offset_for(node_id)
        if fault.frozen_value is not None:
            return fault.frozen_value
        return (now + self.offset_for(node_id) + fault.jump_ms
                + fault.drift_accum
                + fault.drift_rate * (now - fault.drift_anchor))

    def effective_offset(self, node_id: int) -> float:
        """Current total offset (base + injected faults) from sim time."""
        now = self._now()
        return self.physical_now(node_id, now) - now

    def is_faulted(self, node_id: int) -> bool:
        return node_id in self._dynamic

    # -- nemesis surface ----------------------------------------------------

    def _now(self) -> float:
        if self._sim is None:
            raise RuntimeError(
                "ClockModel has no simulator bound; clock faults need one")
        return self._sim.now

    def _state(self, node_id: int) -> _NodeClockFault:
        fault = self._dynamic.get(node_id)
        if fault is None:
            fault = self._dynamic[node_id] = _NodeClockFault(self._now())
        return fault

    def set_drift(self, node_id: int, rate: float) -> None:
        """Start drifting: the clock gains ``rate`` ms per sim ms.

        Negative rates drift backward relative to true time.  Error
        accumulated under previous rates is retained (piecewise drift).
        """
        now = self._now()
        fault = self._state(node_id)
        fault.drift_accum += fault.drift_rate * (now - fault.drift_anchor)
        fault.drift_anchor = now
        fault.drift_rate = rate

    def clear_drift(self, node_id: int) -> None:
        """Stop drifting; error accumulated so far remains."""
        if node_id in self._dynamic:
            self.set_drift(node_id, 0.0)

    def jump(self, node_id: int, delta_ms: float) -> None:
        """Step the node's clock by ``delta_ms`` (either direction)."""
        fault = self._state(node_id)
        if fault.frozen_value is not None:
            fault.frozen_value += delta_ms
        else:
            fault.jump_ms += delta_ms

    def freeze(self, node_id: int) -> None:
        """Stop the node's clock dead at its current reading."""
        fault = self._state(node_id)
        if fault.frozen_value is None:
            fault.frozen_value = self.physical_now(node_id, self._now())

    def unfreeze(self, node_id: int) -> None:
        """Resume the clock *from the frozen value* — the node stays
        behind true time by however long it was frozen."""
        fault = self._dynamic.get(node_id)
        if fault is None or fault.frozen_value is None:
            return
        frozen = fault.frozen_value
        fault.frozen_value = None
        fault.jump_ms -= self.physical_now(node_id, self._now()) - frozen

    def heal(self, node_id: int) -> None:
        """Discard all injected faults (models an NTP step-resync back
        to the node's base offset, e.g. on process restart)."""
        self._dynamic.pop(node_id, None)

    def heal_all(self) -> None:
        self._dynamic.clear()


class HLC:
    """A hybrid logical clock owned by a single node.

    ``physical_now`` is the node's (possibly skewed or faulted) view of
    wall time; ``now()`` returns monotone HLC readings, and ``update``
    folds in timestamps observed on received messages, per the HLC
    algorithm.
    """

    def __init__(self, sim: Simulator, node_id: int,
                 skew: Optional[ClockModel] = None):
        self.sim = sim
        self.node_id = node_id
        self._skew = skew
        if skew is not None and skew._sim is None:
            skew._sim = sim
        self._last = TS_ZERO

    @property
    def max_offset(self) -> float:
        return self._skew.max_offset if self._skew is not None else 0.0

    def physical_now(self) -> float:
        skew = self._skew
        if skew is None:
            return self.sim.now
        return skew.physical_now(self.node_id, self.sim.now)

    def now(self) -> Timestamp:
        physical = self.physical_now()
        if physical > self._last.physical:
            self._last = Timestamp(physical, 0)
        else:
            self._last = Timestamp(self._last.physical, self._last.logical + 1)
        return self._last

    def update(self, observed: Timestamp) -> Timestamp:
        """Advance the clock past a timestamp seen on an incoming message.

        Synthetic timestamps deliberately do *not* advance the clock:
        they carry no claim that real time has reached them.
        """
        if not observed.synthetic and observed > self._last:
            self._last = Timestamp(observed.physical, observed.logical)
        return self.now()

    def wait_until(self, target: Timestamp) -> Future:
        """Future resolving once this clock's physical time passes ``target``.

        This is *commit wait*: the caller blocks until every clock in the
        system is guaranteed to be within ``max_offset`` of ``target``.
        Re-armed on every wakeup rather than scheduled once — under a
        dynamic clock (backward jump, frozen clock, slow drift) a single
        fixed-delay wakeup could fire before the clock actually passes
        ``target``, silently shortening commit-wait.
        """
        fut = Future(self.sim)
        waited = 0.0

        def arm() -> None:
            nonlocal waited
            wait_ms = target.physical - self.physical_now()
            if wait_ms <= 1e-9:
                fut.resolve(waited)
                return
            waited += wait_ms
            self.sim.call_after(wait_ms, arm)

        arm()
        return fut
