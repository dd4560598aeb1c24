"""Seeded random transaction generator + verification harness.

One :class:`VerifyHarness` run drives a mixed list-append / register
workload — multi-key serializable transactions with Zipf-skewed key
choice (via :mod:`repro.workloads.zipf`) plus exact- and
bounded-staleness readers — over three tables covering every locality
the paper describes:

* ``reg-us``  — REGIONAL, homed in the primary region;
* ``reg-eu``  — REGIONAL, homed elsewhere (the REGIONAL BY ROW shape:
  some rows' leaseholders are always remote for some clients);
* ``glob``    — GLOBAL (future-time closed timestamps + commit wait).

A run executes one row of :data:`SCENARIOS` — the one table of fault
scenarios: a nemesis (a fault schedule from :mod:`repro.chaos.faults`,
or one that is not: load, a reshaping keyspace, a clock jump), what the
row switches on (repair, rebalancing, the clock monitor) and, for an
ablation, one safety mechanism switched off.  It records everything
through :class:`~repro.verify.recorder.HistoryRecorder`, ends with a
cross-region strong audit, and hands the frozen history to the pure
checkers; the row's ``audit`` then checks what the history cannot show
(the keyspace's structure, placement after repair, clock fences).
Everything is deterministic from ``(scenario, seed)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..admission import AdmissionConfig, install_admission
from ..chaos import faults
from ..chaos.nemesis import FaultEvent
from ..errors import (ConditionFailedError, DeadlineExceededError,
                      OverloadError, StaleReadBoundError)
from ..harness.testbed import OK, RETRYABLE, Testbed
from ..kv.distsender import ReadRouting
from ..placement import placement_violations
from ..sim.clock import Timestamp
from ..txn import TransactionCoordinator
from ..workloads.zipf import ZipfGenerator
from .checker import VerifyReport, check
from .history import ABORTED, COMMITTED, INDETERMINATE, VerifyHistory
from .recorder import HistoryRecorder

__all__ = ["VerifyHarness", "VerifyResult", "VerifyScenario", "SCENARIOS",
           "run_verify"]

#: Fresh keys (on the primary REGIONAL range) the insert clients race
#: for; never initialised, never touched by the other clients.
INSERT_KEYS = tuple(f"i{n}" for n in range(6))

#: How far beyond the 250 ms contract the jump scenarios step a clock.
#: Sized so the stale window survives transaction latency: an acked
#: future-time write is invisible to honest readers for roughly
#: ``jump - txn_duration - max_clock_offset`` — WAN commits eat ~600 ms
#: and uncertainty covers another 250 ms, so 2 s leaves a window the
#: probes cannot miss.
CLOCK_JUMP_MS = 2000.0

#: The anomaly types an undefended beyond-bound clock can legitimately
#: produce: recency (real-time) and staleness violations.  Anything
#: outside this set — a serializability break — fails even the
#: fencing-disabled ablation.
REALTIME_ANOMALY_TYPES = frozenset({
    "stale-strong-read", "stale-read-too-new", "staleness-missed-write",
    "non-monotonic-session", "staleness-bound-violated",
})

#: An ablation's (allowed, required) anomaly classes: the run passes iff
#: the checker reports at least one ``required`` anomaly and none
#: outside ``allowed`` — proof the nemesis draws blood with the defense
#: off, and that nothing worse than what it permits appears.
Verdict = Tuple[FrozenSet[str], FrozenSet[str]]

#: Overload verify-scenario knobs: background Poisson arrivals per
#: region against the home range, the gateway rate each region's "bg"
#: tenant is admitted at, and the deadlines that trigger shedding.
#: The home store models 1000 ops/s (2 slots x 2ms), so three regions
#: at 500/s offer 1.5x capacity.
OVERLOAD_BG_RATE_PER_S = 500.0
OVERLOAD_BG_ADMIT_RATE_PER_S = 400.0
OVERLOAD_BG_DEADLINE_MS = 300.0
OVERLOAD_TXN_DEADLINE_MS = 1500.0
OVERLOAD_WINDOW_MS = 5000.0

#: REGIONAL tables close timestamps this far behind present time; kept
#: well under the run length so stale readers exercise follower serving
#: rather than always falling back to leaseholders.
CLOSED_TS_LAG_MS = 400.0

STALE_RETRYABLE = RETRYABLE + (StaleReadBoundError,)

#: Width of one row of the availability timeline :meth:`VerifyResult.render`
#: prints.
TIMELINE_BUCKET_MS = 250.0


def _audit_structure(harness) -> List[str]:
    """Every row's audit: the keyspace's structural audit and, where a
    repair queue ran, every range's placement against its zone config
    (constraints, diversity, lease) on the nodes that are left."""
    violations = harness.cluster.keyspace.violations()
    if harness.repair_queue is not None:
        for name in sorted(harness.ranges):
            for rng in harness.ranges[name].span.ranges():
                violations += placement_violations(
                    rng, harness.configs[name], harness.cluster,
                    harness.liveness)
    return violations


def _fences(expected: bool) -> Callable[[Any], List[str]]:
    """The structural audit, plus: the clock monitor fenced a node iff
    ``expected`` — a beyond-bound fault must fence its victim, and
    in-contract skew must fence no one."""
    def audit(harness) -> List[str]:
        violations = _audit_structure(harness)
        fenced = sorted({node for _when, node, _worst
                         in harness.clock_monitor.fence_events})
        if expected and not fenced:
            violations.append("clock: no node self-fenced despite a "
                              "beyond-bound clock fault")
        elif fenced and not expected:
            violations.append(f"clock: unexpected self-fence of node(s) "
                              f"{fenced} under in-bounds clock faults")
        return violations
    return audit


@dataclass(frozen=True)
class VerifyScenario:
    """One row of :data:`SCENARIOS`: the nemesis, what the run switches
    on (or, for an ablation, off), and how the run is judged."""

    doc: str
    #: harness -> fault schedule, armed as the clients start.
    faults: Optional[Callable[[Any], List[FaultEvent]]] = None
    #: harness -> None, after the initial settle and before the nemesis:
    #: a nemesis that is not a fault schedule, the clock monitor, or an
    #: ablation's off-switch (plus the probe that makes its damage
    #: certain).
    setup: Optional[Callable[[Any], None]] = None
    #: Recency probe clients run beside the regular ones.
    probes: bool = False
    #: At least this many insert clients.
    inserters: int = 0
    #: Whether the final heal restarts nodes the nemesis left dead.
    restart_dead: bool = True
    #: The one backend the row runs on (None: any).
    protocol: Optional[str] = None
    #: None: the run must be anomaly-free.
    verdict: Optional[Verdict] = None
    #: Which sweeps list the row: "crdb" / "epoch-occ" (``verify
    #: --scenario all`` and the farm, per backend), "clock" and "repair"
    #: (``verify --scenario clock|repair``).
    sweeps: Tuple[str, ...] = ()
    #: harness -> violations, after the final heal: what the history
    #: cannot show.  The run is ok only if it returns none.
    audit: Callable[[Any], List[str]] = _audit_structure


@dataclass
class VerifyResult:
    """A verification run: the recorded history plus its verdict."""

    scenario: str
    seed: int
    history: VerifyHistory
    report: VerifyReport
    duration_ms: float
    stats: Dict[str, Any] = field(default_factory=dict)
    #: The row's :attr:`VerifyScenario.verdict` (None: the run must be
    #: anomaly-free).
    verdict: Optional[Verdict] = None
    #: What the row's :attr:`VerifyScenario.audit` found.
    audit: List[str] = field(default_factory=list)
    #: ``(at_ms, action, what)``: the nemesis's injects and heals, clock
    #: fences and liveness transitions (text only: :meth:`render`).
    timeline: List[Tuple[float, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        if self.audit:
            return False
        if self.verdict is None:
            return self.report.ok
        allowed, required = self.verdict
        types = {a.type for a in self.report.anomalies}
        return bool(types & required) and types <= allowed

    def to_json(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "expect_anomalies": self.verdict is not None,
            "duration_ms": round(self.duration_ms, 1),
            "stats": dict(self.stats),
            "audit": list(self.audit),
            "report": self.report.to_json(),
        }

    def render(self) -> str:
        lines = [
            f"verify scenario {self.scenario!r} (seed={self.seed}) — "
            f"{self.stats.get('txns_recorded', 0)} txns in "
            f"{self.duration_ms:.0f}ms sim",
            "  stats: " + ", ".join(
                f"{key}={value}"
                for key, value in sorted(self.stats.items())),
            "timeline:",
            self._render_timeline(),
            self.report.render(),
            f"audit: {'OK' if not self.audit else 'VIOLATIONS'} "
            f"({len(self.audit)} violations)",
        ]
        lines += [f"  !! {violation}" for violation in self.audit]
        if self.verdict is not None:
            lines.append(
                "  ablation verdict: " +
                ("OK — the checker convicted the disabled defense"
                 if self.ok else
                 "FAIL — the expected anomalies were not detected "
                 "(or disallowed ones appeared)"))
        return "\n".join(lines)

    def _render_timeline(self) -> str:
        """Availability per :data:`TIMELINE_BUCKET_MS` of transaction
        end time — committed, aborted and indeterminate attempts and the
        committed ones' mean latency — with the timeline's events marked
        on the bucket they fall in."""
        buckets: Dict[int, List[Any]] = {}
        for txn in self.history.txns:
            if txn.end_ms is not None:
                buckets.setdefault(int(txn.end_ms // TIMELINE_BUCKET_MS),
                                   []).append(txn)
        marks: Dict[int, List[str]] = {}
        for when, action, what in self.timeline:
            marks.setdefault(int(when // TIMELINE_BUCKET_MS), []).append(
                f"{action} {what}")
        lines = ["  t(ms)     ok abrt amb  mean-lat  events"]
        for index in sorted(buckets):
            counts = {COMMITTED: 0, ABORTED: 0, INDETERMINATE: 0}
            latencies = []
            for txn in buckets[index]:
                counts[txn.status] += 1
                if txn.status == COMMITTED:
                    latencies.append(txn.end_ms - txn.begin_ms)
            ok, aborted = counts[COMMITTED], counts[ABORTED]
            mean = sum(latencies) / len(latencies) if latencies else 0.0
            bar = "#" * min(ok, 30) + "x" * min(aborted, 10)
            note = "; ".join(marks.pop(index, []))
            lines.append(
                f"  {index * TIMELINE_BUCKET_MS:8.0f} {ok:4d} {aborted:4d} "
                f"{counts[INDETERMINATE]:3d} {mean:8.1f}ms  {bar}"
                f"{('  <- ' + note) if note else ''}")
        for index in sorted(marks):
            lines.append(f"  {index * TIMELINE_BUCKET_MS:8.0f}  (no txns)"
                         f"          <- {'; '.join(marks[index])}")
        return "\n".join(lines)


class VerifyHarness(Testbed):
    """Cluster + three localized ranges + recorder + seeded clients."""

    def __init__(self, seed: int, protocol=None):
        super().__init__(seed, protocol=protocol,
                         rng_seed=(seed << 5) ^ 0x5EED)
        #: The cluster's backend (background load runs it too).
        self.protocol = self.coord.protocol
        self.recorder = HistoryRecorder(self.cluster.sim)
        self.coord.recorder = self.recorder
        self.recorder.meta["protocol"] = self.protocol.name
        secondary = next(r for r in self.regions if r != self.home)
        #: Zone config per range name (a repair queue manages the ranges
        #: by them, and the audit checks their placement against them).
        self.configs: Dict[str, Any] = {}

        def make_range(name: str, range_home: str,
                       global_reads: bool = False):
            config = self.configs[name] = self.zone_config(range_home)
            return self.provision(
                name, config, global_reads=global_reads,
                closed_ts_lag_ms=None if global_reads else CLOSED_TS_LAG_MS)

        self.ranges = {
            "reg-us": make_range("reg-us", self.home),
            "reg-eu": make_range("reg-eu", secondary),
            "glob": make_range("glob", self.home, global_reads=True),
        }
        #: The range nemesis fault builders target (leaseholder /
        #: follower victims): the primary REGIONAL range.
        self.range = self.ranges["reg-us"]
        #: (range, key, kind) for every workload key: two list-append
        #: and two register keys per table.
        self.keys: List[Tuple[Any, str, str]] = []
        for name in sorted(self.ranges):
            rng = self.ranges[name]
            for key in ("l0", "l1"):
                self.keys.append((rng, key, "list"))
            for key in ("r0", "r1"):
                self.keys.append((rng, key, "register"))
        self.recorder.meta["keys"] = {
            f"{rng.name}/{key}": {"kind": kind,
                                  "global": rng.name == "glob"}
            for rng, key, kind in self.keys}
        #: How the strong clients route their reads, per range name:
        #: the leaseholder everywhere, unless a row's setup says
        #: otherwise (:meth:`_read_global_nearest`).
        self.routing = {name: ReadRouting.LEASEHOLDER
                        for name in self.ranges}
        #: Set by the ``overload`` scenario: per-txn deadline for the
        #: recorded clients (None = no deadline) and foreground-shed
        #: accounting.
        self.txn_deadline_ms: Optional[float] = None
        self._fg_shed = 0
        self.admission = None
        self._bg_coord = None
        self._bg_stats = {"offered": 0, "rejected": 0, "shed": 0,
                          "failed": 0, "completed": 0}
        #: Whether something reshapes the primary range's span (the
        #: split-merge driver, or a rebalance queue).
        self.elastic = False

    # -- strong transactional clients ---------------------------------------

    def _plan_fn(self, plan, label: str, sequence: List[int]):
        """The transaction body running ``plan`` — ``(table, key, kind,
        action)`` steps, action one of read / write / rmw / append /
        insert — with values unique to ``label`` and ``sequence``."""
        def txn_fn(txn):
            for step, (table, key, _kind, action) in enumerate(plan, 1):
                routing = self.routing[table.name]
                if action == "read":
                    yield from txn.read(table, key, routing=routing)
                    continue
                sequence[0] += 1
                value = f"{label}:{sequence[0]}"
                if action == "append":
                    current = yield from txn.read(table, key,
                                                  routing=routing)
                    value = list(current or []) + [value]
                elif action == "rmw":
                    yield from txn.read(table, key, routing=routing)
                # A plan that ends in a write ends in its commit; an
                # insert-if-absent step is a conditional put.
                yield from txn.write(table, key, value,
                                     commit=step == len(plan),
                                     expect_absent=action == "insert")
        return txn_fn

    def txn_client(self, label: str, region: str, gateway_index: int,
                   ops: int, think_ms=(10.0, 40.0)):
        """Mixed multi-key transactions: list appends, register
        reads/writes/RMWs, Zipf-skewed key choice."""
        gateway = self.cluster.gateway_for_region(region, gateway_index)
        rng = random.Random(self.rng.random())
        zipf = ZipfGenerator(len(self.keys), theta=0.9,
                             seed=rng.randrange(1 << 30))
        sequence = [0]
        for _ in range(ops):
            picks = sorted({zipf.next()
                            for _ in range(rng.randint(1, 3))})
            plan = []
            for index in picks:
                table, key, kind = self.keys[index]
                if kind == "list":
                    action = "append"
                else:
                    action = rng.choice(["read", "write", "rmw"])
                plan.append((table, key, kind, action))
            txn_fn = self._plan_fn(plan, label, sequence)

            deadline = (self.sim.now + self.txn_deadline_ms
                        if self.txn_deadline_ms is not None else None)
            try:
                # The outcome itself is the recorder's business
                # (indeterminate / aborted attempts land in the history).
                yield from self.attempt(gateway, txn_fn, max_attempts=6,
                                        label=label, deadline_ms=deadline,
                                        tenant=label)
            except (DeadlineExceededError, OverloadError):
                # Shed under overload: the attempt rolled back, so the
                # history records it as aborted — serializability must
                # hold regardless.
                self._fg_shed += 1
            yield self.sim.sleep(rng.uniform(*think_ms))

    # -- insert-if-absent clients -------------------------------------------

    def insert_client(self, label: str, region: str, gateway_index: int,
                      think_ms=(5.0, 25.0)):
        """Insert every key of :data:`INSERT_KEYS`, in order — so every
        insert client races the others for each key.  Even keys are a
        lone conditional put (it may commit one-phase); odd ones go on
        to a read-modify-write on the GLOBAL range, a multi-range commit
        anchored on the inserted key.  Whoever loses a key reads it
        instead: the winner's row must be there."""
        gateway = self.cluster.gateway_for_region(region, gateway_index)
        rng = random.Random(self.rng.random())
        sequence = [0]
        for index, key in enumerate(INSERT_KEYS):
            plan = [(self.range, key, "register", "insert")]
            if index % 2:
                plan.append((self.ranges["glob"], "r0", "register", "rmw"))
            try:
                yield from self.attempt(
                    gateway, self._plan_fn(plan, label, sequence),
                    max_attempts=6, label=label)
            except ConditionFailedError:
                yield from self.attempt(
                    gateway, self._plan_fn(
                        [(self.range, key, "register", "read")], label,
                        sequence),
                    max_attempts=6, label=label)
            yield self.sim.sleep(rng.uniform(*think_ms))

    # -- recency probes (clock scenarios) -----------------------------------

    def probe_client(self, label: str, region: str, gateway_index: int,
                     ops: int, think_ms=(25.0, 50.0)):
        """High-frequency single-key strong reads from one gateway.

        Clock scenarios run these alongside the regular clients: a
        beyond-bound clock opens only a narrow window (roughly the
        effective clock error minus ``max_clock_offset``) in which an
        acked future-time write is invisible to honest readers, and the
        regular Zipf workload samples each key too sparsely to hit it
        reliably.  The probes read the hottest register keys every few
        tens of milliseconds, so any recency violation the nemesis
        causes lands in the history as a committed strong read the
        real-time checker can convict.
        """
        gateway = self.cluster.gateway_for_region(region, gateway_index)
        rng = random.Random(self.rng.random())
        targets = [(self.ranges[name], key)
                   for name in ("glob", "reg-us") for key in ("r0", "r1")]
        for _ in range(ops):
            table, key = targets[rng.randrange(len(targets))]

            def txn_fn(txn, table=table, key=key):
                yield from txn.read(table, key,
                                    routing=self.routing[table.name])

            yield from self.attempt(gateway, txn_fn, max_attempts=6,
                                    label=label)
            yield self.sim.sleep(rng.uniform(*think_ms))

    # -- re-send probe (one-phase-reapply) ----------------------------------

    def reapply_probe(self, key: str = "r1"):
        """The lost reply the ``one-phase-reapply`` ablation is about,
        made certain (flaky-wan loses one only now and then, and rarely
        with another transaction inside the gap): a far-region blind
        write commits one-phase, every reply on its way back is dropped
        until a home-region read-modify-write has read it and written
        over it, and then the re-sent write is let through.  With the
        commit record in the entry the re-send is answered from it; with
        it left out the write lands a second time, above the transaction
        that read it."""
        faults = self.cluster.network.faults
        far = next(r for r in self.regions if r != self.home)
        table = self.range
        value = "probe:resent"

        def write_fn(txn):
            yield from txn.write(table, key, value, commit=True)

        def rmw_fn(txn):
            yield from txn.read(table, key)
            yield from txn.write(table, key, "probe:over", commit=True)

        faults.set_loss(self.home, far, 1.0, bidirectional=False)
        writer = self.sim.spawn(self.attempt(
            self.cluster.gateway_for_region(far), write_fn,
            label="probe-resend"))
        store = table.leaseholder_replica.store
        while store.get(key, table.leaseholder_node.clock.now()).value \
                != value:
            yield self.sim.sleep(5.0)
        yield from self.attempt(self.cluster.gateway_for_region(self.home),
                                rmw_fn, label="probe-over")
        faults.set_loss(self.home, far, 0.0, bidirectional=False)
        yield writer

    # -- lost pipelined write probe (pipeline-unproven) ---------------------

    def pipeline_probe(self, key: str = "l0"):
        """The lost write the ``pipeline-unproven`` ablation is about,
        made certain: a transaction on the home leaseholder's node writes
        the far range (its anchor), then appends to a home-range list
        with the leaseholder's links to its followers cut — a pipelined
        write — and commits.  Once the proposal has timed out the lease
        fails over to a follower that never saw the entry, so it never
        commits; the links heal, and a second transaction appends to the
        list.  With the proof the first commit retries; without it both
        commit, having read the same list."""
        faults = self.cluster.network.faults
        home, far = self.range, self.ranges["reg-eu"]
        leader = home.leaseholder_node
        followers = [node_id for node_id in home.group.peers
                     if node_id != leader.node_id]
        written: List[float] = []

        def lost_fn(txn):
            value = f"probe-pipeline:{txn.txn_id}"
            yield from txn.write(far, "r1", value)
            current = yield from txn.read(home, key)
            if not written:
                for node_id in followers:
                    faults.cut_link(leader.node_id, node_id)
            yield from txn.write(home, key, list(current or []) + [value])
            written.append(self.sim.now)

        def after_fn(txn):
            current = yield from txn.read(home, key)
            yield from txn.write(home, key, list(current or []) +
                                 [f"probe-after:{txn.txn_id}"])

        writer = self.sim.spawn(self.attempt(leader, lost_fn,
                                             label="probe-pipeline"))
        while not written:
            yield self.sim.sleep(5.0)
        yield self.sim.sleep(written[0] + home.group.proposal_timeout_ms
                             - self.sim.now)
        home.failover_lease(followers[0])
        for node_id in followers:
            faults.heal_link(leader.node_id, node_id)
        yield writer
        yield from self.attempt(leader, after_fn, label="probe-after")

    # -- stale readers ------------------------------------------------------

    def stale_client(self, label: str, region: str, gateway_index: int,
                     ops: int, think_ms=(20.0, 60.0)):
        """Exact- and bounded-staleness single-key reads (§5.3)."""
        gateway = self.cluster.gateway_for_region(region, gateway_index)
        rng = random.Random(self.rng.random())
        recorder = self.recorder
        for _ in range(ops):
            table, key, _kind = self.keys[rng.randrange(len(self.keys))]
            now = gateway.clock.now()
            exact = rng.random() < 0.5
            lag_ms = rng.uniform(*((500.0, 900.0) if exact
                                   else (700.0, 1200.0)))
            ts = Timestamp(now.physical - lag_ms)
            record = recorder.begin_stale(
                gateway, "exact" if exact else "bounded", ts, label=label)
            try:
                if exact:
                    served_ts = None
                    result = yield self.ds.exact_staleness_read(
                        gateway, table, key, ts)
                else:
                    result, served_ts = yield self.ds.bounded_staleness_read(
                        gateway, table, key, ts)
            except STALE_RETRYABLE:
                recorder.finish_stale(record, ok=False)
            else:
                recorder.on_stale_read(record, table, key, result,
                                       effective_ts=served_ts)
                recorder.finish_stale(record)
            yield self.sim.sleep(rng.uniform(*think_ms))

    # -- overload (load nemesis) --------------------------------------------

    def _start_overload(self) -> None:
        """The nemesis is load, not faults: install admission control
        (the store work queues now gate every command), give the
        recorded clients deadlines, and start saturating background
        arrivals against the home store."""
        self.admission = install_admission(self.cluster, AdmissionConfig(
            rate_per_s=OVERLOAD_BG_ADMIT_RATE_PER_S,
            burst=16.0, max_queue_depth=64,
            store_slots=2, store_service_ms=2.0))
        self.txn_deadline_ms = OVERLOAD_TXN_DEADLINE_MS
        # Unrecorded coordinator for the background load: its txns must
        # not enter the verified history (they touch only bg* keys).
        self._bg_coord = TransactionCoordinator(self.cluster)
        end_ms = self.sim.now + OVERLOAD_WINDOW_MS
        for index, region in enumerate(self.regions):
            self.sim.spawn(self._bg_arrivals(region, index, end_ms),
                           name=f"bg-arrivals-{region}")

    def _bg_request(self, region: str, index: int, rng: random.Random):
        """One open-loop background request: gateway admission, then a
        single bg-key read or write on the home range with a tight
        deadline.  Outcomes only feed the run stats."""
        stats = self._bg_stats
        stats["offered"] += 1
        gateway = self.cluster.gateway_for_region(region, index % 2)
        deadline = self.sim.now + OVERLOAD_BG_DEADLINE_MS
        try:
            yield from self.admission.admit_co("bg", region,
                                               deadline_ms=deadline)
        except OverloadError:
            stats["rejected"] += 1
            return
        except DeadlineExceededError:
            stats["shed"] += 1
            return
        table = self.ranges["reg-us"]
        key = f"bg{rng.randrange(32)}"
        is_write = rng.random() < 0.5
        value = f"bg:{region}:{stats['offered']}"

        def txn_fn(txn):
            if is_write:
                yield from txn.write(table, key, value, commit=True)
            else:
                yield from txn.read(table, key)

        try:
            status, _value, _error = yield from self.attempt(
                gateway, txn_fn, coord=self._bg_coord, max_attempts=4,
                label="bg", deadline_ms=deadline, tenant="bg")
        except (DeadlineExceededError, OverloadError):
            stats["shed"] += 1
            return
        stats["completed" if status == OK else "failed"] += 1

    def _bg_arrivals(self, region: str, index: int, end_ms: float):
        """Poisson arrival process for one region's background load."""
        rng = random.Random((self.seed << 7) ^ (0x0AD0 + index))
        count = 0
        while True:
            gap_ms = rng.expovariate(OVERLOAD_BG_RATE_PER_S) * 1000.0
            yield self.sim.sleep(gap_ms)
            if self.sim.now >= end_ms:
                return
            self.sim.spawn(self._bg_request(region, count, rng),
                           name=f"bg-{region}-{count}")
            count += 1

    # -- split/merge (elastic keyspace nemesis) -----------------------------

    def _start_split_merge(self) -> None:
        """Start :meth:`_split_merge_driver` for the next 6 s."""
        self.elastic = True
        self.sim.spawn(self._split_merge_driver(self.sim.now + 6000.0),
                       name="split-merge-driver")

    def _split_under_load(self) -> None:
        """A rebalance queue manages the primary range's span, with
        thresholds scaled to a handful of hot keys: the range
        size-splits at once (more than two keys) and the hot keys drive
        load splits during the run."""
        self.elastic = True
        self.enable_rebalance(
            self.range, self.configs["reg-us"],
            split_max_keys=2, split_qps=8.0, merge_qps=0.5,
            merge_patience=3, replica_moves=False)

    def _split_merge_driver(self, end_ms: float):
        """The keyspace nemesis: force a split at every workload key
        boundary, dwell, then merge everything back — all while the
        recorded clients keep committing.  Every descriptor-generation
        bump races live transactions and stale readers and must stay
        invisible to the serializability/staleness checkers."""
        from ..kv.keyspace import encode_key
        sim, keyspace, span = (self.sim, self.cluster.keyspace,
                               self.range.span)
        yield sim.sleep(200.0)
        for key in ("l1", "r0", "r1"):
            while sim.now < end_ms:
                descriptor = span.descriptor_for_key(key)
                if descriptor.start_key == encode_key(key):
                    break  # already a boundary
                try:
                    keyspace.split(descriptor, key, trigger="forced")
                    break
                except ValueError:
                    # Mid-failover (no lease): retry shortly.
                    yield sim.sleep(100.0)
            yield sim.sleep(250.0)
        yield sim.sleep(500.0)
        while sim.now < end_ms and len(span.descriptors) > 1:
            merged = False
            for left, right in zip(span.descriptors,
                                   span.descriptors[1:]):
                if keyspace.can_merge(left, right):
                    keyspace.merge(left, right)
                    merged = True
                    break
            # Locks drain / lease settles between attempts.
            yield sim.sleep(150.0 if merged else 100.0)

    # -- clock-fault scenarios ----------------------------------------------

    def _clock_jump(self) -> List[FaultEvent]:
        """Step the home region's second gateway's clock beyond the
        contract: its clients stamp transactions with *its* clock, so
        the jump produces future-time write timestamps on every range."""
        clock = self.cluster.clock
        victim = self.cluster.gateway_for_region(self.home, 1).node_id
        return [FaultEvent(
            name=f"clock-jump:n{victim}",
            at_ms=250.0,
            inject=lambda: clock.jump(victim, CLOCK_JUMP_MS))]

    def _defend_clock(self) -> None:
        """The clock-safety monitor plus the liveness machinery:
        heartbeats carry the clock readings the monitor measures with,
        and the replicate queue repairs around a fenced victim."""
        self.enable_clock_monitor()
        self._repair_every_range()

    # -- self-healing ---------------------------------------------------------

    def _repair_every_range(self) -> None:
        """Store liveness plus a replicate queue managing all three
        ranges by their zone configs."""
        self.enable_repair((self.ranges[name], self.configs[name])
                           for name in sorted(self.ranges))

    # -- read routing -------------------------------------------------------

    def _read_global_nearest(self) -> None:
        """The strong clients read the GLOBAL range the way SQL does:
        routed to the nearest replica, which serves a present-time read
        locally (its closed timestamps lead present time)."""
        self.routing["glob"] = ReadRouting.NEAREST

    # -- ablation off-switches ----------------------------------------------

    def _undefend_clock(self) -> None:
        """The identical setup with fencing off: offsets are still
        measured and exported — the monitor differs *only* in not
        acting."""
        self._defend_clock()
        self.clock_monitor.fence_enabled = False

    def _skip_validation(self) -> None:
        """Epoch-OCC commits every submission without re-reading its
        read set (the init keys' transactions read nothing, so they
        committed the same way)."""
        self.cluster.epoch_service.validate = False

    def _unorder_conflicts(self) -> None:
        """Epoch-OCC starts every ordered commit at once, however it
        conflicts with the earlier ones still running."""
        self.cluster.epoch_service.order_conflicts = False

    def _drop_commit_records(self) -> None:
        """One-phase entries carry no commit record, and the lost-reply
        probe runs first so the damage is certain."""
        for rng in self.ranges.values():
            rng.commit_marker = False
        self.run_clients([self.reapply_probe()])

    def _skip_condition_checks(self) -> None:
        """Leaseholders apply conditional puts without their check."""
        for rng in self.ranges.values():
            rng.check_condition = False

    def _skip_write_proofs(self) -> None:
        """Commits skip the proof of their pipelined writes, and the
        lost-write probe runs first so the damage is certain."""
        self.coord.prove_writes = False
        self.run_clients([self.pipeline_probe()])

    # -- the run ------------------------------------------------------------

    def _init_keys(self) -> None:
        gateway = self.cluster.gateway_for_region(self.home)
        for table, key, kind in self.keys:

            def init_fn(txn, table=table, key=key, kind=kind):
                initial = [] if kind == "list" else f"init:{key}"
                yield from txn.write(table, key, initial)

            self.run_txn(gateway, init_fn, label="init")

    def _audit(self, insert_keys: bool = False) -> Dict[str, Any]:
        """Strong-read every key (``insert_keys``: the insert clients'
        too) from every live region; the first live region's answers
        become the final state (disagreements surface as
        stale-strong-read / final-state anomalies)."""
        keys = [(table, key) for table, key, _kind in self.keys]
        if insert_keys:
            keys += [(self.range, key) for key in INSERT_KEYS]

        def audit_fn(txn):
            values = {}
            for table, key in keys:
                values[f"{table.name}/{key}"] = (
                    yield from txn.read(table, key))
            return values

        final: Dict[str, Any] = {}
        for values in self.audit(audit_fn, label="final").values():
            for key, value in values.items():
                final.setdefault(key, value)
        return final

    def run(self, scenario: Optional[str] = None,
            clients_per_region: int = 2, ops_per_client: int = 8,
            stale_ops: int = 6, inserters: int = 0) -> VerifyResult:
        """Run the :data:`SCENARIOS` row ``scenario`` (None: ``"none"``):
        settle, the row's setup, its nemesis, the clients, heal, audit,
        check, and the row's verdict.  ``inserters``: that many
        :meth:`insert_client` s (one per region, round-robin; at least
        the row's own) run beside the other clients."""
        name = scenario or "none"
        row = _row(name)
        if row.protocol not in (None, self.protocol.name):
            raise ValueError(
                f"verify scenario {name!r} runs on {row.protocol} only, "
                f"not {self.protocol.name}")
        sim = self.sim
        self.recorder.meta.update({"scenario": name, "seed": self.seed})
        self._init_keys()
        sim.run(until=sim.now + 600.0)  # settle replication + closed ts
        if row.setup is not None:
            row.setup(self)

        start_ms = sim.now
        nemesis = (self.start_nemesis(row.faults(self), base_ms=start_ms)
                   if row.faults is not None else None)
        inserters = max(inserters, row.inserters)
        clients = []
        for index, region in enumerate(self.regions):
            for client in range(clients_per_region):
                clients.append(self.txn_client(
                    f"txn-{region}-{client}", region,
                    (index + client) % 2, ops_per_client))
            clients.append(self.stale_client(
                f"stale-{region}", region, (index + 1) % 2, stale_ops))
        if row.probes:
            # Recency probes on healthy gateways (index 0 in the home
            # region — index 1 is the clock-jump victim).
            for index, region in enumerate(self.regions):
                clients.append(self.probe_client(
                    f"probe-{region}", region, index % 2, ops=60))
        for index in range(inserters):
            region = self.regions[index % len(self.regions)]
            clients.append(self.insert_client(
                f"ins-{region}-{index}", region, index % 2))
        self.run_clients(clients)
        duration = sim.now - start_ms

        self.heal_and_settle(nemesis, restart_dead=row.restart_dead)
        self.recorder.final = self._audit(insert_keys=inserters > 0)

        history = self.recorder.finalize()
        report = check(history)
        audit = row.audit(self)
        stats = {
            "txns_recorded": len(history.txns),
            "failovers": self.range.failovers,
            "rpc_retries": self.ds.rpc_retries,
            "messages_dropped": self.cluster.network.messages_dropped,
            "ambiguous_commits": self.coord.stats.ambiguous_commits,
            "txn_retries": self.coord.stats.aborted_retries,
            "validation_aborts": self.coord.stats.validation_aborts,
        }
        if self.admission is not None:
            stats["fg_shed"] = self._fg_shed
            for key in sorted(self._bg_stats):
                stats[f"bg_{key}"] = self._bg_stats[key]
        if self.elastic:
            keyspace = self.cluster.keyspace
            stats["keyspace_splits"] = keyspace.splits
            stats["keyspace_merges"] = keyspace.merges
            stats["final_ranges"] = len(self.range.span.descriptors)
            stats["range_cache_invalidations"] = \
                self.ds.range_cache_invalidations
        timeline = list(nemesis.timeline) if nemesis is not None else []
        if self.clock_monitor is not None:
            stats["clock_fences"] = len(self.clock_monitor.fence_events)
            stats["clock_outliers"] = len(
                self.clock_monitor.outlier_detections)
            timeline += [(when, "fence",
                          f"clock-outlier:n{node_id} ({worst:.0f}ms)")
                         for when, node_id, worst
                         in self.clock_monitor.fence_events]
        if self.repair_queue is not None:
            stats.update(self._repair_stats())
            timeline += [(when, "liveness", f"n{node_id} {old} -> {new}")
                         for when, node_id, old, new
                         in self.liveness.transitions]
        timeline.sort(key=lambda event: event[0])
        return VerifyResult(scenario=name, seed=self.seed, history=history,
                            report=report, duration_ms=duration, stats=stats,
                            verdict=row.verdict, audit=audit,
                            timeline=timeline)

    def _repair_stats(self) -> Dict[str, Any]:
        """What the repair queue did: actions in total and per kind,
        failed attempts, ranges left under-replicated, membership
        changes (and the most ever in flight on one range), liveness
        transitions, and the slowest repair."""
        metrics = self.repair_queue.metrics
        guards = [rng.group.config_guard for table in self.ranges.values()
                  for rng in table.span.ranges()]
        stats = {
            "repair_actions": metrics.total_actions(),
            "repair_failures": sum(metrics.failures.values()),
            "under_replicated": metrics.under_replicated_ranges,
            "config_changes": sum(guard.changes for guard in guards),
            "max_inflight_changes": max(guard.max_inflight
                                        for guard in guards),
            "liveness_transitions": len(self.liveness.transitions),
        }
        for kind, done in sorted(metrics.actions.items()):
            stats[f"repair_{kind}"] = done
        if metrics.time_to_repair_ms:
            stats["time_to_repair_ms"] = round(
                max(metrics.time_to_repair_ms), 1)
        return stats


# -- the scenario table ------------------------------------------------------


def _convicts(required, *tolerated: str) -> Verdict:
    """An ablation's verdict: at least one ``required`` anomaly, and
    nothing outside it, :data:`REALTIME_ANOMALY_TYPES` (recency /
    staleness noise, never required) and ``tolerated``."""
    required = frozenset(required)
    return required | REALTIME_ANOMALY_TYPES | frozenset(tolerated), required


#: The write-write races a blind commit lets through: a write buries a
#: concurrent one (lost updates, write-order and write cycles).
_WRITE_RACES = frozenset({
    "lost-update", "lost-write", "incompatible-order",
    "G0", "G1c", "G-single", "G2",
})

#: Rows the CRDB-protocol and the epoch-OCC sweeps both run: the seven
#: heal-everything fault schedules and the reshaping keyspace, on
#: identical nemesis timelines per backend.  The rows that lose nodes
#: for good, reshape under a rebalance queue or fault a clock run on
#: CRDB only, and have their own groups.
_BOTH = ("crdb", "epoch-occ")
_CLOCK = ("crdb", "clock")
_REPAIR = ("crdb", "repair")

#: Every verify scenario, in listing order (``verify --scenario list``).
SCENARIOS: Dict[str, VerifyScenario] = {
    "none": VerifyScenario("Fault-free run of the randomized workload."),
    "region-blackout": VerifyScenario(
        """The home region (leaseholder included) goes dark, then returns.

        SURVIVE REGION FAILURE + automatic lease failover must keep the
        database available from the surviving regions with no operator
        action, and the healed region must catch back up.""",
        faults.blackout_faults, sweeps=_BOTH),
    "rolling-zones": VerifyScenario(
        """One zone per region crash-restarts in a rolling wave.""",
        faults.rolling_zone_faults, sweeps=_BOTH),
    "flaky-wan": VerifyScenario(
        """The home<->Europe WAN link drops 25% of packets and triples
        latency for a window; retries + Raft retransmission ride it
        out.""",
        faults.flaky_wan_faults, sweeps=_BOTH),
    "gray-follower": VerifyScenario(
        """A non-leaseholder voter goes gray (20x slower, still up);
        nearest reads route through/around it without consistency
        loss.""",
        faults.gray_follower_faults, sweeps=_BOTH),
    "asym-partition": VerifyScenario(
        """Europe can't reach the home region but the home region can
        reach Europe (one-way cut) — the classic gray failure; replies
        must not sneak through the cut direction.""",
        faults.asym_partition_faults, sweeps=_BOTH),
    "crash-restart": VerifyScenario(
        """A follower crashes mid-run and restarts with its Raft log
        intact; it must catch up (resync) rather than diverge or stall
        the range.""",
        faults.crash_restart_faults, sweeps=_BOTH),
    "partition-leaseholder": VerifyScenario(
        """The node holding the lease is symmetrically partitioned from
        every peer (it stays up).

        The lease must fail over (the old leaseholder cannot heartbeat
        its liveness), the deposed node must not serve split-brain
        reads or ack writes into the void, and on heal it rejoins as a
        follower and catches up.  The protocol-matrix CI job runs this
        under both transaction backends — for epoch-OCC the partition
        additionally races the epoch service's ordering/apply RPCs.""",
        faults.partition_leaseholder_faults, sweeps=_BOTH),
    "split-merge": VerifyScenario(
        "The nemesis is the keyspace itself: forced splits and merges "
        "reshape the primary range under the live workload.",
        setup=VerifyHarness._start_split_merge, sweeps=_BOTH),
    "global-nearest": VerifyScenario(
        "flaky-wan with the GLOBAL range read the way SQL reads a GLOBAL "
        "table: routed to the nearest replica, a present-time read its "
        "local follower serves — every such read must still be the "
        "latest committed version.",
        faults.flaky_wan_faults,
        setup=VerifyHarness._read_global_nearest, sweeps=_BOTH),
    "split-under-fire": VerifyScenario(
        """Hot-key load splits the range while its leaseholder crashes.

        The rebalance queue manages the chaos range's span: it
        size-splits the seeded keyspace immediately and keeps
        load-splitting the hot keys while the nemesis crashes the node
        holding the initial lease mid-split.  Every acked write must
        survive, and the span's descriptors must still tile the
        keyspace afterwards — no key may ever be left unowned or
        doubly-owned by the split/merge machinery racing lease failover
        and repair.""",
        faults.split_under_fire_faults,
        setup=VerifyHarness._split_under_load, sweeps=("crdb",)),
    "overload": VerifyScenario(
        "A load nemesis, not a fault schedule: admission control is "
        "installed and open-loop background load saturates the home "
        "store while the recorded clients run with deadlines — "
        "shedding must never break serializability.",
        setup=VerifyHarness._start_overload, sweeps=("crdb",)),
    "kill-node-repair": VerifyScenario(
        """A non-leaseholder voter dies *permanently* — no heal ever
        comes.

        Store liveness must walk it LIVE -> SUSPECT -> DEAD, and the
        replicate queue must re-replicate its voter slot onto a
        constraint-satisfying, diversity-maximizing survivor through
        the safe learner -> snapshot -> promote pipeline, with zero
        lost acked writes.""",
        faults.kill_node_faults, setup=VerifyHarness._repair_every_range,
        restart_dead=False, sweeps=_REPAIR),
    "region-loss-repair": VerifyScenario(
        """The home region (leaseholder included) is lost *permanently*.

        The lease must fail over to a survivor, and the repair queue
        must rebuild full REGION-survivable replication on the two
        remaining regions — back to 5 constraint- and
        diversity-satisfying voters — within ``time_until_store_dead``
        + a few repair intervals, with zero lost acked writes.  The
        final audit reads only in the surviving regions; the home
        region's clients fail fast once their gateways are gone.""",
        faults.region_loss_faults, setup=VerifyHarness._repair_every_range,
        restart_dead=False, sweeps=_REPAIR),
    "clock-drift": VerifyScenario(
        """Two voters drift at +-3%/s, within the max-offset contract.

        The monitor measures the drift (exported via the per-node
        ``clock.offset_measured`` gauge) but must NOT fence anyone: the
        uncertainty machinery absorbs in-contract skew by design, and a
        monitor that fences healthy nodes is itself an availability
        bug.""",
        # The schedule held for the verifier's longer run.
        partial(faults.clock_drift_faults, heal_at_ms=2000.0),
        setup=VerifyHarness.enable_clock_monitor, probes=True,
        sweeps=_CLOCK, audit=_fences(False)),
    "clock-jump": VerifyScenario(
        "A writer gateway's clock steps beyond the max-offset contract "
        "with the full defense on (serve-side rejection + "
        "self-fencing); the run must stay anomaly-free.",
        VerifyHarness._clock_jump, setup=VerifyHarness._defend_clock,
        probes=True, sweeps=_CLOCK,
        # The fenced victim stays down: the point is that the replicate
        # queue repairs around it, not that a restart saves the day.
        restart_dead=False),
    "clock-jump-fence": VerifyScenario(
        """A voter's clock steps +800 ms, beyond the 250 ms contract,
        and never heals.

        The node must self-fence from its own peer measurements (it
        sees every peer ~800 ms behind; healthy nodes see only it as an
        outlier), store liveness must walk it to DEAD, and the
        replicate queue must repair its voter slot — the clock-outlier
        node is treated exactly like a dead one, because for
        correctness purposes it is.""",
        faults.clock_jump_faults, setup=VerifyHarness._defend_clock,
        probes=True, restart_dead=False, sweeps=_CLOCK, audit=_fences(True)),
    "clock-freeze-lease": VerifyScenario(
        """The leaseholder's clock freezes solid.

        Peers march ahead at 1 ms/ms, so its measured offsets grow
        until it fences itself and the lease fails over to a healthy
        voter; the heal step-syncs the clock so the end-of-run restart
        rejoins it cleanly.""",
        faults.clock_freeze_faults, setup=VerifyHarness.enable_clock_monitor,
        probes=True, sweeps=_CLOCK, audit=_fences(True)),
    "clock-jump-nofence": VerifyScenario(
        "The honest ablation: the identical jump with the defense "
        "disabled; passes iff the checker reports the real-time / "
        "staleness anomalies the undefended jump really causes.",
        VerifyHarness._clock_jump, setup=VerifyHarness._undefend_clock,
        probes=True, sweeps=_CLOCK,
        verdict=_convicts(REALTIME_ANOMALY_TYPES)),
    "occ-novalidate": VerifyScenario(
        "The epoch-OCC honest-falsification ablation: the identical "
        "optimistic pipeline with commit-time read-set validation "
        "disabled; passes iff the checker convicts the blind "
        "write-write races (lost updates / write cycles) — proof the "
        "differential sweep's clean verdicts are earned by validation, "
        "not by checker blindness.",
        setup=VerifyHarness._skip_validation, protocol="epoch-occ",
        # The races may also surface as a diverged final audit.
        # Duplicate writes or garbage reads would mean the protocol
        # machinery, not just validation, is broken.
        verdict=_convicts(_WRITE_RACES, "final-state-divergence")),
    "occ-unordered": VerifyScenario(
        "The epoch-OCC ordering ablation: flaky-wan with commits no "
        "longer waiting for the earlier-ordered commits they conflict "
        "with, so two of them validate against the same state and both "
        "apply; passes iff the checker convicts the write-write races — "
        "proof the decided order is earned by the per-key waits, not by "
        "the epochs alone.",
        faults.flaky_wan_faults,
        setup=VerifyHarness._unorder_conflicts, protocol="epoch-occ",
        verdict=_convicts(_WRITE_RACES, "final-state-divergence")),
    "one-phase-reapply": VerifyScenario(
        "The one-phase-commit honest-falsification ablation: flaky-wan "
        "with the commit record left out of the one-phase Raft entry, "
        "so a write re-sent after a lost reply applies a second time; "
        "passes iff the checker convicts the duplicate / lost-update "
        "anomalies — proof the sweep's clean verdicts under message "
        "loss are earned by the record, not by checker blindness.",
        faults.flaky_wan_faults,
        setup=VerifyHarness._drop_commit_records, protocol="crdb",
        # A write that lands twice is a duplicate element, or a second
        # version burying what committed between; the damage may also
        # reach the final audit.
        verdict=_convicts(_WRITE_RACES | {"G1a"},
                          "final-state-divergence")),
    "cput-blind": VerifyScenario(
        "The conditional-put honest-falsification ablation: two clients "
        "insert the same fresh keys under flaky-wan with the "
        "leaseholder's condition check switched off, so both inserts of "
        "a key succeed; passes iff the checker convicts the second "
        "(two transactions read the key absent and wrote it) — proof "
        "an INSERT's uniqueness is earned by the check, not assumed.",
        faults.flaky_wan_faults,
        setup=VerifyHarness._skip_condition_checks, inserters=2,
        protocol="crdb",
        verdict=_convicts({"lost-update", "G-single", "G2"})),
    "pipeline-unproven": VerifyScenario(
        "The write-pipelining honest-falsification ablation: commits "
        "skip the proof of their pipelined writes, and a probe loses one "
        "(leaseholder cut off from its followers until the proposal "
        "times out, then a failover); passes iff the checker convicts "
        "the committed transaction missing its write — proof a "
        "pipelined write is earned by the proof, not assumed.",
        setup=VerifyHarness._skip_write_proofs, protocol="crdb",
        # Two appends that read the same list: the lost one and the next.
        verdict=_convicts(_WRITE_RACES)),
}


def _row(name: str) -> VerifyScenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown verify scenario {name!r}; "
                       f"choose from {list(SCENARIOS)}") from None


def run_verify(scenario: Optional[str] = None, seed: int = 0,
               protocol=None, **kwargs) -> VerifyResult:
    """Run the randomized isolation/staleness verification workload.

    ``scenario`` is a :data:`SCENARIOS` name (None: ``"none"``);
    ``protocol`` selects the transaction backend ("crdb" default,
    "epoch-occ" for the differential sweep).  A row that forces a
    backend — an ablation of a mechanism only one pipeline has — runs
    on it, and raises ValueError for any other ``protocol``.
    """
    row = _row(scenario or "none")
    return VerifyHarness(
        seed, protocol=row.protocol if protocol is None else protocol,
    ).run(scenario=scenario, **kwargs)
