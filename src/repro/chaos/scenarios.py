"""Built-in chaos scenarios: workload + nemesis schedule + audit.

Each scenario builds a REGION-survivable cluster, runs seeded increment
and read clients against one range while a :class:`Nemesis` injects and
heals faults, then heals everything, audits the final counters from
every region, and checks the Jepsen-style invariants.

All randomness flows from the scenario seed (client think times, key
choice, packet-loss sampling, retry jitter), so a run is exactly
reproducible from ``(scenario, seed)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..harness.testbed import HOME, REGIONS, Testbed
from ..kv.distsender import ReadRouting
from ..placement import placement_violations
from .invariants import (
    History,
    InvariantReport,
    OpRecord,
    ScenarioResult,
    check_history,
)
from .nemesis import FaultEvent, Nemesis
from .overload import overload_global, overload_hot_region

__all__ = ["SCENARIOS", "Scenario", "ScenarioResult", "ChaosHarness",
           "run_scenario", "build_faults"]

KEYS = ["acct0", "acct1", "acct2"]


class ChaosHarness(Testbed):
    """One REGION-survivable range plus seeded clients and a nemesis."""

    def __init__(self, seed: int, enable_repair: bool = False,
                 clock_monitor: bool = False, elastic: bool = False,
                 txn_protocol=None):
        super().__init__(seed, protocol=txn_protocol,
                         rng_seed=(seed << 4) ^ 0xC4A05)
        # Off by default so the other scenarios keep their exact event
        # schedules; clock scenarios turn it on.
        if clock_monitor:
            self.enable_clock_monitor()
        self.config = self.zone_config()
        self.range = self.provision("chaos", self.config)
        self.history = History()
        #: Which queue manages the range's span: the rebalance queue
        #: (splits and merges under fire, and repairs) or the replicate
        #: queue (only repairs).
        self.elastic = elastic
        if elastic:
            # Thresholds scaled to the 3-key chaos workload: the seeded
            # range size-splits immediately (3 > 2 keys) and the hot
            # keys drive load splits during the run.
            self.enable_rebalance(
                self.range, self.config,
                split_max_keys=2, split_qps=8.0, merge_qps=0.5,
                merge_patience=3, replica_moves=False)
        elif enable_repair:
            self.enable_repair([(self.range, self.config)])

    # -- clients -----------------------------------------------------------

    def client(self, kind: str, region: str, gateway_index: int, ops: int,
               routing: str = ReadRouting.LEASEHOLDER,
               think_ms=(10.0, 40.0)):
        """``kind`` "inc": increment a random key per op; "read": read
        one (NEAREST routing marks reads stale — follower reads serve a
        closed, slightly-past timestamp).  Every op is recorded
        ok/fail/indeterminate."""
        gateway = self.cluster.gateway_for_region(region, gateway_index)
        rng = random.Random(self.rng.random())
        for _ in range(ops):
            key = rng.choice(KEYS)
            start = self.sim.now
            if kind == "inc":
                txn_fn = self.increment(self.range, key)
            else:
                def txn_fn(txn, key=key):
                    value = yield from txn.read(self.range, key,
                                                routing=routing)
                    return value
            status, value, error = yield from self.attempt(
                gateway, txn_fn, max_attempts=6)
            self.history.record(OpRecord(
                client=f"{kind}-{region}", kind=kind, key=key,
                start_ms=start, end_ms=self.sim.now, status=status,
                value=value, stale=routing != ReadRouting.LEASEHOLDER,
                error=error))
            yield self.sim.sleep(rng.uniform(*think_ms))

    # -- the run -----------------------------------------------------------

    def run(self, name: str, events: List[FaultEvent],
            inc_ops: int = 14, read_ops: int = 14,
            read_routing: str = ReadRouting.LEASEHOLDER,
            client_regions: Optional[List[str]] = None,
            restart_dead_on_heal: bool = True,
            audit_regions: Optional[List[str]] = None,
            expect_fences: Optional[bool] = None) -> ScenarioResult:
        sim = self.sim
        # Seed the counters before chaos starts.
        gateway = self.cluster.gateway_for_region(self.home)
        for key in KEYS:

            def init_fn(txn, key=key):
                yield from txn.write(self.range, key, 0)

            self.run_txn(gateway, init_fn)
        sim.run(until=sim.now + 200.0)  # settle replication

        start_ms = sim.now
        nemesis = self.start_nemesis(events, base_ms=start_ms)
        clients = []
        for index, region in enumerate(client_regions or self.regions):
            clients.append(self.client("inc", region, index % 2, inc_ops))
            clients.append(self.client("read", region, (index + 1) % 2,
                                       read_ops, routing=read_routing))
        self.run_clients(clients)
        duration = sim.now - start_ms

        self.heal_and_settle(nemesis, restart_dead=restart_dead_on_heal)
        final_values = self._audit(audit_regions)
        report = check_history(self.history, final_values)
        stats = {
            "failovers": self.range.failovers,
            "rpc_retries": self.ds.rpc_retries,
            "breaker_trips": self.ds.breakers.total_trips(),
            "messages_dropped": self.cluster.network.messages_dropped,
            "ambiguous_commits": self.coord.stats.ambiguous_commits,
            "txn_retries": self.coord.stats.aborted_retries,
            "raft_term": self.range.group.term,
        }
        if self.repair_queue is not None:
            self._check_placement(report, stats)
        self._check_ownership(report, stats)
        if self.clock_monitor is not None:
            self._merge_clock_timeline(nemesis)
            stats["clock_fences"] = len(self.clock_monitor.fence_events)
            stats["clock_outliers"] = len(
                self.clock_monitor.outlier_detections)
            if expect_fences is not None:
                self._check_clock(report, expect_fences)
        return ScenarioResult(
            name=name, seed=self.seed, history=self.history, report=report,
            nemesis_timeline=nemesis.timeline, final_values=final_values,
            duration_ms=duration, stats=stats, harness=self,
            metrics_snapshot=sim.obs.registry.snapshot())

    def _audit(self, audit_regions: Optional[List[str]] = None
               ) -> Dict[str, int]:
        """Strong-read every key from every auditable region; they must
        agree.  A disagreement surfaces through the durability check as
        a phantom / lost write: the worst (lowest) value is recorded."""
        values: Dict[str, int] = {}
        for key in KEYS:

            def read_fn(txn, key=key):
                value = yield from txn.read(self.range, key)
                return value

            values[key] = min(self.audit(read_fn, audit_regions).values())
        return values

    def _check_placement(self, report: InvariantReport,
                         stats: Dict[str, float]) -> None:
        """Repair-scenario extras: the healed placement must satisfy the
        zone config (constraints, diversity, lease) given the nodes that
        still exist, and the repair metrics ride along in the stats."""
        for rng in self.range.span.ranges():
            report.violations.extend(placement_violations(
                rng, self.config, self.cluster, self.liveness))
        report.checks_run.append(
            "placement: post-repair constraints + diversity + lease "
            "satisfied on surviving nodes")
        metrics = self.repair_queue.metrics
        guard = self.range.group.config_guard
        stats.update({
            "repair_actions": metrics.total_actions(),
            "repair_failures": sum(metrics.failures.values()),
            "under_replicated": metrics.under_replicated_ranges,
            "config_changes": guard.changes,
            "max_inflight_changes": guard.max_inflight,
            "liveness_transitions": len(self.liveness.transitions),
        })
        if metrics.time_to_repair_ms:
            stats["time_to_repair_ms"] = round(
                max(metrics.time_to_repair_ms), 1)

    def _check_ownership(self, report: InvariantReport,
                         stats: Dict[str, float]) -> None:
        """Every scenario: the keyspace's structural audit must come
        back clean.  Where the rebalance queue was reshaping the span
        under fire, the check is also listed and the reshape counters
        ride along in the stats (the other scenarios' documents stay as
        committed)."""
        keyspace = self.cluster.keyspace
        report.violations.extend(keyspace.violations())
        if not self.elastic:
            return
        report.checks_run.append(
            "keyspace: descriptors tile [/Min, /Max); every key owned "
            "exactly once; replica stores within bounds")
        stats.update({
            "keyspace_splits": keyspace.splits,
            "keyspace_merges": keyspace.merges,
            "ranges_final": len(self.range.span.descriptors),
            "range_cache_invalidations":
                self.ds.range_cache_invalidations,
        })

    def _merge_clock_timeline(self, nemesis: Nemesis) -> None:
        """Fold self-fence events into the nemesis timeline so the
        availability rendering correlates dips with the clock defense
        kicking in (fencing is always on here: only a verify row turns
        it off)."""
        for when, node_id, worst in self.clock_monitor.fence_events:
            nemesis.timeline.append(
                (when, "fence", f"clock-outlier:n{node_id}"
                                f" ({worst:.0f}ms)"))
        nemesis.timeline.sort(key=lambda entry: entry[0])

    def _check_clock(self, report: InvariantReport,
                     expect_fences: bool) -> None:
        """Clock-scenario extras: the monitor must have fenced exactly
        when the injected fault was beyond bounds, and never otherwise."""
        events = self.clock_monitor.fence_events
        if expect_fences:
            report.checks_run.append(
                "clock: beyond-bound clock fault self-fences the victim")
            if not events:
                report.violations.append(
                    "clock: no node self-fenced despite a beyond-bound "
                    "clock fault")
        else:
            report.checks_run.append(
                "clock: in-bounds clock faults cause no fences")
            if events:
                fenced = sorted({n for _, n, _ in events})
                report.violations.append(
                    f"clock: unexpected self-fence of node(s) {fenced} "
                    "under in-bounds clock faults")


# -- fault-schedule builders -------------------------------------------------
#
# Each builder takes any harness-like object exposing ``.cluster``,
# ``.regions``, ``.home`` and ``.range`` (the range whose leaseholder /
# followers the scenario targets) and returns the scenario's fault
# schedule.  The scenario table below and the transactional-consistency
# verifier (:mod:`repro.verify`) share these, so every nemesis schedule
# doubles as an isolation-level test.


def _crash(cluster, name: str, victims: List[int], at_ms: float,
           heal_at_ms: Optional[float] = None) -> FaultEvent:
    """Crash ``victims`` at ``at_ms``; restart them at ``heal_at_ms``
    (None: the loss is permanent — only a final heal-all may revive)."""
    def restart():
        for node_id in victims:
            cluster.restart_node(node_id)
    return FaultEvent(
        name=name, at_ms=at_ms,
        inject=lambda: [cluster.crash_node(n) for n in victims],
        heal_at_ms=heal_at_ms,
        heal=restart if heal_at_ms is not None else None)


def _home_nodes(harness) -> List[int]:
    return [n.node_id
            for n in harness.cluster.nodes_in_region(harness.home)]


def _blackout_faults(harness) -> List[FaultEvent]:
    return [_crash(harness.cluster, f"blackout:{harness.home}",
                   _home_nodes(harness), 250.0, 1600.0)]


def _rolling_zone_faults(harness) -> List[FaultEvent]:
    cluster = harness.cluster
    events = []
    for index, region in enumerate(harness.regions):
        start = 200.0 + 450.0 * index
        events.append(_crash(
            cluster, f"zone-crash:{region}",
            [cluster.nodes_in_region(region)[-1].node_id],
            start, start + 400.0))
    return events


def _flaky_wan_faults(harness) -> List[FaultEvent]:
    faults = harness.cluster.network.faults
    home = harness.home
    other = next(r for r in harness.regions if r != home)
    return [FaultEvent(
        name=f"flaky-wan:{home}<->{other}",
        at_ms=200.0,
        inject=lambda: (faults.set_loss(home, other, 0.25),
                        faults.set_latency_factor(home, other, 3.0)),
        heal_at_ms=1400.0,
        heal=lambda: (faults.set_loss(home, other, 0.0),
                      faults.set_latency_factor(home, other, 1.0)))]


def _non_lease_follower(harness) -> int:
    lease_node = harness.range.leaseholder_node_id
    return next(p.node.node_id for p in harness.range.group.voters()
                if p.node.node_id != lease_node)


def _gray_follower_faults(harness) -> List[FaultEvent]:
    faults = harness.cluster.network.faults
    follower = _non_lease_follower(harness)
    return [FaultEvent(
        name=f"gray-node:{follower}",
        at_ms=200.0,
        inject=lambda: faults.slow_node(follower, 20.0),
        heal_at_ms=1400.0,
        heal=lambda: faults.restore_node_speed(follower))]


def _asym_partition_faults(harness) -> List[FaultEvent]:
    faults = harness.cluster.network.faults
    home = harness.home
    other = next(r for r in harness.regions if r != home)
    return [FaultEvent(
        name=f"asym-cut:{other}->{home}",
        at_ms=250.0,
        inject=lambda: faults.cut_link(other, home, bidirectional=False),
        heal=lambda: faults.heal_link(other, home, bidirectional=False),
        heal_at_ms=1400.0)]


def _partition_leaseholder_faults(harness, at_ms: float = 250.0,
                                 heal_at_ms: float = 1400.0
                                 ) -> List[FaultEvent]:
    """Symmetrically partition exactly the node holding the lease (it
    stays up — it just can't talk to anyone)."""
    faults = harness.cluster.network.faults
    victim = harness.range.leaseholder_node_id
    peers = [n.node_id for n in harness.cluster.nodes
             if n.node_id != victim]
    return [FaultEvent(
        name=f"partition-lease:n{victim}",
        at_ms=at_ms,
        inject=lambda: [faults.cut_link(victim, p, bidirectional=True)
                        for p in peers],
        heal_at_ms=heal_at_ms,
        heal=lambda: [faults.heal_link(victim, p, bidirectional=True)
                      for p in peers])]


def _crash_restart_faults(harness) -> List[FaultEvent]:
    follower = _non_lease_follower(harness)
    return [_crash(harness.cluster, f"crash:{follower}", [follower],
                   250.0, 1100.0)]


def _quiet_follower(harness) -> int:
    """A non-leaseholder voter, preferring one that isn't a client
    gateway (clients connect to the first two nodes of each region), so
    availability dips reflect the range, not a dead client connection."""
    cluster = harness.cluster
    lease_node = harness.range.leaseholder_node_id
    candidates = [p.node for p in harness.range.group.voters()
                  if p.node.node_id != lease_node]

    def is_gateway(node) -> bool:
        peers = cluster.nodes_in_region(node.locality.region)
        return node in peers[:2]

    return sorted(candidates,
                  key=lambda n: (is_gateway(n), n.node_id))[0].node_id


def _kill_node_faults(harness) -> List[FaultEvent]:
    victim = _quiet_follower(harness)
    return [_crash(harness.cluster, f"kill:{victim}", [victim], 300.0)]


def _split_under_fire_faults(harness) -> List[FaultEvent]:
    """Crash the (initial) leaseholder while hot-key load is driving
    the rebalance queue through splits, then restart it."""
    victim = harness.range.leaseholder_node_id
    return [_crash(harness.cluster, f"crash-lease:{victim}", [victim],
                   250.0, 1100.0)]


def _region_loss_faults(harness) -> List[FaultEvent]:
    return [_crash(harness.cluster, f"region-loss:{harness.home}",
                   _home_nodes(harness), 300.0)]


def _clock_drift_faults(harness,
                        heal_at_ms: float = 1400.0) -> List[FaultEvent]:
    """Two non-leaseholder voters drift at +-3%/s — enough to smear the
    MVCC timeline, never enough to leave the max-offset contract."""
    clock = harness.cluster.clock
    lease_node = harness.range.leaseholder_node_id
    victims = [p.node.node_id for p in harness.range.group.voters()
               if p.node.node_id != lease_node][:2]
    events = []
    for index, node_id in enumerate(victims):
        rate = 0.03 if index % 2 == 0 else -0.03
        events.append(FaultEvent(
            name=f"clock-drift:n{node_id}",
            at_ms=200.0,
            inject=lambda n=node_id, r=rate: clock.set_drift(n, r),
            heal_at_ms=heal_at_ms,
            heal=lambda n=node_id: clock.heal(n)))
    return events


def _clock_jump_faults(harness) -> List[FaultEvent]:
    """One voter's clock steps +800 ms; no heal ever comes."""
    clock = harness.cluster.clock
    victim = _quiet_follower(harness)
    return [FaultEvent(
        name=f"clock-jump:n{victim}",
        at_ms=300.0,
        inject=lambda: clock.jump(victim, 800.0))]


def _clock_freeze_faults(harness) -> List[FaultEvent]:
    """The leaseholder's clock freezes solid mid-run; the heal
    step-syncs it."""
    clock = harness.cluster.clock
    victim = harness.range.leaseholder_node_id
    return [FaultEvent(
        name=f"clock-freeze:n{victim}",
        at_ms=250.0,
        inject=lambda: clock.freeze(victim),
        heal_at_ms=1400.0,
        heal=lambda: clock.heal(victim))]

# -- built-in scenarios ------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One built-in scenario: its intent, the fault schedule it runs
    under, and how it configures :class:`ChaosHarness` and ``run``."""

    doc: str
    #: harness -> fault schedule (shared with repro.verify, so every
    #: nemesis schedule doubles as an isolation-level test).
    faults: Optional[Callable[[Any], List[FaultEvent]]] = None
    harness: Dict[str, Any] = field(default_factory=dict)
    run: Dict[str, Any] = field(default_factory=dict)
    #: Set instead of ``faults`` by the overload scenarios, which drive
    #: the open-loop harness and take no protocol override.
    runner: Optional[Callable[[int], ScenarioResult]] = None


#: Clients and the final audit of ``region-loss-repair`` live only here.
_SURVIVORS = [region for region in REGIONS if region != HOME]

SCENARIOS: Dict[str, Scenario] = {
    "region-blackout": Scenario(
        """The home region (leaseholder included) goes dark, then returns.

        SURVIVE REGION FAILURE + automatic lease failover must keep the
        database available from the surviving regions with no operator
        action, and the healed region must catch back up.""",
        _blackout_faults),
    "rolling-zones": Scenario(
        """One zone per region crash-restarts in a rolling wave.""",
        _rolling_zone_faults),
    "flaky-wan": Scenario(
        """The home<->Europe WAN link drops 25% of packets and triples
        latency for a window; retries + Raft retransmission ride it
        out.""",
        _flaky_wan_faults),
    "gray-follower": Scenario(
        """A non-leaseholder voter goes gray (20x slower, still up);
        nearest reads route through/around it without consistency
        loss.""",
        _gray_follower_faults,
        run=dict(read_routing=ReadRouting.NEAREST)),
    "asym-partition": Scenario(
        """Europe can't reach the home region but the home region can
        reach Europe (one-way cut) — the classic gray failure; replies
        must not sneak through the cut direction.""",
        _asym_partition_faults),
    "crash-restart": Scenario(
        """A follower crashes mid-run and restarts with its Raft log
        intact; it must catch up (resync) rather than diverge or stall
        the range.""",
        _crash_restart_faults),
    "partition-leaseholder": Scenario(
        """The node holding the lease is symmetrically partitioned from
        every peer (it stays up).

        The lease must fail over (the old leaseholder cannot heartbeat
        its liveness), the deposed node must not serve split-brain
        reads or ack writes into the void, and on heal it rejoins as a
        follower and catches up.  The protocol-matrix CI job runs this
        under both transaction backends — for epoch-OCC the partition
        additionally races the epoch service's ordering/apply RPCs.""",
        _partition_leaseholder_faults),
    "split-under-fire": Scenario(
        """Hot-key load splits the range while its leaseholder crashes.

        The rebalance queue manages the chaos range's span: it
        size-splits the seeded keyspace immediately and keeps
        load-splitting the hot keys while the nemesis crashes the node
        holding the initial lease mid-split.  Every acked write must
        survive, and the span's descriptors must still tile the
        keyspace afterwards — no key may ever be left unowned or
        doubly-owned by the split/merge machinery racing lease failover
        and repair.""",
        _split_under_fire_faults,
        harness=dict(enable_repair=True, elastic=True),
        run=dict(inc_ops=20, read_ops=20)),
    "kill-node-repair": Scenario(
        """A non-leaseholder voter dies *permanently* — no heal ever
        comes.

        Store liveness must walk it LIVE -> SUSPECT -> DEAD, and the
        replicate queue must re-replicate its voter slot onto a
        constraint-satisfying, diversity-maximizing survivor through
        the safe learner -> snapshot -> promote pipeline, with zero
        lost acked writes.""",
        _kill_node_faults,
        harness=dict(enable_repair=True),
        run=dict(restart_dead_on_heal=False)),
    "region-loss-repair": Scenario(
        """The home region (leaseholder included) is lost *permanently*.

        The lease must fail over to a survivor, and the repair queue
        must rebuild full REGION-survivable replication on the two
        remaining regions — back to 5 constraint- and
        diversity-satisfying voters — within ``time_until_store_dead``
        + a few repair intervals, with zero lost acked writes.  Clients
        and the final audit live only in the surviving regions.""",
        _region_loss_faults,
        harness=dict(enable_repair=True),
        run=dict(client_regions=_SURVIVORS, restart_dead_on_heal=False,
                 audit_regions=_SURVIVORS)),
    "overload-global": Scenario(overload_global.__doc__,
                                runner=overload_global),
    "overload-hot-region": Scenario(overload_hot_region.__doc__,
                                    runner=overload_hot_region),
    "clock-drift": Scenario(
        """Two voters drift at +-3%/s, within the max-offset contract.

        The monitor measures the drift (exported via the per-node
        ``clock.offset_measured`` gauge) but must NOT fence anyone: the
        uncertainty machinery absorbs in-contract skew by design, and a
        monitor that fences healthy nodes is itself an availability
        bug.""",
        _clock_drift_faults,
        harness=dict(clock_monitor=True),
        run=dict(expect_fences=False)),
    "clock-jump-fence": Scenario(
        """A voter's clock steps +800 ms, beyond the 250 ms contract,
        and never heals.

        The node must self-fence from its own peer measurements (it
        sees every peer ~800 ms behind; healthy nodes see only it as an
        outlier), store liveness must walk it to DEAD, and the
        replicate queue must repair its voter slot — the clock-outlier
        node is treated exactly like a dead one, because for
        correctness purposes it is.""",
        _clock_jump_faults,
        harness=dict(enable_repair=True, clock_monitor=True),
        run=dict(restart_dead_on_heal=False, expect_fences=True)),
    "clock-freeze-lease": Scenario(
        """The leaseholder's clock freezes solid.

        Peers march ahead at 1 ms/ms, so its measured offsets grow
        until it fences itself and the lease fails over to a healthy
        voter; the heal step-syncs the clock so the end-of-run restart
        rejoins it cleanly.""",
        _clock_freeze_faults,
        harness=dict(clock_monitor=True),
        run=dict(expect_fences=True)),
}


def build_faults(name: str, harness, **timing) -> List[FaultEvent]:
    """The named scenario's fault schedule, targeted at ``harness`` —
    any object exposing ``.cluster``, ``.regions``, ``.home`` and
    ``.range`` (the range whose leaseholder / followers are targeted)."""
    return SCENARIOS[name].faults(harness, **timing)


def run_scenario(name: str, seed: int = 0,
                 txn_protocol=None) -> ScenarioResult:
    """Run one built-in scenario by name.

    ``txn_protocol`` selects the transaction backend ("crdb" default,
    "epoch-occ"); None keeps every CRDB schedule byte-identical."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown chaos scenario {name!r}; "
            f"choose from {sorted(SCENARIOS)}") from None
    if scenario.runner is not None:
        if txn_protocol is not None:
            raise ValueError(
                "overload scenarios drive the open-loop harness and do "
                "not support a txn_protocol override")
        return scenario.runner(seed)
    harness = ChaosHarness(seed, txn_protocol=txn_protocol,
                           **scenario.harness)
    return harness.run(name, build_faults(name, harness), **scenario.run)
