"""The experiment spine: how a run is assembled, driven, healed, judged.

Every seeded experiment in this repo — the fault scenarios of the
consistency verifier, the protocol head-to-head, the rebalance
lifecycle, the open-loop saturation runs — is the same recipe with a
different workload and fault: build the standard three-region cluster
and a transaction coordinator, provision hardened ranges, optionally
switch on the clock monitor / liveness + repair / rebalancing, run a
pool of clients to completion under a :class:`~repro.chaos.nemesis
.Nemesis`, heal, settle, and strong-read the final state from every
region.  :class:`Testbed` is that recipe, written once; the harnesses
subclass it and add only their workload and their verdict, and
:class:`~repro.verify.VerifyHarness` is the one that runs every fault
scenario (a row of :data:`repro.verify.SCENARIOS`).

The constants below are the single definition of what "chaos-grade"
provisioning and the compressed-clock liveness cadence mean.
"""

from __future__ import annotations

import random
from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Tuple)

from ..chaos.nemesis import Nemesis
from ..cluster import StoreLiveness, install_clock_monitor, standard_cluster
from ..errors import (
    AmbiguousCommitError,
    FollowerReadNotAvailableError,
    RangeUnavailableError,
    TransactionAbortedError,
    TransactionRetryError,
)
from ..placement import (
    RebalanceQueue,
    ReplicateQueue,
    SurvivalGoal,
    provision_range,
    zone_config_for_home,
)
from ..sim.network import NetworkUnavailableError
from ..txn import TransactionCoordinator

__all__ = ["Testbed", "REGIONS", "HOME", "RETRYABLE",
           "OK", "FAIL", "INDETERMINATE"]

REGIONS = ("us-east1", "europe-west2", "asia-northeast1")
HOME = REGIONS[0]

#: Hardening that seed experiments leave off and every harness range
#: turns on: closed timestamps published every 100 ms, Raft proposals
#: bounded (a write without quorum fails cleanly instead of hanging),
#: and leader retransmission (progress under packet loss).
SIDE_TRANSPORT_INTERVAL_MS = 100.0
PROPOSAL_TIMEOUT_MS = 1000.0
RETRANSMIT_INTERVAL_MS = 150.0

#: Liveness / repair cadence scaled to the harnesses' compressed clock
#: (CRDB's ``time_until_store_dead`` default is five minutes).
HEARTBEAT_INTERVAL_MS = 100.0
TIME_UNTIL_STORE_DEAD_MS = 600.0
REPAIR_INTERVAL_MS = 200.0

#: Sim time between healing every fault and the final audit: long
#: enough for replication and any in-flight repair to catch up.
SETTLE_AFTER_HEAL_MS = 2000.0

#: One transaction attempt's outcome.
OK = "ok"
FAIL = "fail"
INDETERMINATE = "indeterminate"

#: Errors after which a transaction definitely did not commit and the
#: client may simply try again later.
RETRYABLE = (TransactionRetryError, TransactionAbortedError,
             RangeUnavailableError, NetworkUnavailableError,
             FollowerReadNotAvailableError)


class Testbed:
    """A seeded cluster + coordinator and the steps experiments share."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, seed: int, regions: Iterable[str] = REGIONS,
                 protocol=None, rng_seed: Optional[int] = None,
                 obs_enabled: bool = False):
        self.seed = seed
        self.regions = list(regions)
        self.home = self.regions[0]
        # protocol=None keeps the CRDB default; "epoch-occ" runs the
        # same schedules against the optimistic backend.
        self.cluster = standard_cluster(self.regions, seed=seed,
                                        obs_enabled=obs_enabled,
                                        txn_protocol=protocol)
        self.coord = TransactionCoordinator(self.cluster)
        self.ds = self.coord.distsender
        self.rng = random.Random(seed if rng_seed is None else rng_seed)
        self.clock_monitor = None
        self.liveness: Optional[StoreLiveness] = None
        self.repair_queue: Optional[ReplicateQueue] = None

    @property
    def sim(self):
        return self.cluster.sim

    # -- assembly ----------------------------------------------------------

    def zone_config(self, home: Optional[str] = None,
                    goal: str = SurvivalGoal.REGION):
        return zone_config_for_home(home or self.home,
                                    self.cluster.regions(), goal)

    def provision(self, name: str, config, retransmit: bool = True,
                  **policy):
        """A hardened range placed per ``config``; ``policy`` carries
        the closed-timestamp knobs (``global_reads``,
        ``closed_ts_lag_ms``).  ``retransmit=False`` is for runs that
        inject no packet loss and want no retransmission timers."""
        return provision_range(
            self.cluster, config, name=name,
            side_transport_interval_ms=SIDE_TRANSPORT_INTERVAL_MS,
            proposal_timeout_ms=PROPOSAL_TIMEOUT_MS,
            retransmit_interval_ms=(RETRANSMIT_INTERVAL_MS if retransmit
                                    else None),
            **policy)

    def enable_clock_monitor(self) -> None:
        self.clock_monitor = install_clock_monitor(self.cluster)

    def _start_liveness(self, time_until_store_dead_ms: float) -> None:
        self.liveness = StoreLiveness(
            self.cluster, heartbeat_interval_ms=HEARTBEAT_INTERVAL_MS,
            time_until_store_dead_ms=time_until_store_dead_ms)

    def enable_repair(self, managed: Iterable[Tuple[Any, Any]]) -> None:
        """Self-healing: store liveness plus a replicate queue watching
        ``managed`` — (range, zone config) pairs."""
        self._start_liveness(TIME_UNTIL_STORE_DEAD_MS)
        self.repair_queue = ReplicateQueue(self.cluster, self.liveness,
                                           interval_ms=REPAIR_INTERVAL_MS)
        for rng, config in managed:
            self.repair_queue.manage(rng, config)
        self.repair_queue.start()

    def enable_rebalance(self, rng, config,
                         time_until_store_dead_ms: float =
                         TIME_UNTIL_STORE_DEAD_MS,
                         interval_ms: float = REPAIR_INTERVAL_MS,
                         **thresholds) -> None:
        """Like :meth:`enable_repair`, but ``rng``'s span is watched by
        a rebalance queue, which also splits, merges and moves leases
        after the workload.  Clients keep routing through ``rng``."""
        self._start_liveness(time_until_store_dead_ms)
        self.repair_queue = RebalanceQueue(
            self.cluster, self.liveness, interval_ms=interval_ms,
            **thresholds)
        self.repair_queue.manage_span(rng.span, config)
        self.repair_queue.start()

    # -- transactions ------------------------------------------------------

    @staticmethod
    def increment(token, key: str) -> Callable:
        """The counter workload's transaction body: read-modify-write."""
        def txn_fn(txn):
            value = yield from txn.read(token, key)
            yield from txn.write(token, key, (value or 0) + 1, commit=True)
        return txn_fn

    def attempt(self, gateway, txn_fn, coord=None, **run_kwargs) -> Generator:
        """Coroutine: run one transaction (with the coordinator's own
        retries) and classify how it ended as ``(status, value,
        error_name)``.  An ambiguous commit is INDETERMINATE, a
        :data:`RETRYABLE` give-up is FAIL, and anything else is a bug
        and propagates."""
        try:
            value, _ts = yield from (coord or self.coord).run(
                gateway, txn_fn, **run_kwargs)
        except AmbiguousCommitError as err:
            return INDETERMINATE, None, type(err).__name__
        except RETRYABLE as err:
            return FAIL, None, type(err).__name__
        return OK, value, ""

    def run_txn(self, gateway, txn_fn, **run_kwargs):
        """Drive the simulation until one transaction commits; returns
        its result (set-up writes and audit reads)."""
        value, _ts = self.sim.run_until_future(self.sim.spawn(
            self.coord.run(gateway, txn_fn, **run_kwargs)))
        return value

    # -- the run -----------------------------------------------------------

    def run_clients(self, clients: Iterable[Generator]) -> None:
        """Spawn every client coroutine, then run until all finished —
        joining the clients (not a fixed horizon), so retries that
        outlast the issue window still complete before the audit."""
        processes = [self.sim.spawn(client) for client in clients]
        for process in processes:
            self.sim.run_until_future(process)

    def start_nemesis(self, events: List, base_ms: Optional[float] = None):
        """Arm ``events`` relative to ``base_ms`` (default: now)."""
        nemesis = Nemesis(self.cluster, events)
        nemesis.schedule(base_ms=base_ms)
        return nemesis

    def heal_and_settle(self, nemesis=None, restart_dead: bool = True) -> None:
        """Heal the world (``restart_dead=False`` keeps permanent
        losses lost) and let replication and repair catch up."""
        if nemesis is not None:
            nemesis.heal_all(restart_dead=restart_dead)
        self.sim.run(until=self.sim.now + SETTLE_AFTER_HEAL_MS)

    def audit(self, txn_fn, regions: Optional[Iterable[str]] = None,
              label: str = "") -> Dict[str, Any]:
        """Strong-read ``txn_fn`` from the first live node of every
        auditable region; returns region -> result.  Regions with no
        live node (permanent loss) are skipped — clients there no
        longer exist either."""
        network = self.cluster.network
        results: Dict[str, Any] = {}
        for region in (regions or self.regions):
            live = [n for n in self.cluster.nodes_in_region(region)
                    if not network.node_is_dead(n.node_id)]
            if live:
                results[region] = self.run_txn(
                    live[0], txn_fn,
                    label=f"{label}-{region}" if label else None)
        return results
