"""The seven benchmark workloads.

Every workload is three steps the driver in ``run.py`` times separately:

``generate(seed)``   the inputs, made here from the seed and nothing else;
``setup(inputs, seed)``  cluster build + DDL + load + closed-timestamp settle;
``run(state, inputs, mark, lap)``  the timed region: client loops to
                     completion.  ``mark(op_id)`` tags the op about to be
                     issued (traced run); ``lap()`` is called between
                     independent slices of a repetition so the driver can
                     take a calibration sample there.

``run`` returns a :class:`RepResult`; its ``problems`` list is the output
check (empty = correct).  The client loops live here, not in
``repro.harness``, so harness refactors cannot change what is measured.
Why each workload exists is in its ``why`` (and in ``bench/README.md``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.cluster import standard_cluster
from repro.harness.openloop import OpenLoopConfig, OpenLoopHarness
from repro.harness.runner import sessions_per_region
from repro.sql import ast
from repro.sql.session import Engine
from repro.verify import VerifyHarness
from repro.workloads.movr import CITY_REGIONS, new_multi_region_schema_ddl
from repro.workloads.tpcc import TPCCOptions, TPCCWorkload
from repro.workloads.ycsb import YCSBOptions, YCSBWorkload

__all__ = ["REGIONS", "RepResult", "WORKLOADS", "percentile"]

#: Table-1 regions; closed-loop workloads run 2 clients in each.
REGIONS = ("us-east1", "us-west1", "europe-west2")
CLIENTS_PER_REGION = 2
N_CLIENTS = len(REGIONS) * CLIENTS_PER_REGION
#: Simulated warm-up so closed timestamps reach followers; part of set-up.
SETTLE_MS = 1000.0
#: Client-op ids are ``client_id * OP_STRIDE + i`` (the traced run tags
#: spans with them).
OP_STRIDE = 1_000_000

Mark = Callable[[int], None]
Lap = Callable[[], None]


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of a pre-sorted list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = -(-q * len(sorted_values) // 100)  # ceil
    return sorted_values[max(0, min(len(sorted_values) - 1, int(rank) - 1))]


@dataclass
class RepResult:
    """What one repetition produced."""

    #: Recorded workload operations (attempted).
    ops: int
    #: Ops that succeeded, within their deadline where one exists.
    good: int
    #: Ops the *model* refused, shed, served late or aborted - expected
    #: under overload and faults.
    refused: int
    #: Ops that broke the workload's expectation (an error where none
    #: may occur); any makes the run incorrect.
    failed: int
    #: Simulated client latency of every completed op (ms).
    latencies: List[float]
    #: Simulated duration of the timed region (ms).
    sim_ms: float
    #: ``good`` per simulated second.  Closed loop: summed over clients,
    #: each over its own active time.  ``verify_sweep``: the mean of its
    #: runs' rates (a ratio of totals would be set by whichever run a
    #: fault stalled longest).
    goodput_per_s: float
    #: Events the kernel dispatched during the timed region.
    events: int
    #: Per-layer ledger entries that come from results, not spans.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Output-check failures.
    problems: List[str] = field(default_factory=list)
    #: Ops ``good`` and ``refused`` were counted among, where that is not
    #: all of ``ops`` (``openloop``: the 4x leg's offered requests).
    judged: Optional[int] = None

    @property
    def failed_share(self) -> float:
        return self.refused / (self.judged or self.ops)


class _Tally:
    """Shared by a repetition's client loops."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.by_kind: Dict[str, List[float]] = {}
        self.failed = 0
        self.problems: List[str] = []

    def record(self, kind: str, latency: float) -> None:
        self.latencies.append(latency)
        self.by_kind.setdefault(kind, []).append(latency)

    def problem(self, what: str) -> None:
        if len(self.problems) < 8:
            self.problems.append(what)

    def fail(self, where: str, exc: BaseException) -> None:
        self.failed += 1
        self.problem(f"{where}: {type(exc).__name__}: {exc}")


class _ClosedLoop:
    """2 clients x 3 regions, no think time, one shared simulation."""

    name = ""
    why = ""
    #: Shims (``trace.SHIMS`` names) that must fire on this workload.
    expects: Tuple[str, ...] = ()
    obs_enabled = False
    txn_protocol: Optional[str] = None

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def _count(self, per_client: int) -> int:
        return max(2, int(round(per_client * self.scale)))

    def _engine(self, seed: int) -> Engine:
        # The evaluation's standard knobs (harness.runner.build_engine).
        cluster = standard_cluster(
            list(REGIONS), max_clock_offset=250.0, skew_fraction=0.05,
            jitter_fraction=0.02, seed=seed, obs_enabled=self.obs_enabled,
            trace_sample_every=1, txn_protocol=self.txn_protocol)
        return Engine(cluster, seed=seed)

    @staticmethod
    def _settle(engine: Engine) -> None:
        sim = engine.cluster.sim
        sim.run(until=sim.now + SETTLE_MS)

    @staticmethod
    def _drive(engine: Engine, clients: List[Generator], tally: _Tally,
               ops_per_client: List[int]) -> RepResult:
        """Run the client loops to completion.  Goodput is the sum of the
        clients' own rates (ops over the time that client was active), so
        the ragged end - one client still finishing a slow transaction
        while five are done - does not pass for lost throughput."""
        sim = engine.cluster.sim
        started_ms, started_events = sim.now, sim.events_processed
        finished_ms: Dict[int, float] = {}

        def until_done(index: int, client: Generator) -> Generator:
            yield from client
            finished_ms[index] = sim.now

        processes = [sim.spawn(until_done(i, client), name=f"client-{i}")
                     for i, client in enumerate(clients)]
        for process in processes:
            sim.run_until_future(process)
        ops = sum(ops_per_client)
        good = len(tally.latencies)
        if good + tally.failed != ops:
            tally.problem(f"recorded {good} + failed {tally.failed} "
                          f"!= generated {ops}")
        offered_per_s = sum(
            count * 1000.0 / (finished_ms[i] - started_ms)
            for i, count in enumerate(ops_per_client))
        return RepResult(
            ops=ops, good=good, refused=0, failed=tally.failed,
            latencies=tally.latencies, sim_ms=sim.now - started_ms,
            goodput_per_s=offered_per_s * good / ops,
            events=sim.events_processed - started_events,
            problems=tally.problems)


# -- kv / kv_obs ------------------------------------------------------------


#: Shims every transactional workload drives: kernel, network, Raft,
#: MVCC, DistSender, range serving, coordinator.
_KV_STACK = ("Network.send", "Network.call", "RaftGroup.propose",
             "RaftGroup._on_ack", "MVCCStore.get", "MVCCStore.put_intent",
             "MVCCStore.resolve_intent", "DistSender.read",
             "DistSender.write", "DistSender.resolve_intents",
             "Range.serve_read", "Range.serve_write",
             "TransactionCoordinator.run")
_SQL_TEXT = ("parse", "Executor.insert", "Executor.select",
             "Executor.update")


class KV(_ClosedLoop):
    name = "kv"
    why = ("YCSB-A on home-region rows: ~1.4 sim-ms and ~30 events per op, "
           "so per-op fixed cost (SQL executor, txn, DistSender, local "
           "Raft quorum) dominates and timers barely count")
    expects = _KV_STACK + ("Simulator.run_until_future",
                           "Transaction.commit", "Executor.select",
                           "Executor.update")
    KEYS_PER_REGION = 200
    OPS_PER_CLIENT = 260

    def generate(self, seed: int) -> List[List[Tuple[int, Optional[str]]]]:
        """Per client: (key, None) reads and (key, value) updates, 50/50,
        uniform over the client's home-region keys."""
        n = self._count(self.OPS_PER_CLIENT)
        inputs = []
        for client_id in range(N_CLIENTS):
            rng = random.Random(seed * 7919 + client_id)
            base = (client_id // CLIENTS_PER_REGION) * self.KEYS_PER_REGION
            ops: List[Tuple[int, Optional[str]]] = []
            for i in range(n):
                key = base + rng.randrange(self.KEYS_PER_REGION)
                is_read = rng.random() < 0.5
                ops.append((key, None if is_read else f"u{client_id}-{i}"))
            inputs.append(ops)
        return inputs

    def setup(self, inputs, seed: int):
        engine = self._engine(seed)
        workload = YCSBWorkload(engine, list(REGIONS), YCSBOptions(
            variant="A", mode="default", distribution="uniform",
            keys_per_region=self.KEYS_PER_REGION, seed=seed))
        workload.setup()
        workload.load()
        sessions = sessions_per_region(engine, REGIONS, CLIENTS_PER_REGION,
                                       "ycsb")
        # Prebuilt ASTs: this workload bypasses the parser by design.
        statements = []
        for ops in inputs:
            built = []
            for key, value in ops:
                where = ast.Comparison("=", ast.ColumnRef("id"),
                                       ast.Literal(key))
                if value is None:
                    built.append(ast.Select(table="usertable",
                                            columns=["field0"], where=where))
                else:
                    built.append(ast.Update(
                        table="usertable",
                        assignments=[("field0", ast.Literal(value))],
                        where=where))
            statements.append(built)
        self._settle(engine)
        return engine, sessions, statements

    def run(self, state, inputs, mark: Mark, lap: Lap) -> RepResult:
        engine, sessions, statements = state
        sim = engine.cluster.sim
        tally = _Tally()
        #: key -> every value a read may legitimately return.
        written: Dict[int, set] = {}

        def client(client_id: int) -> Generator:
            session = sessions[client_id]
            base = client_id * OP_STRIDE
            for i, ((key, value), stmt) in enumerate(
                    zip(inputs[client_id], statements[client_id])):
                mark(base + i)
                if value is not None:
                    written.setdefault(key, {f"value-{key}"}).add(value)
                start = sim.now
                try:
                    rows = yield from session.execute_stmt_co(stmt)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    tally.fail(f"kv op {base + i}", exc)
                    continue
                if value is not None:
                    tally.record("update", sim.now - start)
                    continue
                tally.record("read", sim.now - start)
                legal = written.get(key) or {f"value-{key}"}
                if len(rows) != 1 or rows[0]["field0"] not in legal:
                    tally.problem(f"read of key {key} returned {rows!r}")

        return self._drive(engine, [client(c) for c in range(N_CLIENTS)],
                           tally, [len(ops) for ops in inputs])


class KVObs(KV):
    name = "kv_obs"
    why = ("kv with obs_enabled=True and every trace sampled: the only "
           "workload where repro.obs does work; every other bypasses it")
    obs_enabled = True


# -- movr -------------------------------------------------------------------


class Movr(_ClosedLoop):
    name = "movr"
    why = ("SQL-text movr: WAN uniqueness checks, LOS reads, GLOBAL reads "
           "beside GLOBAL writes paying commit wait; long sim time per op "
           "makes timers, liveness, side transport and the parser work")
    expects = _KV_STACK + _SQL_TEXT + (
        "Simulator.run_until_future", "Transaction.commit",
        "Transaction._commit_wait_if_needed")
    ITERATIONS_PER_CLIENT = 60
    #: Codes 0..READ_CODES-1 are read, the WRITE_CODES after them written:
    #: the same GLOBAL table and range, but no read ever waits on a
    #: writer's intent, so the GLOBAL-read check holds on every seed.
    READ_CODES = 100
    WRITE_CODES = 20
    #: Every Nth iteration also writes a promo code (GLOBAL write).
    WRITE_EVERY = 20

    def generate(self, seed: int):
        """Per client and iteration: (user id, home city, promo code to
        read, promo code to write or None)."""
        n = self._count(self.ITERATIONS_PER_CLIENT)
        inputs = []
        for client_id in range(N_CLIENTS):
            rng = random.Random(seed * 104729 + client_id)
            region = REGIONS[client_id // CLIENTS_PER_REGION]
            cities = sorted(c for c, r in CITY_REGIONS.items() if r == region)
            iterations = []
            for i in range(n):
                write = (self.READ_CODES + rng.randrange(self.WRITE_CODES)
                         if i % self.WRITE_EVERY == 0 else None)
                iterations.append((client_id * OP_STRIDE + i,
                                   rng.choice(cities),
                                   rng.randrange(self.READ_CODES), write))
            inputs.append(iterations)
        return inputs

    def setup(self, inputs, seed: int):
        engine = self._engine(seed)
        home = engine.connect(REGIONS[0])
        for statement in new_multi_region_schema_ddl(list(REGIONS)):
            home.execute(statement)
        home.execute("USE movr")
        rows = ", ".join(f"('promo-{k}', 'initial-{k}')"
                         for k in range(self.READ_CODES + self.WRITE_CODES))
        home.execute(
            f"INSERT INTO promo_codes (code, description) VALUES {rows}")
        sessions = sessions_per_region(engine, REGIONS, CLIENTS_PER_REGION,
                                       "movr")
        self._settle(engine)
        return engine, sessions

    def run(self, state, inputs, mark: Mark, lap: Lap) -> RepResult:
        engine, sessions = state
        sim = engine.cluster.sim
        tally = _Tally()

        def step(session, kind: str, op_id: int, sql: str) -> Generator:
            mark(op_id)
            start = sim.now
            try:
                rows = yield from session.execute_co(sql)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                tally.fail(f"movr {kind} {op_id}", exc)
                return None
            tally.record(kind, sim.now - start)
            return rows

        def client(client_id: int) -> Generator:
            session = sessions[client_id]
            for uid, city, read_code, write_code in inputs[client_id]:
                yield from step(
                    session, "insert", uid,
                    f"INSERT INTO users (id, city, name) "
                    f"VALUES ({uid}, '{city}', 'user-{uid}')")
                rows = yield from step(
                    session, "select", uid,
                    f"SELECT name FROM users WHERE id = {uid}")
                if rows is not None and rows != [{"name": f"user-{uid}"}]:
                    tally.problem(f"read-back of user {uid} gave {rows!r}")
                rows = yield from step(
                    session, "global_read", uid,
                    f"SELECT description FROM promo_codes "
                    f"WHERE code = 'promo-{read_code}'")
                if rows is not None and len(rows) != 1:
                    tally.problem(f"promo-{read_code} read gave {rows!r}")
                if write_code is not None:
                    yield from step(
                        session, "global_write", uid,
                        f"UPDATE promo_codes SET description = 'by-{uid}' "
                        f"WHERE code = 'promo-{write_code}'")

        result = self._drive(
            engine, [client(c) for c in range(N_CLIENTS)], tally,
            [sum(3 + (write is not None) for *_rest, write in iterations)
             for iterations in inputs])
        kinds = {k: sorted(v) for k, v in tally.by_kind.items()}
        model = {
            "model.global_read_p99_ms":
                percentile(kinds.get("global_read", []), 99),
            "model.global_write_p50_ms":
                percentile(kinds.get("global_write", []), 50),
            "model.regional_home_p50_ms":
                percentile(kinds.get("select", []), 50),
        }
        result.extra.update(model)
        # Paper fidelity: GLOBAL reads are local everywhere, GLOBAL
        # writes pay max_clock_offset in commit wait.
        if not model["model.global_read_p99_ms"] < 10.0:
            result.problems.append(
                f"GLOBAL read p99 {model['model.global_read_p99_ms']:.2f} "
                f"sim-ms is not < 10")
        if not model["model.global_write_p50_ms"] > 250.0:
            result.problems.append(
                f"GLOBAL write p50 {model['model.global_write_p50_ms']:.2f} "
                f"sim-ms is not > 250")
        return result


# -- tpcc / tpcc_epoch ------------------------------------------------------

#: Standard TPC-C transaction mix.
_TPCC_MIX = (("new_order", 0.45), ("payment", 0.43), ("order_status", 0.04),
             ("delivery", 0.04), ("stock_level", 0.04))


class TPCC(_ClosedLoop):
    name = "tpcc"
    why = ("TPC-C mix, CRDB protocol: multi-statement multi-key txns "
           "(~450 events each) through intents, lock table, parallel "
           "commit, refresh and DistSender fan-out")
    expects = _KV_STACK + _SQL_TEXT + (
        "Simulator.run_until_future", "Transaction.commit",
        "LockTable.wait_for", "LockTable.release")
    TXNS_PER_CLIENT = 20

    def _options(self, seed: int) -> TPCCOptions:
        return TPCCOptions(warehouses_per_region=2, districts_per_warehouse=3,
                           customers_per_district=5, items=25, seed=seed)

    def generate(self, seed: int):
        """Per client: the transaction kinds in order, and the seed of the
        stream the transaction bodies draw their parameters from.

        The kinds are dealt from one shuffled deck that holds the mix
        exactly (the TPC-C spec's card-deck method): a new-order costs ~10x
        an order-status, so with independent draws a repetition's host cost
        would follow how many new-orders its seed happened to draw."""
        n = self._count(self.TXNS_PER_CLIENT) * N_CLIENTS
        rng = random.Random(seed * 15485863)
        shares = [(weight * n, kind) for kind, weight in _TPCC_MIX]
        deck = [kind for share, kind in shares for _ in range(int(share))]
        # Largest remainders fill the deck up to n.
        for _share, kind in sorted(
                shares, key=lambda s: s[0] - int(s[0]), reverse=True):
            if len(deck) < n:
                deck.append(kind)
        rng.shuffle(deck)
        return [(deck[client_id::N_CLIENTS], rng.randrange(1 << 30))
                for client_id in range(N_CLIENTS)]

    def setup(self, inputs, seed: int):
        engine = self._engine(seed)
        workload = TPCCWorkload(engine, list(REGIONS), self._options(seed))
        workload.setup()
        workload.load()
        sessions = sessions_per_region(engine, REGIONS, CLIENTS_PER_REGION,
                                       "tpcc")
        self._settle(engine)
        return engine, sessions, workload

    def run(self, state, inputs, mark: Mark, lap: Lap) -> RepResult:
        engine, sessions, workload = state
        sim = engine.cluster.sim
        tally = _Tally()

        def client(client_id: int) -> Generator:
            session = sessions[client_id]
            kinds, body_seed = inputs[client_id]
            rng = random.Random(body_seed)
            home = workload.warehouses_in_region(session.region)
            w_id = home[client_id % len(home)]
            for i, kind in enumerate(kinds):
                body = getattr(workload, kind)
                mark(client_id * OP_STRIDE + i)
                start = sim.now
                try:
                    yield from session.run_txn_co(
                        lambda handle, body=body: body(handle, rng, w_id))
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    tally.fail(f"tpcc {kind} {client_id}/{i}", exc)
                    continue
                tally.record(kind, sim.now - start)

        result = self._drive(engine, [client(c) for c in range(N_CLIENTS)],
                             tally, [len(kinds) for kinds, _s in inputs])
        self._check_books(sessions[0], inputs, result)
        return result

    @staticmethod
    def _check_books(session, inputs, result: RepResult) -> None:
        """Payment adds one amount to a warehouse and one of its districts
        atomically, and every new-order takes one district order id - so
        the books must balance under either protocol.  Runs after the
        timed region's counters were read."""
        if result.failed:
            return
        warehouse = {r["w_id"]: r["ytd"] for r in session.execute(
            "SELECT w_id, ytd FROM warehouse")}
        districts = session.execute(
            "SELECT w_id, ytd, next_o_id FROM district")
        for w_id, ytd in sorted(warehouse.items()):
            by_district = sum(d["ytd"] for d in districts
                              if d["w_id"] == w_id)
            if abs(ytd - by_district) > 1e-6 * max(1.0, abs(ytd)):
                result.problems.append(
                    f"warehouse {w_id} ytd {ytd} != districts {by_district}")
        orders = sum(d["next_o_id"] - 1 for d in districts)
        expected = sum(kinds.count("new_order") for kinds, _s in inputs)
        if orders != expected:
            result.problems.append(
                f"{orders} district order ids taken, {expected} new-orders")


class TPCCEpoch(TPCC):
    name = "tpcc_epoch"
    why = ("the same TPC-C inputs under epoch-OCC: buffered writes, epoch "
           "seal, validation - a shared-layer change that helps one "
           "protocol and hurts the other shows here")
    txn_protocol = "epoch-occ"
    expects = _KV_STACK + _SQL_TEXT + (
        "Simulator.run_until_future", "LockTable.release",
        "EpochService.submit", "EpochTransaction.commit",
        "DistSender.epoch_order")


# -- openloop ---------------------------------------------------------------


class OpenLoop:
    name = "openloop"
    why = ("open-loop Poisson arrivals at 1x/2x/4x of 450 req/s/region, "
           "KV-only, admission on, Zipf 0.8, 250 ms deadline: queueing, "
           "shedding and goodput under overload; bypasses SQL")
    expects = _KV_STACK + (
        "Simulator.run", "Transaction.commit",
        "AdmissionController.admit_co", "AdmissionController.store_work",
        "LockTable.wait_for")
    MULTIPLIERS = (1, 2, 4)
    DURATION_MS = 1000.0

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def generate(self, seed: int) -> List[OpenLoopConfig]:
        """One config per leg; the harness draws arrivals, keys and
        priorities from the seed in it."""
        return [OpenLoopConfig(
            regions=REGIONS, rate_per_s=450.0, load_multiplier=float(m),
            duration_ms=max(200.0, self.DURATION_MS * self.scale),
            deadline_ms=250.0, write_fraction=0.25, zipf_theta=0.8,
            admission=True, seed=seed, obs_enabled=False)
            for m in self.MULTIPLIERS]

    def setup(self, inputs, seed: int) -> List[OpenLoopHarness]:
        return [OpenLoopHarness(config) for config in inputs]

    def run(self, state, inputs, mark: Mark, lap: Lap) -> RepResult:
        problems: List[str] = []
        extra: Dict[str, float] = {}
        ops = events = unexpected = 0
        for leg, harness in enumerate(state):
            if leg:
                lap()
            result = harness.run()
            cfg = result.config
            m = int(cfg.load_multiplier)
            stats = list(result.per_region.values())
            other = sum(s.failed for s in stats)
            overloaded = sum(s.overloaded for s in stats)
            late = result.completed - result.good
            accounted = (result.good + late + result.rejected + result.shed
                         + overloaded + other)
            if result.offered != accounted:
                problems.append(f"{m}x: offered {result.offered} != "
                                f"accounted {accounted}")
            unexpected += other
            if m == 1:
                # Below capacity nothing may be refused or late.
                unexpected += result.offered - result.good - other
            ops += result.offered
            events += result.events
            extra[f"admission.goodput_share_{m}x"] = (
                result.good / result.offered)
            extra[f"admission.p99_ms_{m}x"] = result.p99_ms
            # A DES arrival fires at its due sim-time, so the generator
            # is never late; the latency clock starts at the due time.
            extra["openloop.generator_lateness_ms"] = 0.0
        overload = result  # the last leg: sim_* metrics are the 4x leg's
        capacity = cfg.store_capacity_per_s * len(cfg.regions)
        if overload.goodput_per_s < 0.8 * capacity:
            problems.append(f"{m}x goodput {overload.goodput_per_s:.0f}/s "
                            f"< 80% of capacity {capacity:.0f}/s")
        if unexpected:
            problems.append(f"{unexpected} requests failed outside overload")
        return RepResult(
            ops=ops, good=overload.good,
            refused=overload.offered - overload.good, failed=unexpected,
            latencies=overload.latencies(), sim_ms=overload.duration_ms,
            goodput_per_s=overload.goodput_per_s,
            events=events, extra=extra, problems=problems,
            judged=overload.offered)


# -- verify_sweep -----------------------------------------------------------


class VerifySweep:
    name = "verify_sweep"
    why = ("what CI and the farm run all day: nemesis faults, Raft "
           "elections, DistSender retries/breakers, split/merge, the "
           "history recorder and the Elle checker, 7 scenarios per rep")
    #: Faults drop messages, so RPC attempts must fail and be retried: a
    #: zero ``kv.distsender.retries_per_op`` here means the count is blind.
    expects = _KV_STACK + (
        "Simulator.run", "Simulator.run_until_future", "Network._drop",
        "CircuitBreaker.record_failure", "Transaction.commit", "check")
    SCENARIOS = ("region-blackout", "rolling-zones", "flaky-wan",
                 "gray-follower", "asym-partition", "crash-restart",
                 "split-merge")

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def generate(self, seed: int) -> List[Tuple[str, int]]:
        """(scenario, seed) pairs; the harness makes its transactions and
        fault times from the seed.  Each scenario gets a seed of its own:
        with one shared seed all seven runs replay the same client plan,
        and the pooled metrics vary with the seed as if from one run."""
        return [(scenario, seed * 10 + k)
                for k, scenario in enumerate(self.SCENARIOS)]

    def setup(self, inputs, seed: int) -> List[VerifyHarness]:
        return [VerifyHarness(run_seed) for _scenario, run_seed in inputs]

    def run(self, state, inputs, mark: Mark, lap: Lap) -> RepResult:
        ops_per_client = max(2, int(round(8 * self.scale)))
        stale_ops = max(1, int(round(6 * self.scale)))
        latencies: List[float] = []
        problems: List[str] = []
        ops = good = refused = failed = events = 0
        sim_ms = 0.0
        rates: List[float] = []
        for harness, (scenario, run_seed) in zip(state, inputs):
            if ops:
                lap()
            started_events = harness.sim.events_processed
            result = harness.run(scenario=scenario,
                                 ops_per_client=ops_per_client,
                                 stale_ops=stale_ops)
            events += harness.sim.events_processed - started_events
            sim_ms += result.duration_ms
            committed = good
            if not result.ok:
                failed += len(result.history.txns)
                problems.append(
                    f"{scenario} seed {run_seed}: "
                    f"{len(result.report.anomalies)} anomalies")
            for txn in result.history.txns:
                ops += 1
                if txn.status == "committed" and txn.end_ms is not None:
                    good += 1
                    latencies.append(txn.end_ms - txn.begin_ms)
                elif (txn.status == "indeterminate"
                      or txn.abort_kind == "fatal"):
                    refused += 1
            rates.append((good - committed) * 1000.0 / result.duration_ms)
        return RepResult(ops=ops, good=good, refused=refused, failed=failed,
                         latencies=latencies, sim_ms=sim_ms,
                         goodput_per_s=sum(rates) / len(rates),
                         events=events, problems=problems)


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (KV, KVObs, Movr, TPCC, TPCCEpoch, OpenLoop,
                        VerifySweep)}
