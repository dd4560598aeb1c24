"""Multi-region TPC-C (paper §7.4, Fig 6).

The schema follows the paper's multi-region adaptation: ``item`` is a
GLOBAL table (never updated after import, read by every new-order), and
the eight remaining tables are REGIONAL BY ROW with ``crdb_region``
computed from the warehouse id, so all rows of a warehouse live in its
region.

Transactions implement the TPC-C skeleton that drives the latency and
scalability results: the standard mix, per-district order-id sequencing
(the contention point), and the ~10% of new-order transactions that
touch a remote warehouse.  Row counts are scaled down for simulation
(the protocol work per transaction — reads, writes, commits, regions
crossed — is what Fig 6 measures, not bytes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Tuple

from ..obs.report import LatencyRecorder
from ..sim.clock import Timestamp
from ..sql import ast
from ..sql.session import Session

__all__ = ["TPCCOptions", "TPCCWorkload", "TPCC_TABLES"]

TPCC_TABLES = ("warehouse", "district", "customer", "history", "orders",
               "new_order", "order_line", "stock", "item")

#: Standard TPC-C transaction mix.
_MIX = (("new_order", 0.45), ("payment", 0.43), ("order_status", 0.04),
        ("delivery", 0.04), ("stock_level", 0.04))


@dataclass
class TPCCOptions:
    warehouses_per_region: int = 2
    districts_per_warehouse: int = 5
    customers_per_district: int = 10
    items: int = 50
    #: Fraction of new-order transactions hitting a remote warehouse
    #: (the paper reports ~10%).
    remote_warehouse_fraction: float = 0.10
    #: Per-transaction keying/think time.  TPC-C throughput is think-time
    #: bound (the spec's cycle is ~23 s); a nonzero value here makes
    #: throughput scale with terminals rather than with latency, which is
    #: what lets the paper report >97% efficiency.
    think_time_ms: float = 0.0
    seed: int = 0


class TPCCWorkload:
    """Schema, loader, and transaction mix for one TPC-C deployment."""

    def __init__(self, engine, regions: List[str], options: TPCCOptions,
                 database: str = "tpcc"):
        self.engine = engine
        self.regions = list(regions)
        self.options = options
        self.database = database
        self._order_counter = 10_000

    # -- schema ------------------------------------------------------------------

    def schema_ddl(self) -> List[str]:
        """The multi-region TPC-C DDL (counted in Table 2)."""
        options = self.options
        others = ", ".join(f'"{r}"' for r in self.regions[1:])
        case = self._warehouse_region_case()
        region_col = f"crdb_region crdb_internal_region AS ({case}) STORED"
        statements = [
            f'CREATE DATABASE {self.database} PRIMARY REGION '
            f'"{self.regions[0]}"' + (f" REGIONS {others}" if others else ""),
            f"CREATE TABLE warehouse (w_id int PRIMARY KEY, name string, "
            f"ytd float, {region_col}) LOCALITY REGIONAL BY ROW",
            f"CREATE TABLE district (w_id int, d_id int, next_o_id int, "
            f"ytd float, PRIMARY KEY (w_id, d_id), {region_col}) "
            f"LOCALITY REGIONAL BY ROW",
            f"CREATE TABLE customer (w_id int, d_id int, c_id int, "
            f"name string, balance float, PRIMARY KEY (w_id, d_id, c_id), "
            f"{region_col}) LOCALITY REGIONAL BY ROW",
            f"CREATE TABLE history (w_id int, d_id int, c_id int, "
            f"h_id int, amount float, PRIMARY KEY (w_id, d_id, c_id, h_id), "
            f"{region_col}) LOCALITY REGIONAL BY ROW",
            f"CREATE TABLE orders (w_id int, d_id int, o_id int, "
            f"c_id int, carrier_id int, PRIMARY KEY (w_id, d_id, o_id), "
            f"{region_col}) LOCALITY REGIONAL BY ROW",
            f"CREATE TABLE new_order (w_id int, d_id int, o_id int, "
            f"PRIMARY KEY (w_id, d_id, o_id), {region_col}) "
            f"LOCALITY REGIONAL BY ROW",
            f"CREATE TABLE order_line (w_id int, d_id int, o_id int, "
            f"ol_number int, i_id int, qty int, "
            f"PRIMARY KEY (w_id, d_id, o_id, ol_number), {region_col}) "
            f"LOCALITY REGIONAL BY ROW",
            f"CREATE TABLE stock (w_id int, i_id int, quantity int, "
            f"PRIMARY KEY (w_id, i_id), {region_col}) "
            f"LOCALITY REGIONAL BY ROW",
            "CREATE TABLE item (i_id int PRIMARY KEY, name string, "
            "price float) LOCALITY GLOBAL",
        ]
        return statements

    def _warehouse_region_case(self) -> str:
        per = self.options.warehouses_per_region
        whens = []
        for i, region in enumerate(self.regions[:-1]):
            whens.append(f"WHEN w_id < {(i + 1) * per} THEN '{region}'")
        return f"CASE {' '.join(whens)} ELSE '{self.regions[-1]}' END"

    def setup(self) -> Session:
        session = self.engine.connect(self.regions[0])
        for statement in self.schema_ddl():
            session.execute(statement)
        return session

    # -- data loading (bulk ingest, like CRDB IMPORT) -------------------------------

    def load(self) -> None:
        options = self.options
        database = self.engine.catalog.database(self.database)
        offset = self.engine.cluster.max_clock_offset + 1.0

        def ingest(table_name: str, rows: List[Dict[str, Any]]) -> None:
            table = database.table(table_name)
            region_col = table.region_column
            by_partition: Dict[str, List[Tuple[Any, Any]]] = {}
            for row in rows:
                partition = row[region_col] if region_col else ""
                pk = tuple(row[c] for c in table.primary_key)
                by_partition.setdefault(partition, []).append((pk, row))
            for partition, items in by_partition.items():
                rng = table.primary_index.partitions[partition]
                ts = Timestamp(
                    rng.leaseholder_node.clock.now().physical - offset)
                rng.bulk_ingest(items, ts)

        n_warehouses = options.warehouses_per_region * len(self.regions)
        warehouses, districts, customers, stocks = [], [], [], []
        for w_id in range(n_warehouses):
            region = self.region_of_warehouse(w_id)
            warehouses.append({"w_id": w_id, "name": f"wh-{w_id}",
                               "ytd": 0.0, "crdb_region": region})
            for d_id in range(options.districts_per_warehouse):
                districts.append({"w_id": w_id, "d_id": d_id,
                                  "next_o_id": 1, "ytd": 0.0,
                                  "crdb_region": region})
                for c_id in range(options.customers_per_district):
                    customers.append({
                        "w_id": w_id, "d_id": d_id, "c_id": c_id,
                        "name": f"cust-{w_id}-{d_id}-{c_id}",
                        "balance": 0.0, "crdb_region": region})
            for i_id in range(options.items):
                stocks.append({"w_id": w_id, "i_id": i_id, "quantity": 100,
                               "crdb_region": region})
        ingest("warehouse", warehouses)
        ingest("district", districts)
        ingest("customer", customers)
        ingest("stock", stocks)
        ingest("item", [{"i_id": i, "name": f"item-{i}",
                         "price": 1.0 + (i % 9)}
                        for i in range(options.items)])

    def region_of_warehouse(self, w_id: int) -> str:
        index = min(w_id // self.options.warehouses_per_region,
                    len(self.regions) - 1)
        return self.regions[index]

    def warehouses_in_region(self, region: str) -> List[int]:
        per = self.options.warehouses_per_region
        index = self.regions.index(region)
        return list(range(index * per, (index + 1) * per))

    # -- transaction bodies --------------------------------------------------------

    def _next_order_id(self) -> int:
        self._order_counter += 1
        return self._order_counter

    def new_order(self, handle, rng: random.Random, w_id: int) -> Generator:
        """The NewOrder transaction: district sequence, item reads
        (GLOBAL), stock updates, order/order-line inserts."""
        options = self.options
        d_id = rng.randrange(options.districts_per_warehouse)
        c_id = rng.randrange(options.customers_per_district)
        n_items = rng.randint(3, 6)  # scaled from TPC-C's 5-15

        rows = yield from handle.execute(
            f"SELECT next_o_id FROM district WHERE w_id = {w_id} "
            f"AND d_id = {d_id}")
        o_id = rows[0]["next_o_id"]
        yield from handle.execute(
            f"UPDATE district SET next_o_id = {o_id + 1} "
            f"WHERE w_id = {w_id} AND d_id = {d_id}")
        yield from handle.execute(
            f"SELECT balance FROM customer WHERE w_id = {w_id} "
            f"AND d_id = {d_id} AND c_id = {c_id}")
        order_key = self._next_order_id()
        yield from handle.execute(
            f"INSERT INTO orders (w_id, d_id, o_id, c_id, carrier_id) "
            f"VALUES ({w_id}, {d_id}, {order_key}, {c_id}, 0)")
        yield from handle.execute(
            f"INSERT INTO new_order (w_id, d_id, o_id) "
            f"VALUES ({w_id}, {d_id}, {order_key})")

        remote = rng.random() < options.remote_warehouse_fraction
        for ol_number in range(n_items):
            i_id = rng.randrange(options.items)
            supply_w = w_id
            if remote and ol_number == 0:
                candidates = [w for w in range(
                    options.warehouses_per_region * len(self.regions))
                    if self.region_of_warehouse(w) !=
                    self.region_of_warehouse(w_id)]
                if candidates:
                    supply_w = rng.choice(candidates)
            # item is GLOBAL: this read is region-local (§2.3.3).
            yield from handle.execute(
                f"SELECT price FROM item WHERE i_id = {i_id}")
            rows = yield from handle.execute(
                f"SELECT quantity FROM stock WHERE w_id = {supply_w} "
                f"AND i_id = {i_id}")
            quantity = rows[0]["quantity"] if rows else 100
            new_quantity = quantity - 1 if quantity > 10 else quantity + 91
            yield from handle.execute(
                f"UPDATE stock SET quantity = {new_quantity} "
                f"WHERE w_id = {supply_w} AND i_id = {i_id}")
            yield from handle.execute(
                f"INSERT INTO order_line (w_id, d_id, o_id, ol_number, "
                f"i_id, qty) VALUES ({w_id}, {d_id}, {order_key}, "
                f"{ol_number}, {i_id}, 1)")
        return o_id

    def payment(self, handle, rng: random.Random, w_id: int) -> Generator:
        options = self.options
        d_id = rng.randrange(options.districts_per_warehouse)
        c_id = rng.randrange(options.customers_per_district)
        amount = 1.0 + rng.random() * 100.0
        rows = yield from handle.execute(
            f"SELECT ytd FROM warehouse WHERE w_id = {w_id}")
        ytd = rows[0]["ytd"] if rows else 0.0
        yield from handle.execute(
            f"UPDATE warehouse SET ytd = {ytd + amount} WHERE w_id = {w_id}")
        rows = yield from handle.execute(
            f"SELECT ytd FROM district WHERE w_id = {w_id} "
            f"AND d_id = {d_id}")
        d_ytd = rows[0]["ytd"] if rows else 0.0
        yield from handle.execute(
            f"UPDATE district SET ytd = {d_ytd + amount} "
            f"WHERE w_id = {w_id} AND d_id = {d_id}")
        rows = yield from handle.execute(
            f"SELECT balance FROM customer WHERE w_id = {w_id} "
            f"AND d_id = {d_id} AND c_id = {c_id}")
        balance = rows[0]["balance"] if rows else 0.0
        h_id = self._next_order_id()
        yield from handle.execute(
            f"UPDATE customer SET balance = {balance - amount} "
            f"WHERE w_id = {w_id} AND d_id = {d_id} AND c_id = {c_id}")
        yield from handle.execute(
            f"INSERT INTO history (w_id, d_id, c_id, h_id, amount) "
            f"VALUES ({w_id}, {d_id}, {c_id}, {h_id}, {amount})")
        return None

    def order_status(self, handle, rng: random.Random,
                     w_id: int) -> Generator:
        options = self.options
        d_id = rng.randrange(options.districts_per_warehouse)
        c_id = rng.randrange(options.customers_per_district)
        yield from handle.execute(
            f"SELECT balance FROM customer WHERE w_id = {w_id} "
            f"AND d_id = {d_id} AND c_id = {c_id}")
        return None

    def delivery(self, handle, rng: random.Random, w_id: int) -> Generator:
        options = self.options
        d_id = rng.randrange(options.districts_per_warehouse)
        rows = yield from handle.execute(
            f"SELECT next_o_id FROM district WHERE w_id = {w_id} "
            f"AND d_id = {d_id}")
        return rows

    def stock_level(self, handle, rng: random.Random,
                    w_id: int) -> Generator:
        i_id = rng.randrange(self.options.items)
        yield from handle.execute(
            f"SELECT quantity FROM stock WHERE w_id = {w_id} "
            f"AND i_id = {i_id}")
        return None

    # -- the client loop -------------------------------------------------------------

    def client(self, session: Session, recorder: LatencyRecorder,
               n_txns: int, client_id: int) -> Generator:
        """A terminal bound to one home warehouse, running the mix."""
        sim = self.engine.cluster.sim
        region = session.region
        home_warehouses = self.warehouses_in_region(region)
        rng = random.Random(self.options.seed * 7919 + client_id)
        w_id = home_warehouses[client_id % len(home_warehouses)]
        for _ in range(n_txns):
            kind = self._pick_txn(rng)
            body = getattr(self, kind)

            def txn_body(handle, body=body, rng=rng, w_id=w_id):
                result = yield from body(handle, rng, w_id)
                return result

            start = sim.now
            yield from session.run_txn_co(txn_body)
            recorder.record((kind, region), sim.now - start)
            if self.options.think_time_ms > 0:
                yield sim.sleep(self.options.think_time_ms)
        return None

    def _pick_txn(self, rng: random.Random) -> str:
        u = rng.random()
        acc = 0.0
        for kind, weight in _MIX:
            acc += weight
            if u < acc:
                return kind
        return _MIX[-1][0]
