"""Tests for the multi-region TPC-C workload."""

import random

import pytest

from repro.harness.runner import build_engine, run_clients, sessions_per_region
from repro.obs.report import LatencyRecorder
from repro.workloads.tpcc import TPCC_TABLES, TPCCOptions, TPCCWorkload

REGIONS = ["us-east1", "us-west1", "europe-west2"]


@pytest.fixture(scope="module")
def loaded():
    engine = build_engine(REGIONS, jitter_fraction=0.0)
    workload = TPCCWorkload(engine, REGIONS, TPCCOptions(
        warehouses_per_region=2, districts_per_warehouse=3,
        customers_per_district=5, items=20))
    workload.setup()
    workload.load()
    return engine, workload


class TestSchema:
    def test_all_tables_created(self, loaded):
        engine, _ = loaded
        database = engine.catalog.database("tpcc")
        for name in TPCC_TABLES:
            assert name in database.tables

    def test_item_is_global(self, loaded):
        engine, _ = loaded
        assert engine.catalog.database("tpcc").table("item") \
            .locality.is_global

    def test_other_tables_regional_by_row(self, loaded):
        engine, _ = loaded
        database = engine.catalog.database("tpcc")
        for name in TPCC_TABLES:
            if name == "item":
                continue
            assert database.table(name).locality.is_regional_by_row, name

    def test_warehouse_region_mapping(self, loaded):
        _, workload = loaded
        assert workload.region_of_warehouse(0) == "us-east1"
        assert workload.region_of_warehouse(1) == "us-east1"
        assert workload.region_of_warehouse(2) == "us-west1"
        assert workload.region_of_warehouse(5) == "europe-west2"

    def test_warehouses_in_region(self, loaded):
        _, workload = loaded
        assert workload.warehouses_in_region("us-west1") == [2, 3]

    def test_warehouse_rows_in_home_partitions(self, loaded):
        engine, workload = loaded
        table = engine.catalog.database("tpcc").table("warehouse")
        for region in REGIONS:
            rng = table.primary_index.partitions[region]
            keys = rng.leaseholder_replica.store.keys()
            assert len(keys) == 2  # warehouses_per_region


class TestTransactions:
    def _run_one(self, engine, workload, region, body_name, w_id):
        session = engine.connect(region)
        session.database = engine.catalog.database("tpcc")
        rng = random.Random(1)
        body = getattr(workload, body_name)

        def txn_body(handle):
            result = yield from body(handle, rng, w_id)
            return result

        sim = engine.cluster.sim
        process = sim.spawn(session.run_txn_co(txn_body))
        return sim.run_until_future(process)

    def test_new_order_increments_district_sequence(self, loaded):
        engine, workload = loaded
        o_id_1 = self._run_one(engine, workload, "us-east1", "new_order", 0)
        o_id_2 = self._run_one(engine, workload, "us-east1", "new_order", 0)
        # Repeated new-orders on the same warehouse observe an advancing
        # district sequence (not necessarily consecutive: the random
        # district differs per call).
        assert isinstance(o_id_1, int) and isinstance(o_id_2, int)

    def test_new_order_writes_order_rows(self, loaded):
        engine, workload = loaded
        session = engine.connect("us-west1")
        session.database = engine.catalog.database("tpcc")
        before = workload._order_counter
        self._run_one(engine, workload, "us-west1", "new_order", 2)
        order_key = workload._order_counter
        assert order_key > before
        rows = session.execute(
            f"SELECT o_id FROM orders WHERE w_id = 2 AND d_id = 1 "
            f"AND o_id = {order_key}")
        # The order may have used any district; scan the possibilities.
        found = any(
            session.execute(
                f"SELECT o_id FROM orders WHERE w_id = 2 AND d_id = {d} "
                f"AND o_id = {order_key}")
            for d in range(workload.options.districts_per_warehouse))
        assert found

    def test_payment_moves_balance(self, loaded):
        engine, workload = loaded
        self._run_one(engine, workload, "europe-west2", "payment", 4)
        session = engine.connect("europe-west2")
        session.database = engine.catalog.database("tpcc")
        rows = session.execute("SELECT ytd FROM warehouse WHERE w_id = 4")
        assert rows and rows[0]["ytd"] > 0.0

    def test_order_status_and_stock_level_read_only(self, loaded):
        engine, workload = loaded
        self._run_one(engine, workload, "us-east1", "order_status", 1)
        self._run_one(engine, workload, "us-east1", "stock_level", 1)


class TestMixAndClients:
    def test_mix_proportions(self):
        engine = build_engine(REGIONS, jitter_fraction=0.0)
        workload = TPCCWorkload(engine, REGIONS, TPCCOptions())
        rng = random.Random(5)
        picks = [workload._pick_txn(rng) for _ in range(2000)]
        fraction = picks.count("new_order") / len(picks)
        assert 0.40 <= fraction <= 0.50

    def test_client_loop_records_latencies(self):
        engine = build_engine(REGIONS, jitter_fraction=0.0)
        workload = TPCCWorkload(engine, REGIONS, TPCCOptions(
            warehouses_per_region=1, districts_per_warehouse=2,
            customers_per_district=3, items=10))
        workload.setup()
        workload.load()
        recorder = LatencyRecorder()
        sessions = sessions_per_region(engine, REGIONS, 1, "tpcc")
        clients = [
            (lambda s=s, i=i: workload.client(s, recorder, 10, i))
            for i, s in enumerate(sessions)
        ]
        run_clients(engine, clients, recorder, settle_ms=3000.0)
        assert recorder.total_ops() == 30
        assert engine.coordinator.stats.committed >= 30

    def test_think_time_slows_wall_clock(self):
        engine = build_engine(REGIONS, jitter_fraction=0.0)
        workload = TPCCWorkload(engine, REGIONS, TPCCOptions(
            warehouses_per_region=1, districts_per_warehouse=2,
            customers_per_district=3, items=10, think_time_ms=500.0))
        workload.setup()
        workload.load()
        recorder = LatencyRecorder()
        session = engine.connect("us-east1")
        session.database = engine.catalog.database("tpcc")
        run_clients(engine,
                    [lambda: workload.client(session, recorder, 5, 0)],
                    recorder, settle_ms=3000.0)
        duration = recorder.finished_at - recorder.started_at
        assert duration >= 5 * 500.0
