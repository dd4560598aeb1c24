"""Tests for the YCSB workload generator and its table modes."""

import pytest

from repro.harness.runner import build_engine, run_clients, sessions_per_region
from repro.obs.report import LatencyRecorder
from repro.workloads.ycsb import YCSB_MODES, YCSBOptions, YCSBWorkload
from repro.workloads.zipf import UniformGenerator, ZipfGenerator

REGIONS = ["us-east1", "us-west1", "europe-west2"]


def make_workload(mode="default", **kwargs):
    engine = build_engine(REGIONS, jitter_fraction=0.0)
    options = YCSBOptions(mode=mode, keys_per_region=50, **kwargs)
    workload = YCSBWorkload(engine, REGIONS, options)
    workload.setup()
    workload.load()
    return engine, workload


class TestDistributions:
    def test_zipf_range_and_determinism(self):
        gen_a = ZipfGenerator(100, seed=7)
        gen_b = ZipfGenerator(100, seed=7)
        draws_a = [gen_a.next() for _ in range(500)]
        draws_b = [gen_b.next() for _ in range(500)]
        assert draws_a == draws_b
        assert all(0 <= d < 100 for d in draws_a)

    def test_zipf_skew(self):
        gen = ZipfGenerator(1000, seed=1)
        draws = [gen.next() for _ in range(5000)]
        counts = {}
        for d in draws:
            counts[d] = counts.get(d, 0) + 1
        top = max(counts.values())
        # The hottest key should take far more than a uniform share.
        assert top > 5 * (5000 / 1000)

    def test_uniform_range(self):
        gen = UniformGenerator(10, seed=2)
        draws = [gen.next() for _ in range(1000)]
        assert set(draws) == set(range(10))

    def test_rejects_empty_keyspace(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)
        with pytest.raises(ValueError):
            UniformGenerator(0)


class TestSetupModes:
    @pytest.mark.parametrize("mode", YCSB_MODES)
    def test_all_modes_build(self, mode):
        engine, workload = make_workload(mode=mode)
        table = engine.catalog.database("ycsb").table("usertable")
        if mode in ("global",):
            assert table.locality.is_global
        elif mode in ("regional_table",):
            assert table.locality.is_regional_by_table
        else:
            assert table.locality.is_regional_by_row

    def test_unoptimized_disables_los(self):
        engine, workload = make_workload(mode="unoptimized")
        table = engine.catalog.database("ycsb").table("usertable")
        assert not table.locality_optimized_search

    def test_baseline_suppresses_uniqueness(self):
        engine, workload = make_workload(mode="baseline")
        table = engine.catalog.database("ycsb").table("usertable")
        assert table.suppress_uniqueness_checks

    def test_rehoming_sets_on_update(self):
        engine, workload = make_workload(mode="rehoming")
        table = engine.catalog.database("ycsb").table("usertable")
        assert table.auto_rehoming


class TestKeyLayout:
    def test_slice_layout_for_default_mode(self):
        engine, workload = make_workload(mode="default")
        assert workload._make_key(0, 5) == 5
        assert workload._make_key(2, 5) == 105
        assert workload._key_region_index(105) == 2

    def test_modular_layout_for_computed_mode(self):
        engine, workload = make_workload(mode="computed")
        key = workload._make_key(1, 7)
        assert key % 3 == 1
        assert workload._key_region_index(key) == 1

    def test_loaded_rows_in_right_partitions(self):
        engine, workload = make_workload(mode="default")
        table = engine.catalog.database("ycsb").table("usertable")
        for region in REGIONS:
            rng = table.primary_index.partitions[region]
            keys = rng.leaseholder_replica.store.keys()
            assert len(keys) == 50
            for (key,) in keys:
                assert workload._region_of_key(key) == region

    def test_insert_keys_unique_and_fresh(self):
        engine, workload = make_workload(mode="default")
        seen = set()
        for client in range(5):
            for _ in range(20):
                key = workload.next_insert_key("us-west1", client)
                assert key >= workload.total_keys()
                assert key not in seen
                seen.add(key)

    def test_insert_keys_modular_mode_land_locally(self):
        engine, workload = make_workload(mode="computed")
        key = workload.next_insert_key("us-west1", 0)
        assert workload._region_of_key(key) == "us-west1"

    def test_remote_pool_disjoint_across_clients(self):
        engine, workload = make_workload(mode="default",
                                         remote_pool_keys=5)
        pool_a = set(workload.remote_pool("us-east1", 0))
        pool_b = set(workload.remote_pool("us-east1", 2))
        assert pool_a and pool_b
        assert pool_a.isdisjoint(pool_b)

    def test_contended_pool_shared(self):
        engine, workload = make_workload(mode="rehoming", contended_keys=4)
        pool = workload.contended_pool()
        assert len(pool) == 4
        assert all(workload._region_of_key(k) == "us-east1" for k in pool)


class TestClientLoop:
    def _run(self, workload, engine, n_ops=30, clients_per_region=1,
             **client_kwargs):
        recorder = LatencyRecorder()
        sessions = sessions_per_region(engine, REGIONS, clients_per_region,
                                       "ycsb")
        clients = [
            (lambda s=s, i=i: workload.client(s, recorder, n_ops, i,
                                              **client_kwargs))
            for i, s in enumerate(sessions)
        ]
        run_clients(engine, clients, recorder, settle_ms=500.0)
        return recorder

    def test_variant_b_mix(self):
        engine, workload = make_workload(mode="default")
        recorder = self._run(workload, engine, n_ops=60)
        reads = recorder.count("read")
        updates = recorder.count("update")
        assert reads + updates == 180
        assert reads > updates * 5  # 95/5 mix

    def test_variant_a_mix(self):
        engine, workload = make_workload(mode="regional_table")
        workload.options.variant = "A"
        workload.options.distribution = "zipf"
        recorder = self._run(workload, engine, n_ops=60)
        reads = recorder.count("read")
        updates = recorder.count("update")
        assert abs(reads - updates) < 60  # roughly 1:1

    def test_variant_d_inserts(self):
        engine, workload = make_workload(mode="default")
        workload.options.variant = "D"
        recorder = self._run(workload, engine, n_ops=60)
        assert recorder.count("insert") > 0

    def test_warmup_not_recorded(self):
        engine, workload = make_workload(mode="default")
        recorder = self._run(workload, engine, n_ops=10, warmup_ops=10)
        assert recorder.total_ops() == 30  # 10 per client, 3 clients

    def test_stale_reads_recorded(self):
        engine, workload = make_workload(mode="regional_table")
        workload.options.read_staleness_ms = 30_000.0
        recorder = self._run(workload, engine, n_ops=40)
        remote_reads = recorder.samples("read", "local", "europe-west2")
        assert remote_reads
        # Stale reads from a non-primary region stay local-fast.
        assert sorted(remote_reads)[len(remote_reads) // 2] < 10.0
