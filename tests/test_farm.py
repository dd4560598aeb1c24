"""The sweep farm's contract: parallel == sequential, byte for byte.

Chaos/verify/scale runs are deterministic from their job
coordinates, so farming them across processes must be invisible in the
output: the merged document from N workers is byte-identical to the
sequential one.  These tests pin that, plus the merge canonicalization
(ordering, nondeterministic-key scrubbing, job expansion).
"""

import json

import pytest

from repro.harness.farm import (
    _scrub,
    default_workers,
    dumps_sweep,
    merge_results,
    run_farm,
    run_job,
    sweep_jobs,
)


class TestMergeCanonicalization:
    def test_merge_orders_by_kind_scenario_seed(self):
        records = [
            {"kind": "verify", "scenario": "none", "seed": 1, "ok": True},
            {"kind": "chaos", "scenario": "b", "seed": 0, "ok": True},
            {"kind": "chaos", "scenario": "a", "seed": 2, "ok": True},
            {"kind": "chaos", "scenario": "a", "seed": 0, "ok": True},
        ]
        doc = merge_results(records)
        coords = [(r["kind"], r["scenario"], r["seed"])
                  for r in doc["runs"]]
        assert coords == sorted(coords)
        assert doc["ok"] and doc["total"] == 4 and doc["failed"] == []

    def test_merge_is_completion_order_independent(self):
        records = [{"kind": "chaos", "scenario": f"s{i}", "seed": i % 3,
                    "ok": i != 4} for i in range(8)]
        import random
        shuffled = records[:]
        random.Random(7).shuffle(shuffled)
        assert dumps_sweep(merge_results(records)) == \
            dumps_sweep(merge_results(shuffled))
        assert merge_results(records)["failed"] == ["chaos/s4/seed=1"]

    def test_scrub_removes_wall_clock_fields_recursively(self):
        record = {"ok": True, "wall_s": 1.23,
                  "report": {"wall_s": 9.9, "events": 10,
                             "runs": [{"pid": 4, "sim_ms": 1.0}]}}
        assert _scrub(record) == {
            "ok": True,
            "report": {"events": 10, "runs": [{"sim_ms": 1.0}]}}

    def test_default_workers(self):
        assert default_workers(3) == 3
        assert default_workers(None) >= 1
        assert default_workers(None) <= 8


class TestJobExpansion:
    def test_sweep_jobs_cross_product(self):
        jobs = sweep_jobs(["verify"], ["none", "crash-restart"], [0, 1, 2])
        assert len(jobs) == 6
        assert {(j["scenario"], j["seed"]) for j in jobs} == {
            (name, seed) for name in ("none", "crash-restart")
            for seed in (0, 1, 2)}

    def test_sweep_jobs_default_is_each_kinds_sweep_set(self):
        from repro.chaos.overload import SCENARIOS as OVERLOAD
        from repro.verify import SCENARIOS as VERIFY
        jobs = sweep_jobs(["verify", "overload"], None, [0])
        assert [j["scenario"] for j in jobs if j["kind"] == "overload"] == \
            list(OVERLOAD)
        assert [j["scenario"] for j in jobs if j["kind"] == "verify"] == \
            [name for name, row in VERIFY.items() if "crdb" in row.sweeps]
        # The overload runs take no backend: an epoch-OCC sweep skips them.
        assert sweep_jobs(["overload"], None, [0], protocol="epoch-occ") \
            == []

    def test_sweep_jobs_protocol_rides_on_every_job(self):
        jobs = sweep_jobs(["verify"], ["crash-restart"], [0, 1],
                          protocol="epoch-occ")
        assert [j["protocol"] for j in jobs] == ["epoch-occ"] * 2

    def test_sweep_jobs_scale_has_no_scenario_axis(self):
        # One curve per seed, whatever the scenario filter says.
        expected = [{"kind": "scale", "scenario": "scale-curve", "seed": 0},
                    {"kind": "scale", "scenario": "scale-curve", "seed": 1}]
        assert sweep_jobs(["scale"], None, [0, 1]) == expected
        assert sweep_jobs(["scale"], ["crash-restart"], [0, 1]) == expected

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sweep_jobs(["frobnicate"], None, [0])
        with pytest.raises(ValueError):
            run_job({"kind": "frobnicate"})
        # A registry verb that is not a farmable experiment.
        with pytest.raises(ValueError):
            sweep_jobs(["rebalance"], None, [0])


#: The guard set: two scenarios x seeds {0, 1, 2}, one cell on the
#: other transaction backend (sub-second each).
_GUARD_JOBS = (
    sweep_jobs(["verify"], ["crash-restart"], [0, 1, 2])
    + sweep_jobs(["verify"], ["none"], [0, 1])
    + sweep_jobs(["verify"], ["crash-restart"], [0], protocol="epoch-occ"))


class TestFarmDeterminism:
    def test_parallel_merge_byte_identical_to_sequential(self):
        sequential = merge_results(run_farm(_GUARD_JOBS, workers=1))
        parallel = merge_results(run_farm(_GUARD_JOBS, workers=2))
        assert dumps_sweep(parallel) == dumps_sweep(sequential)
        # And the document is genuinely free of wall-clock noise.
        assert "wall_s" not in dumps_sweep(parallel)
        assert parallel["total"] == 6 and parallel["ok"]

    def test_job_records_are_stable_and_carry_their_coordinates(self):
        job = {"kind": "verify", "scenario": "crash-restart", "seed": 0,
               "protocol": "epoch-occ"}
        record = run_job(job)
        assert {k: record[k] for k in job} == job
        assert record["ok"] and record["report"]["stats"]["txns_recorded"] > 0
        # Same job, same bytes: the per-job payload itself is stable.
        assert json.dumps(record, sort_keys=True) == \
            json.dumps(run_job(job), sort_keys=True)
        assert "protocol" not in run_job(
            {"kind": "verify", "scenario": "crash-restart", "seed": 0})
