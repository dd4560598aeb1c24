"""Tier-2 randomized consistency sweep: every chaos scenario x seeds.

Run with ``pytest -m verify``.  Each case drives the seeded random
transaction generator under a nemesis schedule and asserts the full
Elle-style check comes back clean; on failure, the dumped history JSON
is embedded so the violation can be replayed offline with
``python -m repro verify --check``.
"""

import pytest

from repro.verify import (
    CLOCK_SCENARIOS,
    CPUT_ABLATION_SCENARIO,
    REAPPLY_ABLATION_SCENARIO,
    VERIFY_SCENARIOS,
    VerifyHarness,
    check,
    run_verify,
)
from repro.verify.generator import (CPUT_REQUIRED_TYPES, INSERT_KEYS,
                                    REAPPLY_REQUIRED_TYPES)

SEEDS = range(5)

pytestmark = pytest.mark.verify

#: The clock-fault scenarios have their own sweep (``pytest -m clock``,
#: test_clock_sweep.py) — the fencing-off ablation *expects* anomalies,
#: so it does not belong in an anomaly-free assertion.
SWEEP_SCENARIOS = [s for s in VERIFY_SCENARIOS if s not in CLOCK_SCENARIOS]


@pytest.mark.parametrize("scenario", SWEEP_SCENARIOS)
@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_history_is_anomaly_free(scenario, seed):
    result = run_verify(scenario, seed=seed)
    assert result.ok, (
        f"{scenario} seed={seed} found anomalies:\n"
        f"{result.report.render()}\n"
        f"--- replayable history ---\n{result.history.dumps()}")


@pytest.mark.parametrize("scenario", ["crash-restart"])
def test_sweep_results_are_replayable(scenario):
    result = run_verify(scenario, seed=0)
    from repro.verify import VerifyHistory, check
    replayed = check(VerifyHistory.loads(result.history.dumps()))
    assert replayed.dumps() == result.report.dumps()


@pytest.mark.parametrize("seed", SEEDS)
def test_reapply_ablation_is_convicted(seed):
    """Without the commit record in the one-phase entry a re-sent write
    lands twice, and the checker must say so — a sweep that stays clean
    with the guard off proves nothing about the guard."""
    result = run_verify(REAPPLY_ABLATION_SCENARIO, seed=seed)
    found = {a.type for a in result.report.anomalies}
    assert found & REAPPLY_REQUIRED_TYPES, (
        f"re-apply ablation seed={seed} produced no duplicate-write / "
        f"lost-update class anomaly (found {sorted(found)})")
    assert result.ok, (
        f"ablation seed={seed} flagged unexpected anomaly types "
        f"{sorted(found)}:\n{result.report.render()}")


@pytest.mark.parametrize("seed", SEEDS)
def test_the_probe_that_convicts_is_clean_with_the_guard_on(seed):
    """The identical lost-reply schedule against the shipped pipeline:
    the re-send is answered from the record, at the first timestamp."""
    harness = VerifyHarness(seed)
    harness._init_keys()
    harness.sim.run(until=harness.sim.now + 600.0)
    harness.run_clients([harness.reapply_probe()])
    harness.heal_and_settle()
    harness.recorder.final = harness._audit()
    history = harness.recorder.finalize()
    report = check(history)
    assert report.ok, report.render()
    assert harness.ds.rpc_retries >= 1
    assert harness.coord.stats.one_phase_commits >= 2


@pytest.mark.parametrize("seed", SEEDS)
def test_cput_ablation_is_convicted(seed):
    """With the leaseholder's condition check off both inserters of a
    key succeed, and the checker must say so — an INSERT race that stays
    clean with the check off proves nothing about the check."""
    result = run_verify(CPUT_ABLATION_SCENARIO, seed=seed)
    found = {a.type for a in result.report.anomalies}
    assert found & CPUT_REQUIRED_TYPES, (
        f"cput-blind seed={seed} produced no lost-update / G-single "
        f"(found {sorted(found)})")
    assert result.ok, (
        f"ablation seed={seed} flagged unexpected anomaly types "
        f"{sorted(found)}:\n{result.report.render()}")


@pytest.mark.parametrize("scenario", ["flaky-wan", "split-merge",
                                      "crash-restart"])
@pytest.mark.parametrize("seed", SEEDS)
def test_the_inserts_that_convict_are_clean_with_the_check_on(scenario, seed):
    """The identical insert race against the shipped check: every key
    has one inserter, and the loser reads the winner's row."""
    result = run_verify(scenario, seed=seed, inserters=2)
    assert result.ok, (
        f"{scenario} seed={seed} with inserters:\n"
        f"{result.report.render()}\n"
        f"--- replayable history ---\n{result.history.dumps()}")
    inserts = {}
    for txn in result.history.txns:
        if txn.status == "committed" and txn.label.startswith("ins-"):
            for op in txn.writes():
                if op.key.startswith("reg-us/i"):
                    inserts.setdefault(op.key, []).append(txn.txn_id)
    assert len(inserts) == len(INSERT_KEYS)
    assert all(len(writers) == 1 for writers in inserts.values())
