"""Tier-2 randomized consistency sweep: every chaos scenario x seeds.

Run with ``pytest -m verify``.  Each case drives the seeded random
transaction generator under a nemesis schedule and asserts the full
Elle-style check comes back clean; on failure, the dumped history JSON
is embedded so the violation can be replayed offline with
``python -m repro verify --check``.
"""

import pytest

from repro.verify import SCENARIOS, VerifyHarness, check, run_verify
from repro.verify.generator import INSERT_KEYS

SEEDS = range(5)

pytestmark = pytest.mark.verify

#: The clock-fault scenarios have their own sweep (``pytest -m clock``,
#: test_clock_sweep.py) — the fencing-off ablation *expects* anomalies,
#: so it does not belong in an anomaly-free assertion.
SWEEP_SCENARIOS = [name for name, row in SCENARIOS.items()
                   if "crdb" in row.sweeps and "clock" not in row.sweeps]


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
def test_the_probe_that_convicts_is_clean_with_the_guard_on(seed):
    """The ``one-phase-reapply`` lost-reply schedule against the shipped
    pipeline: the re-send is answered from the record, at the first
    timestamp."""
    harness = VerifyHarness(seed)
    harness._init_keys()
    harness.sim.run(until=harness.sim.now + 600.0)
    harness.run_clients([harness.reapply_probe()])
    harness.heal_and_settle()
    harness.recorder.final = harness._audit()
    history = harness.recorder.finalize()
    report = check(history)
    assert report.ok, report.render()
    assert harness.sim.obs.registry.value("distsender.rpc_retries") >= 1
    assert harness.coord.stats.one_phase_commits >= 2


@pytest.mark.parametrize("seed", SEEDS)
def test_the_orphan_that_convicts_is_clean_with_the_registry_on(seed):
    """The ``forget-before-resolve`` orphaned-intent schedule against the
    shipped registry: the transaction stays registered while its resolve
    is dropped, so the pusher finds it committed and reads its write."""
    harness = VerifyHarness(seed)
    harness._init_keys()
    harness.sim.run(until=harness.sim.now + 600.0)
    harness.run_clients([harness.forget_probe()])
    harness.heal_and_settle()
    harness.recorder.final = harness._audit()
    history = harness.recorder.finalize()
    report = check(history)
    assert report.ok, report.render()
    (orphan,) = [t for t in history.txns if t.label == "probe-orphan"]
    (push,) = [t for t in history.txns if t.label == "probe-push"]
    assert orphan.status == push.status == "committed"
    assert push.reads()[0].value == f"probe-orphan:{orphan.txn_id}"


@pytest.mark.parametrize("scenario", ["flaky-wan", "split-merge",
                                      "crash-restart"])
@pytest.mark.parametrize("seed", SEEDS)
def test_the_inserts_that_convict_are_clean_with_the_check_on(scenario, seed):
    """The ``cput-blind`` insert race against the shipped check: every
    key has one inserter, and the loser reads the winner's row."""
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
