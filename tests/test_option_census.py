"""Every option has a caller.

An option earns its place when two shipped callers want different
values from it.  These pins hold the constructor and entry-point
signatures to the parameters something actually sets, so a setting no
workload, experiment, example or benchmark uses cannot come back
unnoticed.  The transaction backend is chosen per cluster
(``standard_cluster(txn_protocol=)``), one name for each cluster;
every coordinator on it runs that backend.
"""

import dataclasses
import inspect

import pytest

import repro.admission
import repro.sim
from repro.admission import (AdmissionConfig, AdmissionController,
                             TokenBucket, WorkQueue)
from repro.kv.distsender import DistSender, _Batch
from repro.kv.range import Range
from repro.placement.rebalance import RebalanceQueue
from repro.sim.network import FaultPlane, Network
from repro.sql import Engine, Session
from repro.txn import (EpochOccProtocol, TransactionCoordinator,
                       resolve_protocol)
from repro.txn.epoch import EpochService
from repro.verify import VerifyHarness, VerifyScenario

from .sql_util import make_engine


def params(fn):
    return list(inspect.signature(fn).parameters)


@pytest.mark.parametrize("fn, expected", [
    (Engine.__init__,
     ["self", "cluster", "side_transport_interval_ms", "closed_ts_lag_ms",
      "seed"]),
    # ``protocol`` survives only because the frozen bench/micro.py:168
    # names epoch-OCC for a coordinator on a default cluster; it may
    # name the cluster's backend, or choose it on a cluster without one.
    (TransactionCoordinator.__init__, ["self", "cluster", "protocol"]),
    (TransactionCoordinator.begin,
     ["self", "gateway", "parent_span", "label", "deadline_ms"]),
    (TransactionCoordinator.run,
     ["self", "gateway", "txn_fn", "max_attempts", "parent_span", "label",
      "deadline_ms", "tenant"]),
    (EpochOccProtocol, []),
    (EpochService.__init__, ["self", "cluster", "distsender"]),
    (Session.run_txn_co, ["self", "txn_body", "parent_span"]),
    (resolve_protocol, ["name"]),
    (DistSender.__init__, ["self", "cluster"]),
    # One request per range, whatever its size: one key is a batch of
    # one.  ``read`` stays one key: its NEAREST routing picks a replica
    # per key, and its LEASEHOLDER routing is ``_leaseholder_read``.
    (Range.serve_read,
     ["self", "keys", "ts", "txn_id", "uncertainty_limit",
      "allow_server_side_bump", "span", "deadline_ms"]),
    (Range.serve_write,
     ["self", "items", "ts", "txn_id", "anchor_node_id", "span",
      "deadline_ms", "commit", "can_forward", "expect_absent", "pipelined",
      "txn_span"]),
    (Range.serve_resolve_intent,
     ["self", "keys", "txn_id", "commit_ts", "span"]),
    (DistSender.read,
     ["self", "gateway", "token", "key", "ts", "txn_id",
      "uncertainty_limit", "routing", "allow_server_side_bump", "span",
      "deadline_ms"]),
    (DistSender._leaseholder_read,
     ["self", "gateway", "token", "keys", "ts", "txn_id",
      "uncertainty_limit", "allow_server_side_bump", "span",
      "deadline_ms"]),
    (DistSender.write,
     ["self", "gateway", "token", "items", "ts", "txn_id", "anchor_node_id",
      "span", "deadline_ms", "commit", "can_forward", "expect_absent",
      "pipelined"]),
    (DistSender.resolve_intent,
     ["self", "gateway", "token", "keys", "txn_id", "commit_ts", "span"]),
    (DistSender.resolve, ["self", "token", "key"]),
    (DistSender._leaseholder_call,
     ["self", "gateway", "token", "handler", "span", "op", "deadline_ms",
      "keys", "record_load"]),
    (_Batch.__init__, ["self", "ds", "requests", "handler"]),
    # The one harness that runs a nemesis: a row of the scenario table
    # says everything else (see test_verify_scenario_fields).
    # obs_enabled: `repro trace/metrics --scenario` read the spans and
    # samples; the bench, `repro verify` and the farm do not.
    (VerifyHarness.__init__, ["self", "seed", "protocol", "obs_enabled"]),
    # One admission queue in front of either granter: the gateway's
    # token bucket or a store's evaluation slots.  A store unit is
    # always NORMAL priority and costs store_service_ms.
    (WorkQueue.__init__,
     ["self", "sim", "granter", "name", "op", "metrics", "max_depth",
      "registry", "labels"]),
    (WorkQueue.admit, ["self", "priority", "deadline_ms"]),
    (TokenBucket.__init__, ["self", "rate_per_s", "burst", "now_ms"]),
    (AdmissionController.store_work, ["self", "node_id", "deadline_ms"]),
    (RebalanceQueue.__init__,
     ["self", "cluster", "liveness", "interval_ms", "split_max_keys",
      "split_qps", "merge_qps", "merge_patience", "lease_cooldown_ms"]),
], ids=lambda value: getattr(value, "__qualname__", None))
def test_signature(fn, expected):
    assert params(fn) == expected


def test_verify_scenario_fields():
    """What a fault scenario may set: one row of repro.verify.SCENARIOS."""
    assert [f.name for f in dataclasses.fields(VerifyScenario)] == [
        "doc", "faults", "setup", "probes", "inserters", "restart_dead",
        "protocol", "verdict", "sweeps", "audit"]


def test_admission_config_fields():
    """One protections switch: every caller turned the gateway queues
    and the retry budgets on or off together."""
    assert [f.name for f in dataclasses.fields(AdmissionConfig)] == [
        "rate_per_s", "burst", "max_queue_depth", "store_slots",
        "store_service_ms", "protections"]


def test_one_admission_queue():
    for name in ("AdmissionQueue", "StoreWorkQueue"):
        assert not hasattr(repro.admission, name), name
    for name in ("give", "available"):
        assert not hasattr(TokenBucket, name), name


def test_fixed_settings_are_class_attributes():
    assert TransactionCoordinator.spanner_style_commit_wait is False


def test_session_has_no_unset_fields():
    session = make_engine().connect("us-east1")
    for name in ("statement_timeout_ms", "tenant", "priority",
                 "txn_protocol"):
        assert not hasattr(session, name), name


def test_one_form_per_fault():
    for name in ("partition_region", "heal_region", "clear_partitions"):
        assert not hasattr(FaultPlane, name), name
        assert not hasattr(Network, name), name
    assert not hasattr(Network, "revive_node")
    assert not hasattr(repro.sim, "quorum_of")


def test_one_serve_method_per_verb():
    for name in ("serve_read_batch", "serve_write_batch"):
        assert not hasattr(Range, name), name
    for name, member in vars(DistSender).items():
        if inspect.isfunction(member):
            assert "more_keys" not in params(member), name
