"""The CrdbProtocol extraction is a pure refactor.

Pulling the lease/intent/parallel-commit pipeline out of the
coordinator and behind the :class:`~repro.txn.protocol.TxnProtocol`
interface must not change a single simulated event: a coordinator
built with the default (``protocol=None``) and one built with an
explicit ``"crdb"`` spec must produce byte-identical histories and
chaos reports.  (The committed bench goldens in ``tests/goldens/`` and
``REBALANCE_golden.json`` pin the default path itself — this file pins
default == explicit.)
"""

import pytest

from repro.chaos import run_scenario
from repro.cluster import standard_cluster
from repro.errors import ConfigurationError
from repro.txn import (
    CrdbProtocol,
    EpochOccProtocol,
    TransactionCoordinator,
    TxnProtocol,
    resolve_protocol,
)
from repro.verify import run_verify

#: Small-but-representative verify workload (same shape the pipeline
#: determinism test uses) — a few seconds for all three seeds.
VERIFY_KWARGS = dict(clients_per_region=1, ops_per_client=4, stale_ops=2)
SEEDS = (0, 1, 2)


class TestResolveProtocol:
    def test_default_is_crdb(self):
        assert isinstance(resolve_protocol(None), CrdbProtocol)
        assert resolve_protocol(None).name == "crdb"

    @pytest.mark.parametrize("spec", ["crdb", "CRDB", "default", ""])
    def test_crdb_aliases(self, spec):
        assert isinstance(resolve_protocol(spec), CrdbProtocol)

    @pytest.mark.parametrize("spec", ["epoch-occ", "epoch_occ", "occ",
                                      "epoch"])
    def test_occ_aliases(self, spec):
        assert isinstance(resolve_protocol(spec), EpochOccProtocol)

    def test_instance_passes_through(self):
        configured = EpochOccProtocol()
        assert resolve_protocol(configured) is configured

    def test_class_is_instantiated(self):
        assert isinstance(resolve_protocol(EpochOccProtocol),
                          EpochOccProtocol)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_protocol("two-phase-locking")

    def test_coordinator_default_protocol(self):
        cluster = standard_cluster(["us-east1"], seed=0)
        coord = TransactionCoordinator(cluster)
        assert isinstance(coord.protocol, CrdbProtocol)
        assert isinstance(coord.protocol, TxnProtocol)
        assert coord.protocol.wait_kind == "commit-wait"


class TestDefaultEqualsExplicitCrdb:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_verify_history_byte_identical(self, seed):
        default = run_verify(None, seed=seed, **VERIFY_KWARGS)
        explicit = run_verify(None, seed=seed, protocol="crdb",
                              **VERIFY_KWARGS)
        assert default.history.dumps() == explicit.history.dumps()
        assert default.report.dumps() == explicit.report.dumps()

    def test_verify_history_identical_under_nemesis(self):
        default = run_verify("crash-restart", seed=0, **VERIFY_KWARGS)
        explicit = run_verify("crash-restart", seed=0, protocol="crdb",
                              **VERIFY_KWARGS)
        assert default.history.dumps() == explicit.history.dumps()

    def test_chaos_report_identical(self):
        default = run_scenario("partition-leaseholder", 0)
        explicit = run_scenario("partition-leaseholder", 0,
                                txn_protocol="crdb")
        assert default.to_json() == explicit.to_json()

    def test_protocol_instance_matches_name(self):
        by_name = run_verify(None, seed=1, protocol="crdb",
                             **VERIFY_KWARGS)
        by_instance = run_verify(None, seed=1, protocol=CrdbProtocol(),
                                 **VERIFY_KWARGS)
        assert by_name.history.dumps() == by_instance.history.dumps()


class TestOverloadScenarioGuards:
    @pytest.mark.parametrize("name", ["overload-global",
                                      "overload-hot-region"])
    def test_overload_rejects_protocol_override(self, name):
        with pytest.raises(ValueError):
            run_scenario(name, 0, txn_protocol="epoch-occ")
