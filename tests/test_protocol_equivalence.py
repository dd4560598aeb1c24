"""The CrdbProtocol extraction is a pure refactor, and a cluster runs
one backend.

Pulling the lease/intent/parallel-commit pipeline out of the
coordinator and behind the :class:`~repro.txn.protocol.TxnProtocol`
interface must not change a single simulated event: a run that names
no backend and one that names ``"crdb"`` must produce byte-identical
histories and reports under a nemesis.  (The committed bench goldens in
``tests/goldens/`` and ``REBALANCE_golden.json`` pin the default path
itself — this file pins default == explicit.)  Every coordinator on a
cluster runs the cluster's one backend instance.
"""

import pytest

from repro.cluster import standard_cluster
from repro.errors import ConfigurationError
from repro.harness.registry import REGISTRY
from repro.harness.testbed import Testbed
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

    def test_unknown_name_raises(self):
        # Only the two names: no aliases, no class, no instance.
        for spec in ("two-phase-locking", "CRDB", "default", "", "occ",
                     "epoch_occ", CrdbProtocol(), EpochOccProtocol):
            with pytest.raises(ConfigurationError):
                resolve_protocol(spec)

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
        default = run_verify("partition-leaseholder", 0, **VERIFY_KWARGS)
        explicit = run_verify("partition-leaseholder", 0, protocol="crdb",
                              **VERIFY_KWARGS)
        assert default.to_json() == explicit.to_json()
        assert default.render() == explicit.render()



class TestOneBackendPerCluster:
    """A cluster runs one backend, whichever coordinator asks."""

    @pytest.mark.parametrize("ours, other", [("crdb", "epoch-occ"),
                                             ("epoch-occ", "crdb")])
    def test_naming_another_backend_raises(self, ours, other):
        bed = Testbed(0, protocol=ours)
        with pytest.raises(ConfigurationError):
            TransactionCoordinator(bed.cluster, protocol=other)
        assert TransactionCoordinator(
            bed.cluster, protocol=ours).protocol is bed.coord.protocol

    @pytest.mark.parametrize("name", ["crdb", "epoch-occ"])
    def test_coordinators_share_the_instance(self, name):
        cluster = standard_cluster(["us-east1"], seed=0, txn_protocol=name)
        first = TransactionCoordinator(cluster)
        second = TransactionCoordinator(cluster)
        assert first.protocol is second.protocol is cluster.txn_protocol
        assert first.protocol.name == name

    def test_first_coordinator_chooses_on_a_default_cluster(self):
        cluster = standard_cluster(["us-east1"], seed=0)
        assert cluster.txn_protocol is None
        chooser = TransactionCoordinator(cluster, protocol="epoch-occ")
        later = TransactionCoordinator(cluster)
        assert isinstance(later.protocol, EpochOccProtocol)
        assert later.protocol is chooser.protocol


class TestScaleGuards:
    def test_scale_rejects_protocol_override(self):
        # The open-loop harness takes no backend: a scale job under a
        # protocol override must not run CRDB under the override's name.
        with pytest.raises(ValueError):
            REGISTRY["scale"].run("scale-curve", 0, "epoch-occ")
