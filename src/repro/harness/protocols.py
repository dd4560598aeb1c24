"""Transaction-protocol head-to-head: crdb vs epoch-occ on one
workload and nemesis schedule — golden-checked.

Both :class:`~repro.txn.protocol.TxnProtocol` backends — the CRDB-style
lease/intent pipeline and the epoch-batched OCC backend — run the
*same* seeded contended increment workload on the *same* cluster build
(identical RTT matrix, identical gateways, identical nemesis schedule),
so the numbers differ only where the protocols differ:

* **calm phase** — three regions of clients increment a small hot
  keyspace; the table reports p50/p99 commit-ack latency, the abort
  rate (retryable attempts per committed txn, with the OCC
  validation-abort share split out), and the wait breakdown —
  commit-wait milliseconds for CRDB vs epoch-wait milliseconds for
  epoch OCC;
* **faulted phase** — mid-run, the node holding the lease is
  symmetrically partitioned from every peer (the ``partition-
  leaseholder`` nemesis) and later healed, exercising lease failover
  under CRDB and ordering/apply RPC failover under epoch OCC.

Every run ends with a full-keyspace audit read: the sum of the final
counters must land inside the [committed, committed + indeterminate]
window or the suite fails regardless of goldens.

``PROTOCOLS_golden.json`` at the repo root pins per-(protocol, seed)
fingerprints for seeds {0, 1, 2}; ``python -m repro protocols``
re-runs and compares, so behavioural drift in either backend shows up
as a fingerprint mismatch.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Generator, List

from ..chaos.scenarios import build_faults
from ..obs.report import Summary
from .golden import repo_path
from .testbed import FAIL, HOME, INDETERMINATE, OK, Testbed

__all__ = ["run_protocol_run", "run_protocols_suite", "render_protocols",
           "fingerprint", "golden_entries", "GOLDEN_PATH", "GOLDEN_SEEDS",
           "PROTOCOLS"]

GOLDEN_PATH = repo_path("PROTOCOLS_golden.json")
GOLDEN_SEEDS = (0, 1, 2)
PROTOCOLS = ("crdb", "epoch-occ")

#: Small hot keyspace: three regions contending on 8 keys keeps the
#: OCC validation machinery honest without starving throughput.
KEYS = tuple(f"acct{i}" for i in range(8))

#: Phase boundaries (sim ms).  Clients issue ops until ISSUE_END_MS;
#: an op belongs to the phase its *start* falls in.
CALM_END_MS = 3000.0
PARTITION_AT_MS = 3250.0
HEAL_AT_MS = 4750.0
ISSUE_END_MS = 6000.0

CLIENTS_PER_REGION = 2
THINK_MS = (15.0, 45.0)


class _ProtocolRun(Testbed):
    """One deterministic run of one backend under the shared schedule."""

    def __init__(self, seed: int, protocol: str):
        super().__init__(seed, protocol=protocol,
                         rng_seed=(seed << 6) ^ 0x9E0C)
        self.protocol_name = protocol
        self.range = self.provision("protocols", self.zone_config())
        ts = self.range.leaseholder_node.clock.now()
        self.range.bulk_ingest([(key, 0) for key in KEYS], ts)
        #: Per-phase commit-ack latencies and outcome counters.
        self.latencies: Dict[str, List[float]] = {"calm": [], "faulted": []}
        self.outcomes: Dict[str, Dict[str, int]] = {
            phase: {OK: 0, FAIL: 0, INDETERMINATE: 0}
            for phase in ("calm", "faulted")}
        self.op_log: List[str] = []

    # -- workload ----------------------------------------------------------

    def _phase_of(self, start_ms: float) -> str:
        return "calm" if start_ms < CALM_END_MS else "faulted"

    def _client(self, region: str, index: int) -> Generator:
        gateway = self.cluster.gateway_for_region(region, index)
        prng = random.Random(self.rng.random())
        op = 0
        while self.sim.now < ISSUE_END_MS:
            key = prng.choice(KEYS)
            start = self.sim.now
            status, _value, _error = yield from self.attempt(
                gateway, self.increment(self.range, key), max_attempts=8)
            phase = self._phase_of(start)
            self.outcomes[phase][status] += 1
            if status == OK:
                self.latencies[phase].append(self.sim.now - start)
            self.op_log.append(
                f"{region}/{index}/{op} {key} {start:.3f} "
                f"{self.sim.now:.3f} {status}")
            op += 1
            yield self.sim.sleep(prng.uniform(*THINK_MS))

    # -- the run -----------------------------------------------------------

    def run(self) -> Dict:
        # The chaos partition-leaseholder schedule, held mid-run.
        self.start_nemesis(build_faults(
            "partition-leaseholder", self,
            at_ms=PARTITION_AT_MS, heal_at_ms=HEAL_AT_MS))
        self.run_clients(self._client(region, index)
                         for region in self.regions
                         for index in range(CLIENTS_PER_REGION))
        return self._document(self._final_counters())

    def _final_counters(self) -> Dict[str, int]:
        """One full-keyspace audit read from the home region (the
        partition healed at HEAL_AT_MS; nothing is left to settle)."""
        def read_fn(txn):
            values = {}
            for key in KEYS:
                values[key] = (yield from txn.read(self.range, key))
            return values

        result = self.audit(read_fn, regions=[HOME])[HOME]
        return {key: int(result[key]) for key in KEYS}

    # -- reporting ---------------------------------------------------------

    def _phase_doc(self, phase: str) -> Dict:
        summary = Summary(self.latencies[phase])
        counts = self.outcomes[phase]
        return {
            "ops": sum(counts.values()), **counts,
            "p50_ms": round(summary.p50, 3) if summary.count else None,
            "p99_ms": round(summary.p99, 3) if summary.count else None,
            "max_ms": round(summary.max, 3) if summary.count else None,
        }

    def _document(self, final: Dict[str, int]) -> Dict:
        stats = self.coord.stats
        committed = sum(v[OK] for v in self.outcomes.values())
        indeterminate = sum(v[INDETERMINATE]
                            for v in self.outcomes.values())
        total = sum(final.values())
        attempts = stats.begun
        aborted = stats.aborted_retries
        wait = {
            "kind": self.coord.protocol.wait_kind,
            "commit_waits": stats.commit_waits,
            "commit_wait_ms_total": round(stats.commit_wait_ms_total, 3),
            "epoch_waits": stats.epoch_waits,
            "epoch_wait_ms_total": round(stats.epoch_wait_ms_total, 3),
        }
        # Jepsen-style counter audit: every acknowledged increment must
        # be present exactly once; ambiguous ones may or may not be.
        audit_ok = committed <= total <= committed + indeterminate
        return {
            "protocol": self.protocol_name,
            "seed": self.seed,
            "phases": {p: self._phase_doc(p) for p in ("calm", "faulted")},
            "stats": {
                "begun": attempts,
                "committed": stats.committed,
                "aborted_retries": aborted,
                "validation_aborts": stats.validation_aborts,
                "ambiguous_commits": stats.ambiguous_commits,
                "abort_rate": round(aborted / attempts, 4) if attempts
                              else 0.0,
            },
            "wait": wait,
            "failovers": self.range.failovers,
            "final_total": total,
            "audit": {"committed": committed,
                      "indeterminate": indeterminate,
                      "ok": audit_ok},
            "ops_hash": hashlib.sha256(
                "\n".join(self.op_log).encode()).hexdigest()[:16],
            "ok": audit_ok,
        }


def run_protocol_run(seed: int, protocol: str) -> Dict:
    """One (protocol, seed) cell of the head-to-head matrix."""
    return _ProtocolRun(seed, protocol).run()


def fingerprint(doc: Dict) -> Dict:
    """The drift-sensitive subset pinned by the golden file."""
    return {
        "ops_hash": doc["ops_hash"],
        "final_total": doc["final_total"],
        "committed": doc["stats"]["committed"],
        "aborted_retries": doc["stats"]["aborted_retries"],
        "validation_aborts": doc["stats"]["validation_aborts"],
        "failovers": doc["failovers"],
    }


def run_protocols_suite(seeds) -> Dict:
    """Both backends over ``seeds``; ``ok`` is the AND of every audit."""
    runs: Dict[str, Dict] = {}
    ok = True
    for protocol in PROTOCOLS:
        for seed in seeds:
            doc = run_protocol_run(seed, protocol)
            runs[f"{protocol}/{seed}"] = doc
            ok = ok and doc["ok"]
    return {"ok": ok, "seeds": list(seeds), "runs": runs,
            "fingerprints": {name: fingerprint(doc)
                             for name, doc in runs.items()}}


def golden_entries(suite: Dict) -> Dict:
    """The suite's fingerprints, addressed as in PROTOCOLS_golden.json."""
    return {("fingerprints", name): fp
            for name, fp in suite["fingerprints"].items()}


def render_protocols(suite: Dict) -> str:
    """The fig3/fig5-style comparison table, one row per cell."""
    lines = ["protocol head-to-head (contended increments, "
             "partition-leaseholder nemesis mid-run)"]
    header = (f"  {'protocol':<10} {'seed':>4} {'phase':<8} "
              f"{'ops':>4} {'p50ms':>8} {'p99ms':>8} "
              f"{'abort%':>7} {'val':>4} {'wait-kind':<12} {'wait-ms':>9}")
    lines.append(header)
    for name, doc in sorted(suite["runs"].items()):
        stats, wait = doc["stats"], doc["wait"]
        abort_pct = 100.0 * stats["abort_rate"]
        wait_ms = (wait["commit_wait_ms_total"]
                   if wait["kind"] == "commit-wait"
                   else wait["epoch_wait_ms_total"])
        for phase in ("calm", "faulted"):
            pd = doc["phases"][phase]
            p50 = f"{pd['p50_ms']:.1f}" if pd["p50_ms"] is not None else "-"
            p99 = f"{pd['p99_ms']:.1f}" if pd["p99_ms"] is not None else "-"
            lines.append(
                f"  {doc['protocol']:<10} {doc['seed']:>4} {phase:<8} "
                f"{pd['ops']:>4} {p50:>8} {p99:>8} "
                f"{abort_pct:>6.1f}% {stats['validation_aborts']:>4} "
                f"{wait['kind']:<12} {wait_ms:>9.1f}")
        audit = doc["audit"]
        verdict = "ok" if doc["ok"] else "AUDIT FAILED"
        lines.append(
            f"    audit: final-total={doc['final_total']} "
            f"committed={audit['committed']} "
            f"indeterminate={audit['indeterminate']} "
            f"failovers={doc['failovers']} => {verdict}")
    return "\n".join(lines)
