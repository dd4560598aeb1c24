"""The elastic-keyspace experiment: size/load splits, a
follow-the-workload lease move, cold merges — golden-checked.

One range on a three-region cluster, its span managed by the rebalance
queue, runs through three phases:

1. **warmup** — home-region clients touch the whole keyspace; the
   seeded key count exceeds the size-split threshold, so the
   rebalancing queue performs a *size split* almost immediately;
2. **hot** — remote-region clients hammer a narrow hot band; the
   per-range QPS tracker drives *load splits* of the hot range and a
   follow-the-workload *lease move* toward the loaded region;
3. **drain** — traffic stops; after the merge-patience window the cold
   ranges *merge* back until the span is a single range again.

Everything is deterministic from the seed.  ``REBALANCE_golden.json``
at the repo root pins per-seed fingerprints for seeds {0, 1, 2}; the
CLI re-runs and compares, so any behavioural drift in splits, merges,
routing, or rebalancing shows up as a fingerprint mismatch.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from typing import Dict, Generator, List, Tuple

from ..cluster import StoreLiveness
from ..placement import ReplicateQueue, ZoneConfig
from .golden import repo_path
from .testbed import HOME, OK, Testbed

__all__ = ["run_rebalance", "run_rebalance_suite", "render_rebalance",
           "render_rebalance_suite",
           "fingerprint", "golden_entries", "GOLDEN_PATH", "GOLDEN_SEEDS"]

GOLDEN_PATH = repo_path("REBALANCE_golden.json")
GOLDEN_SEEDS = (0, 1, 2)

HOT_REGION = "europe-west2"

#: Seeded keyspace and the hot band the remote clients hammer.
KEYS = tuple(f"u{i:03d}" for i in range(72))
HOT_KEYS = KEYS[:8]

#: Phase boundaries (sim ms).
WARMUP_END_MS = 2500.0
HOT_END_MS = 7500.0
DRAIN_END_MS = 12500.0

#: Queue thresholds sized so the workload demonstrably crosses them:
#: 72 seeded keys > 48 forces a size split; the hot band sustains well
#: over 12 QPS; everything is cold during the drain.
SPLIT_MAX_KEYS = 48
SPLIT_QPS = 12.0
MERGE_QPS = 2.0
MERGE_PATIENCE = 3


class _RebalanceRun(Testbed):
    """One deterministic run."""

    def __init__(self, seed: int):
        # The golden's metrics_hash covers the whole registry, the
        # per-message distributions included.
        super().__init__(seed, obs_enabled=True)
        # One voter pinned home, the rest placed by diversity, and no
        # lease preference — leaving follow-the-workload free to move
        # the lease.
        config = ZoneConfig(num_replicas=3, num_voters=3,
                            constraints={HOME: 1})
        self.range = self.provision("elastic", config)
        ts = self.range.leaseholder_node.clock.now()
        # Production cadence, not the chaos harness's compressed one:
        # this run lasts 12.5 s and loses no store.
        self.enable_rebalance(
            self.range, config,
            time_until_store_dead_ms=StoreLiveness.TIME_UNTIL_STORE_DEAD_MS,
            interval_ms=ReplicateQueue.INTERVAL_MS,
            split_max_keys=SPLIT_MAX_KEYS, split_qps=SPLIT_QPS,
            merge_qps=MERGE_QPS, merge_patience=MERGE_PATIENCE,
            lease_cooldown_ms=1500.0)
        self.range.bulk_ingest([(key, 0) for key in KEYS], ts)
        self.committed = 0
        self.failed = 0
        self.samples: List[Dict] = []

    # -- clients -----------------------------------------------------------

    def _prng(self, tag: str) -> random.Random:
        return random.Random((self.seed << 20)
                             ^ zlib.crc32(tag.encode()))

    def _client(self, region: str, index: int, start_ms: float,
                end_ms: float, pick_key, think: Tuple[float, float]
                ) -> Generator:
        prng = self._prng(f"client/{region}/{index}")
        yield self.sim.sleep(start_ms)
        gateway = self.cluster.gateway_for_region(region, index)
        while self.sim.now < end_ms:
            status, _value, _error = yield from self.attempt(
                gateway, self.increment(self.range, pick_key(prng)))
            if status == OK:
                self.committed += 1
            else:
                self.failed += 1
            yield self.sim.sleep(prng.uniform(*think))

    # -- sampling ----------------------------------------------------------

    def _sample(self, label: str) -> Dict:
        ranges = []
        for rng in self.range.span.ranges():
            lease_node = rng.leaseholder_node_id
            lease_region = (
                self.cluster.node_by_id(lease_node).locality.region
                if lease_node is not None else None)
            descriptor = rng.descriptor
            ranges.append({
                "name": rng.name,
                "lease_region": lease_region,
                "keys": len(list(rng.leaseholder_replica.store.keys())),
                "span": descriptor.span_repr(),
                "generation": descriptor.generation,
                "qps": round(descriptor.load.qps(self.sim.now), 1),
            })
        return {"label": label, "t_ms": self.sim.now,
                "range_count": len(ranges), "ranges": ranges}

    def _probe(self, at_ms: float, label: str) -> Generator:
        yield self.sim.sleep(at_ms)
        self.samples.append(self._sample(label))
        return None

    # -- the run -----------------------------------------------------------

    def run(self) -> Dict:
        uniform = lambda prng: KEYS[prng.randrange(len(KEYS))]
        hot_weights = [1.0 / (i + 1) ** 1.5 for i in range(len(HOT_KEYS))]

        def hot(prng):
            return prng.choices(HOT_KEYS, weights=hot_weights, k=1)[0]

        for index in range(2):
            self.sim.spawn(
                self._client(HOME, index, 0.0, WARMUP_END_MS,
                             uniform, (10.0, 30.0)),
                name=f"warmup-{index}")
        for index in range(4):
            self.sim.spawn(
                self._client(HOT_REGION, index, WARMUP_END_MS, HOT_END_MS,
                             hot, (5.0, 15.0)),
                name=f"hot-{index}")
        self.sim.spawn(self._probe(WARMUP_END_MS - 100.0, "warmup"),
                       name="probe-warmup")
        self.sim.spawn(self._probe(HOT_END_MS - 100.0, "hot"),
                       name="probe-hot")
        self.sim.run(until=DRAIN_END_MS)
        self.repair_queue.stop()
        self.samples.append(self._sample("final"))
        return self._document()

    # -- reporting ---------------------------------------------------------

    def _final_snapshot(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for rng in self.range.span.ranges():
            ts = rng.leaseholder_node.clock.now()
            for key, value in rng.leaseholder_replica.store.snapshot_at(
                    ts).items():
                out[key] = value
        return out

    def _counters(self) -> Dict[str, int]:
        registry = self.sim.obs.registry
        out: Dict[str, int] = {}
        for prefix in ("keyspace.", "rebalance.",
                       "distsender.range_cache_"):
            for inst in registry.instruments():
                if not inst.name.startswith(prefix):
                    continue
                label = ",".join(f"{k}={v}"
                                 for k, v in sorted(dict(inst.labels).items()))
                key = f"{inst.name}{{{label}}}" if label else inst.name
                out[key] = int(inst.value)
        return out

    def _metrics_hash(self) -> str:
        snapshot = self.sim.obs.registry.snapshot()
        blob = json.dumps(snapshot, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def _document(self) -> Dict:
        snapshot = self._final_snapshot()
        snapshot_hash = hashlib.sha256(
            json.dumps(sorted(snapshot.items()),
                       default=str).encode()).hexdigest()
        counters = self._counters()
        peak_ranges = max(s["range_count"] for s in self.samples)
        hot_sample = next((s for s in self.samples if s["label"] == "hot"),
                          None)
        lease_followed = bool(hot_sample) and any(
            r["lease_region"] == HOT_REGION for r in hot_sample["ranges"])
        doc = {
            "seed": self.seed,
            "committed": self.committed,
            "failed": self.failed,
            "samples": self.samples,
            "counters": counters,
            "peak_ranges": peak_ranges,
            "final_ranges": self.samples[-1]["range_count"],
            "snapshot_sum": sum(snapshot.values()),
            "snapshot_hash": snapshot_hash,
            "metrics_hash": self._metrics_hash(),
        }
        conserved = doc["snapshot_sum"] == self.committed
        # The drain can only merge neighbours whose keys fit in one
        # range, or the merged range would immediately re-split
        # (hysteresis, not a failure): it is done when no such pair is
        # left, however many ranges the split points leave that at.
        min_ranges = -(-len(KEYS) // SPLIT_MAX_KEYS)
        final = self.samples[-1]["ranges"]
        mergeable = any(left["keys"] + right["keys"] <= SPLIT_MAX_KEYS
                        for left, right in zip(final, final[1:]))
        split_triggers = [key for key in counters
                          if key.startswith("rebalance.splits")]
        doc["gates"] = {
            "splits_happened": peak_ranges > min_ranges,
            "size_split": any("size" in key for key in split_triggers),
            "load_split": any("load" in key for key in split_triggers),
            "lease_followed_workload": lease_followed,
            "merged_back": (not mergeable
                            and doc["final_ranges"] < peak_ranges),
            "no_lost_increments": conserved,
            "no_failed_txns": self.failed == 0,
        }
        doc["gates"]["ok"] = all(doc["gates"].values())
        return doc


def run_rebalance(seed: int = 0) -> Dict:
    """One deterministic rebalance run; returns the JSON-ready doc."""
    return _RebalanceRun(seed).run()


def fingerprint(doc: Dict) -> Dict:
    """The golden-pinned summary of one run (order-stable)."""
    blob = json.dumps(doc, sort_keys=True, default=str)
    return {
        "committed": doc["committed"],
        "failed": doc["failed"],
        "peak_ranges": doc["peak_ranges"],
        "final_ranges": doc["final_ranges"],
        "counters": doc["counters"],
        "snapshot_hash": doc["snapshot_hash"],
        "metrics_hash": doc["metrics_hash"],
        "doc_hash": hashlib.sha256(blob.encode()).hexdigest(),
    }


def run_rebalance_suite(seeds) -> Dict:
    """One run per seed, with its fingerprint."""
    runs = {}
    for seed in seeds:
        doc = run_rebalance(seed)
        runs[str(seed)] = {"run": doc, "fingerprint": fingerprint(doc)}
    ok = all(entry["run"]["gates"]["ok"] for entry in runs.values())
    return {"ok": ok, "runs": runs}


def golden_entries(suite: Dict) -> Dict:
    """The suite's fingerprints, addressed as in REBALANCE_golden.json."""
    return {("seeds", seed): entry["fingerprint"]
            for seed, entry in suite["runs"].items()}


def render_rebalance(doc: Dict) -> str:
    lines = [f"rebalance run (seed={doc['seed']}) — "
             f"{doc['committed']} txns committed, {doc['failed']} failed"]
    for sample in doc["samples"]:
        lines.append(f"  t={sample['t_ms']:8.0f}ms  [{sample['label']}]  "
                     f"{sample['range_count']} range(s)")
        for rng in sample["ranges"]:
            lines.append(f"      {rng['name']:14s} {rng['span']:28s} "
                         f"lease={rng['lease_region']}"
                         f" keys={rng['keys']} qps={rng['qps']:.1f}"
                         f" gen={rng['generation']}")
    lines.append("  counters:")
    for key, value in sorted(doc["counters"].items()):
        lines.append(f"      {key} = {value}")
    lines.append("  gates:")
    for gate, passed in sorted(doc["gates"].items()):
        if gate == "ok":
            continue
        lines.append(f"      {gate:28s} "
                     f"{'pass' if passed else 'FAIL'}")
    lines.append(f"  => {'OK' if doc['gates']['ok'] else 'GATE FAILURES'}")
    return "\n".join(lines)


def render_rebalance_suite(suite: Dict) -> str:
    return "\n".join(f"{render_rebalance(entry['run'])}\n"
                     for entry in suite["runs"].values())
