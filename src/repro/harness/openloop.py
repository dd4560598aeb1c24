"""Open-loop load generation: Poisson arrivals, deadlines, goodput.

Closed-loop clients can never overload the system — each waits for its
previous request, so offered load self-throttles exactly when the
database slows down.  Real user populations don't: arrivals keep coming
at the offered rate regardless of how the backend feels (each arrival
is an independent simulated session).  This module models that with a
seeded Poisson arrival process per region (configurable skew), a
deadline per request, and goodput accounting: a request only counts if
it completes *within its deadline*.

Each arrival is one single-key KV transaction (read or write, Zipf key
choice) against the arrival region's REGIONAL range, run through the
full stack: gateway admission queue (when enabled), transaction
coordinator, DistSender, store work queues, Raft.  Everything is
deterministic from the config + seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..admission import AdmissionConfig, Priority, install_admission
from ..errors import (AdmissionRejectedError, DeadlineExceededError,
                      OverloadError)
from ..obs import nearest_rank
from ..placement import SurvivalGoal
from ..workloads.zipf import ZipfGenerator
from .testbed import OK, REGIONS, Testbed

__all__ = ["OpenLoopConfig", "OpenLoopHarness", "OpenLoopResult",
           "RegionStats", "run_openloop"]


@dataclass
class OpenLoopConfig:
    """One open-loop saturation run (all knobs deterministic)."""

    regions: Tuple[str, ...] = REGIONS
    #: Offered arrival rate per region at multiplier 1.0 (requests/s).
    rate_per_s: float = 450.0
    #: Offered-load multiplier (the x-axis of the scale curves).
    load_multiplier: float = 1.0
    #: Per-region relative weight (hot-region skew); missing regions
    #: default to 1.0.
    region_weights: Dict[str, float] = field(default_factory=dict)
    #: Diurnal load: each region's instantaneous rate follows
    #: ``base * (1 + A * sin(2*pi*t/period + phase))`` with a seeded
    #: per-region phase, so regional peaks are offset the way
    #: follow-the-sun traffic is.  ``0.0`` disables the modulation and
    #: keeps the legacy arrival process byte-identical (no extra RNG
    #: draws).  Must lie in ``[0, 1]``.
    diurnal_amplitude: float = 0.0
    #: Period of the sinusoid (sim ms); one "day".
    diurnal_period_ms: float = 4000.0
    #: Arrival window (sim ms).
    duration_ms: float = 1200.0
    #: Per-request deadline; completions past it don't count as goodput.
    deadline_ms: float = 250.0
    write_fraction: float = 0.25
    keys_per_region: int = 200
    zipf_theta: float = 0.8
    #: Fraction of requests admitted at HIGH priority.
    high_priority_fraction: float = 0.1
    #: Enable the protections (gateway queue + deadline discipline +
    #: retry budget).  The store capacity model is always on, so
    #: ``admission=False`` is the congestion-collapse baseline: same
    #: capacity, no backpressure.
    admission: bool = True
    #: Gateway token-bucket rate per (tenant, region); sized just under
    #: the store capacity ``store_slots * 1000 / store_service_ms``.
    admit_rate_per_s: float = 900.0
    admit_burst: float = 16.0
    max_queue_depth: int = 64
    store_slots: int = 2
    store_service_ms: float = 2.0
    seed: int = 0
    obs_enabled: bool = True

    @property
    def store_capacity_per_s(self) -> float:
        """Leaseholder-store evaluation capacity (ops/s, per region)."""
        return self.store_slots * 1000.0 / self.store_service_ms

    def region_rate(self, region: str) -> float:
        weight = self.region_weights.get(region, 1.0)
        return self.rate_per_s * self.load_multiplier * weight


@dataclass
class RegionStats:
    """Per-region open-loop accounting."""

    offered: int = 0
    rejected: int = 0       # gateway queue-full rejections
    shed: int = 0           # deadline expiries (queue, store, or txn)
    overloaded: int = 0     # retry-budget exhaustion
    failed: int = 0         # other give-ups (retries exhausted, ambiguous)
    completed: int = 0      # transaction committed
    good: int = 0           # committed within the deadline
    latencies: List[float] = field(default_factory=list)

    def to_json(self) -> Dict[str, float]:
        lat = sorted(self.latencies)
        return {
            "offered": self.offered,
            "rejected": self.rejected,
            "shed": self.shed,
            "overloaded": self.overloaded,
            "failed": self.failed,
            "completed": self.completed,
            "good": self.good,
            "p50_ms": round(nearest_rank(lat, 50.0), 3),
            "p99_ms": round(nearest_rank(lat, 99.0), 3),
        }


@dataclass
class OpenLoopResult:
    """Aggregated outcome of one open-loop run."""

    config: OpenLoopConfig
    per_region: Dict[str, RegionStats]
    duration_ms: float
    events: int
    sim_ms: float

    @property
    def offered(self) -> int:
        return sum(s.offered for s in self.per_region.values())

    @property
    def good(self) -> int:
        return sum(s.good for s in self.per_region.values())

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.per_region.values())

    @property
    def rejected(self) -> int:
        return sum(s.rejected for s in self.per_region.values())

    @property
    def shed(self) -> int:
        return sum(s.shed for s in self.per_region.values())

    @property
    def goodput_per_s(self) -> float:
        if self.duration_ms <= 0:
            return 0.0
        return self.good * 1000.0 / self.duration_ms

    def latencies(self) -> List[float]:
        out: List[float] = []
        for region in sorted(self.per_region):
            out.extend(self.per_region[region].latencies)
        out.sort()
        return out

    @property
    def p50_ms(self) -> float:
        return nearest_rank(self.latencies(), 50.0)

    @property
    def p99_ms(self) -> float:
        return nearest_rank(self.latencies(), 99.0)

    @property
    def users(self) -> int:
        """Simulated user population: offered rate x 1s think time."""
        return int(round(sum(self.config.region_rate(r)
                             for r in self.config.regions)))

    def fingerprint(self) -> Dict[str, float]:
        """Determinism fingerprint (golden-tested at several seeds)."""
        return {
            "events": self.events,
            "sim_ms": round(self.sim_ms, 3),
            "offered": self.offered,
            "good": self.good,
            "rejected": self.rejected,
            "shed": self.shed,
            "goodput_per_s": round(self.goodput_per_s, 3),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
        }

    def to_json(self) -> Dict[str, object]:
        return {
            "users": self.users,
            "multiplier": self.config.load_multiplier,
            "admission": self.config.admission,
            "offered": self.offered,
            "good": self.good,
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": self.shed,
            "goodput_per_s": round(self.goodput_per_s, 1),
            "p50_ms": round(self.p50_ms, 2),
            "p99_ms": round(self.p99_ms, 2),
            "regions": {region: stats.to_json()
                        for region, stats in sorted(self.per_region.items())},
        }


class OpenLoopHarness(Testbed):
    """Cluster + per-region REGIONAL ranges + Poisson load."""

    def __init__(self, config: Optional[OpenLoopConfig] = None):
        self.config = config or OpenLoopConfig()
        cfg = self.config
        if not 0.0 <= cfg.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be within [0, 1]")
        if cfg.diurnal_amplitude > 0.0 and cfg.diurnal_period_ms <= 0.0:
            raise ValueError("diurnal_period_ms must be positive")
        super().__init__(cfg.seed, regions=cfg.regions,
                         obs_enabled=cfg.obs_enabled)
        # The capacity model (store work queues) is always installed;
        # cfg.admission toggles only the protections on top of it.
        self.admission = install_admission(self.cluster, AdmissionConfig(
            rate_per_s=cfg.admit_rate_per_s,
            burst=cfg.admit_burst,
            max_queue_depth=cfg.max_queue_depth,
            store_slots=cfg.store_slots,
            store_service_ms=cfg.store_service_ms,
            gateway_enabled=cfg.admission,
            retry_budget_enabled=cfg.admission,
        ))
        # One ZONE-survivable REGIONAL range per region: local quorum,
        # so the leaseholder store — not WAN latency — is the capacity
        # bottleneck under saturation.  Load is the only nemesis here:
        # no packet is ever lost, so the ranges run without leader
        # retransmission.
        self.ranges = {
            region: self.provision(
                f"load-{region}",
                self.zone_config(region, SurvivalGoal.ZONE),
                retransmit=False)
            for region in cfg.regions}
        self.stats = {region: RegionStats() for region in cfg.regions}
        self._rngs = {
            region: random.Random((cfg.seed << 6) ^ (0xA110 + index))
            for index, region in enumerate(cfg.regions)}
        self._zipfs = {
            region: ZipfGenerator(cfg.keys_per_region, theta=cfg.zipf_theta,
                                  seed=(cfg.seed << 4) ^ (0x21F + index))
            for index, region in enumerate(cfg.regions)}
        # Seeded per-region diurnal phases, drawn from dedicated RNGs so
        # the arrival/keying streams above are untouched either way.
        self._phases = {
            region: random.Random(
                (cfg.seed << 7) ^ (0xD1A1 + index)).uniform(0.0, 2 * math.pi)
            for index, region in enumerate(cfg.regions)}

    # -- request lifecycle ---------------------------------------------------

    def _request(self, region: str, gateway_index: int):
        cfg = self.config
        stats = self.stats[region]
        rng = self._rngs[region]
        stats.offered += 1
        start_ms = self.sim.now
        deadline = (start_ms + cfg.deadline_ms) if cfg.admission else None
        gateway = self.cluster.gateway_for_region(region, gateway_index)
        priority = (Priority.HIGH
                    if rng.random() < cfg.high_priority_fraction
                    else Priority.NORMAL)
        try:
            yield from self.admission.admit_co(
                "open", region, priority=priority, deadline_ms=deadline)
        except AdmissionRejectedError:
            stats.rejected += 1
            return
        except DeadlineExceededError:
            stats.shed += 1
            return
        key = f"k{self._zipfs[region].next()}"
        is_write = rng.random() < cfg.write_fraction
        target = self.ranges[region]
        value = f"{region}:{stats.offered}"

        def txn_fn(txn):
            if is_write:
                yield from txn.write(target, key, value, commit=True)
            else:
                yield from txn.read(target, key)

        try:
            status, _value, _error = yield from self.attempt(
                gateway, txn_fn, max_attempts=5, label=f"open-{region}",
                deadline_ms=deadline, tenant="open")
        except DeadlineExceededError:
            stats.shed += 1
            return
        except OverloadError:
            stats.overloaded += 1
            return
        if status != OK:
            stats.failed += 1
            return
        latency = self.sim.now - start_ms
        stats.completed += 1
        stats.latencies.append(latency)
        if latency <= cfg.deadline_ms:
            stats.good += 1

    def _arrivals(self, region: str, end_ms: float):
        """Poisson arrivals; with a diurnal amplitude, inhomogeneous by
        thinning: draw gaps at the sinusoid's peak rate, then accept
        each arrival with probability ``instantaneous / peak``.  Exact
        for any bounded rate function, deterministic from (config,
        seed), and with amplitude 0 the plain homogeneous process (no
        acceptance draw is made)."""
        cfg = self.config
        sim = self.sim
        rng = self._rngs[region]
        rate = cfg.region_rate(region)
        if rate <= 0:
            return
        amplitude = cfg.diurnal_amplitude
        phase = self._phases[region]
        omega = (2.0 * math.pi / cfg.diurnal_period_ms) if amplitude else 0.0
        peak = rate * (1.0 + amplitude)
        start_ms = sim.now
        index = 0
        while True:
            gap_ms = rng.expovariate(peak) * 1000.0
            yield sim.sleep(gap_ms)
            now = sim.now
            if now >= end_ms:
                return
            if amplitude and rng.random() * peak > rate * (
                    1.0 + amplitude * math.sin(omega * (now - start_ms)
                                               + phase)):
                continue  # thinned away: the trough of this region's day
            sim.spawn(self._request(region, index % 3),
                      name=f"open-{region}-{index}")
            index += 1

    def probe(self, region: str, deadline_ms: Optional[float] = None):
        """Coroutine: one fully-protected probe request; returns its
        latency in ms (used by chaos recovery checks)."""
        start_ms = self.sim.now
        gateway = self.cluster.gateway_for_region(region, 0)
        target = self.ranges[region]
        if deadline_ms is not None:
            deadline_ms = start_ms + deadline_ms
        yield from self.admission.admit_co("probe", region,
                                           priority=Priority.HIGH,
                                           deadline_ms=deadline_ms)

        def txn_fn(txn):
            yield from txn.read(target, "k0")

        yield from self.coord.run(gateway, txn_fn, max_attempts=5,
                                  label=f"probe-{region}",
                                  deadline_ms=deadline_ms, tenant="probe")
        return self.sim.now - start_ms

    # -- the run -------------------------------------------------------------

    def run(self, drain_ms: Optional[float] = None) -> OpenLoopResult:
        """Drive the arrival window plus a drain period; aggregate."""
        cfg = self.config
        sim = self.sim
        # Let replication/closed-timestamp machinery settle before load.
        sim.run(until=sim.now + 300.0)
        start_ms = sim.now
        end_ms = start_ms + cfg.duration_ms
        self.load_start_ms = start_ms
        self.load_end_ms = end_ms
        for region in cfg.regions:
            sim.spawn(self._arrivals(region, end_ms),
                      name=f"arrivals-{region}")
        drain = cfg.deadline_ms * 2.0 if drain_ms is None else drain_ms
        sim.run(until=end_ms + drain)
        return OpenLoopResult(
            config=cfg, per_region=self.stats,
            duration_ms=cfg.duration_ms,
            events=sim.events_processed, sim_ms=sim.now)


def run_openloop(config: Optional[OpenLoopConfig] = None) -> OpenLoopResult:
    return OpenLoopHarness(config).run()
