"""Jepsen-style history recording and invariant checking.

Clients record every operation (counter increments and reads) into a
:class:`History`; after the run heals, :func:`check_history` audits it
against the database's final state:

* **No lost acknowledged writes** — for each key,
  ``acked <= final <= acked + indeterminate``.  An acknowledged
  increment must survive every fault; an *indeterminate* one (an
  ambiguous commit whose RPC was lost mid-flight) may or may not have
  applied, but nothing else may.
* **No dirty reads** — a read can never observe more increments than
  had been *invoked* when it completed (values from uncommitted or
  aborted transactions would inflate the counter past that bound).
* **Recency floor** — a strong (leaseholder-consistent) read that
  starts after an increment was acknowledged must observe it.
* **Monotonic reads** — per client per key, observed values never go
  backwards.

The checker is pure bookkeeping: it never touches the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

# The outcome vocabulary is the attempt classifier's
# (``Testbed.attempt``); re-exported here for history consumers.
from ..harness.testbed import FAIL, INDETERMINATE, OK

__all__ = [
    "OK",
    "FAIL",
    "INDETERMINATE",
    "OpRecord",
    "History",
    "InvariantReport",
    "check_history",
    "availability_timeline",
    "render_timeline",
    "ScenarioResult",
]


@dataclass
class OpRecord:
    """One client operation, Jepsen-history style."""

    client: str
    kind: str                     # "inc" | "read"
    key: str
    start_ms: float
    end_ms: float
    status: str                   # OK | FAIL | INDETERMINATE
    value: Optional[int] = None   # read result (None for incs/failures)
    stale: bool = False           # read allowed to lag (follower/stale)
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return self.end_ms - self.start_ms


class History:
    """Append-only operation log shared by all clients in a run."""

    def __init__(self):
        self.ops: List[OpRecord] = []

    def record(self, op: OpRecord) -> None:
        self.ops.append(op)

    # -- aggregate views ---------------------------------------------------

    def incs(self, key: Optional[str] = None) -> List[OpRecord]:
        return [op for op in self.ops if op.kind == "inc"
                and (key is None or op.key == key)]

    def reads(self, key: Optional[str] = None) -> List[OpRecord]:
        return [op for op in self.ops if op.kind == "read"
                and (key is None or op.key == key)]

    def acked_incs(self, key: str) -> int:
        return sum(1 for op in self.incs(key) if op.status == OK)

    def indeterminate_incs(self, key: str) -> int:
        return sum(1 for op in self.incs(key) if op.status == INDETERMINATE)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {OK: 0, FAIL: 0, INDETERMINATE: 0}
        for op in self.ops:
            out[op.status] = out.get(op.status, 0) + 1
        return out


@dataclass
class InvariantReport:
    """Outcome of auditing one run's history."""

    violations: List[str] = field(default_factory=list)
    checks_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = []
        for check in self.checks_run:
            lines.append(f"  [pass] {check}")
        for violation in self.violations:
            lines.append(f"  [FAIL] {violation}")
        verdict = "OK" if self.ok else "INVARIANT VIOLATIONS"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def check_history(history: History,
                  final_values: Dict[str, int]) -> InvariantReport:
    """Audit ``history`` against the healed database's final counters."""
    report = InvariantReport()

    # 1. Durability bounds per key.
    for key in sorted(final_values):
        final = final_values[key]
        acked = history.acked_incs(key)
        indet = history.indeterminate_incs(key)
        if final < acked:
            report.violations.append(
                f"lost writes on {key!r}: {acked} acked but final={final}")
        elif final > acked + indet:
            report.violations.append(
                f"phantom writes on {key!r}: final={final} > "
                f"{acked} acked + {indet} indeterminate")
    report.checks_run.append(
        "durability: acked <= final <= acked + indeterminate "
        f"({len(final_values)} keys)")

    # 2/3/4. Read checks.
    dirty = recency = 0
    for read in history.reads():
        if read.status != OK or read.value is None:
            continue
        invoked = sum(1 for inc in history.incs(read.key)
                      if inc.status in (OK, INDETERMINATE)
                      and inc.start_ms <= read.end_ms)
        if read.value > invoked:
            dirty += 1
            report.violations.append(
                f"dirty read on {read.key!r} by {read.client}: saw "
                f"{read.value} with only {invoked} increments invoked "
                f"by t={read.end_ms:.1f}")
        if not read.stale:
            floor = sum(1 for inc in history.incs(read.key)
                        if inc.status == OK and inc.end_ms <= read.start_ms)
            if read.value < floor:
                recency += 1
                report.violations.append(
                    f"stale strong read on {read.key!r} by {read.client}: "
                    f"saw {read.value} but {floor} increments were acked "
                    f"before t={read.start_ms:.1f}")
    report.checks_run.append(
        f"dirty reads: none may outrun invoked increments "
        f"({len(history.reads())} reads)")
    report.checks_run.append(
        "recency: strong reads observe all previously-acked increments")

    # 4. Monotonic reads per (client, key).
    last_seen: Dict[Tuple[str, str], int] = {}
    for read in history.reads():
        if read.status != OK or read.value is None:
            continue
        slot = (read.client, read.key)
        prev = last_seen.get(slot)
        if prev is not None and read.value < prev:
            report.violations.append(
                f"non-monotonic reads on {read.key!r} by {read.client}: "
                f"{prev} then {read.value}")
        last_seen[slot] = max(prev or 0, read.value)
    report.checks_run.append("monotonicity: per-client reads never regress")
    return report


def availability_timeline(history: History, bucket_ms: float = 250.0
                          ) -> List[Tuple[float, int, int, int, float]]:
    """Bucketed availability: ``(bucket_start, ok, fail, indeterminate,
    mean_latency_ms)`` per bucket, keyed by operation end time."""
    buckets: Dict[int, List[OpRecord]] = {}
    for op in history.ops:
        buckets.setdefault(int(op.end_ms // bucket_ms), []).append(op)
    rows = []
    for index in sorted(buckets):
        ops = buckets[index]
        ok = sum(1 for op in ops if op.status == OK)
        fail = sum(1 for op in ops if op.status == FAIL)
        indet = sum(1 for op in ops if op.status == INDETERMINATE)
        oks = [op.latency_ms for op in ops if op.status == OK]
        mean = sum(oks) / len(oks) if oks else 0.0
        rows.append((index * bucket_ms, ok, fail, indet, mean))
    return rows


def render_timeline(history: History, nemesis_timeline=(),
                    bucket_ms: float = 250.0) -> str:
    """ASCII availability/latency timeline with fault markers."""
    rows = availability_timeline(history, bucket_ms)
    marks: Dict[int, List[str]] = {}
    for when, action, name in nemesis_timeline:
        marks.setdefault(int(when // bucket_ms), []).append(
            f"{action} {name}")
    lines = ["  t(ms)      ok fail amb  mean-lat  faults"]
    for start, ok, fail, indet, mean in rows:
        bar = "#" * min(ok, 30) + "x" * min(fail, 10)
        note = "; ".join(marks.pop(int(start // bucket_ms), []))
        lines.append(
            f"  {start:8.0f} {ok:4d} {fail:4d} {indet:3d} {mean:8.1f}ms"
            f"  {bar}{('  <- ' + note) if note else ''}")
    for index in sorted(marks):
        lines.append(f"  {index * bucket_ms:8.0f}  (no ops)"
                     f"          <- {'; '.join(marks[index])}")
    return "\n".join(lines)


@dataclass
class ScenarioResult:
    """Everything a chaos run produced, ready to render or assert on."""

    name: str
    seed: int
    history: History
    report: InvariantReport
    nemesis_timeline: list
    final_values: Dict[str, int]
    duration_ms: float
    stats: Dict[str, float] = field(default_factory=dict)
    #: The harness that produced this result (liveness + repair metrics
    #: live here for the ``repair`` CLI report); None for custom runs.
    harness: Optional[Any] = None
    #: Full registry snapshot taken at the end of the run.
    metrics_snapshot: Optional[Dict[str, Dict[str, object]]] = None

    def to_json(self) -> Dict[str, object]:
        """Machine-readable summary for CI tooling."""
        counts = self.history.counts()
        return {
            "scenario": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "duration_ms": round(self.duration_ms, 1),
            "ops": {
                "total": len(self.history.ops),
                "ok": counts.get(OK, 0),
                "fail": counts.get(FAIL, 0),
                "indeterminate": counts.get(INDETERMINATE, 0),
            },
            "stats": dict(self.stats),
            "final_values": dict(self.final_values),
            "checks_run": list(self.report.checks_run),
            "violations": list(self.report.violations),
            "nemesis_timeline": [
                {"at_ms": round(when, 1), "action": action, "fault": fault}
                for when, action, fault in self.nemesis_timeline],
        }

    @property
    def ok(self) -> bool:
        return self.report.ok

    def render(self) -> str:
        counts = self.history.counts()
        lines = [
            f"chaos scenario {self.name!r} (seed={self.seed}) — "
            f"{len(self.history.ops)} ops in {self.duration_ms:.0f}ms sim",
            f"  ops: {counts.get(OK, 0)} ok, {counts.get(FAIL, 0)} failed, "
            f"{counts.get(INDETERMINATE, 0)} indeterminate",
            "  stats: " + ", ".join(
                f"{key}={value}" for key, value in sorted(self.stats.items())),
            f"  final: " + ", ".join(
                f"{key}={value}"
                for key, value in sorted(self.final_values.items())),
            "timeline:",
            render_timeline(self.history, self.nemesis_timeline),
            "invariants:",
            self.report.render(),
        ]
        return "\n".join(lines)
