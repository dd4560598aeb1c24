"""The repo benchmark's one command.

    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1

runs one workload in this process and prints its metrics by name with their
units, then — as the last line — one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate traced
run that produces the per-layer ledger (and the micro-benchmarks).  Without
``--workload`` every workload runs, one at a time, each in a fresh
subprocess.  Exit status is non-zero when any output check fails.

    --micro     only the per-layer micro-benchmarks
    --profile   one repetition under cProfile next to the span self-times
    --json OUT  also write everything measured to OUT

See ``bench/README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import heapq
import json
import math
import pstats
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench/run.py: no program to measure: {ROOT}/src/repro "
                 f"is missing")
    # Run as a script, sys.path[0] is bench/ itself, where trace.py would
    # shadow the standard library's; import through the package instead.
    sys.path[0] = str(ROOT)

from bench import micro, trace  # noqa: E402
from bench.workloads import WORKLOADS, RepResult, percentile  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"

#: name, unit, better, bound — mirrored in BENCHMARK.json (test_bench.py
#: checks the two agree).  Host-time metrics are in *calibrated* seconds,
#: see Stopwatch.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("sim_mean_ms", "sim-ms", "lower", 0.25),
    ("sim_p99_ms", "sim-ms", "lower", 0.25),
    ("sim_goodput_per_s", "ops/sim-s", "higher", 0.25),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("failed_share", "ratio", "lower"),
    ("sim.core.events_per_op", "count", "lower"),
    ("sim.core.events_per_s", "1/s", "higher"),
    ("sim.core.self_share", "ratio", "lower"),
    ("sim.network.msgs_per_op", "count", "lower"),
    ("sim.network.self_us_per_op", "us", "lower"),
    ("sim.network.dropped_share", "ratio", "lower"),
    ("raft.proposals_per_op", "count", "lower"),
    ("raft.msgs_per_proposal", "count", "lower"),
    ("raft.self_us_per_op", "us", "lower"),
    ("raft.commit_sim_ms_p50", "sim-ms", "lower"),
    ("storage.mvcc.calls_per_op", "count", "lower"),
    ("storage.mvcc.self_us_per_op", "us", "lower"),
    ("storage.locktable.waits_per_op", "count", "lower"),
    ("storage.locktable.wait_sim_ms_per_op", "sim-ms", "lower"),
    ("kv.distsender.rpcs_per_op", "count", "lower"),
    ("kv.distsender.retries_per_op", "count", "lower"),
    ("kv.distsender.self_us_per_op", "us", "lower"),
    ("kv.range.serves_per_op", "count", "lower"),
    ("kv.range.self_us_per_op", "us", "lower"),
    ("txn.attempts_per_commit", "count", "lower"),
    ("txn.self_us_per_op", "us", "lower"),
    ("txn.commit_wait_sim_ms_per_op", "sim-ms", "lower"),
    ("txn.epoch.validation_aborts_per_commit", "count", "lower"),
    ("txn.epoch.epoch_wait_sim_ms_per_op", "sim-ms", "lower"),
    ("txn.epoch.self_us_per_op", "us", "lower"),
    ("sql.parser.calls_per_op", "count", "lower"),
    ("sql.parser.self_us_per_op", "us", "lower"),
    ("sql.executor.kv_ops_per_stmt", "count", "lower"),
    ("sql.executor.self_us_per_op", "us", "lower"),
    ("admission.queue_sim_ms_per_op", "sim-ms", "lower"),
    ("admission.shed_share", "ratio", "lower"),
    ("admission.self_us_per_op", "us", "lower"),
    ("admission.goodput_share_1x", "ratio", "higher"),
    ("admission.goodput_share_2x", "ratio", "higher"),
    ("admission.goodput_share_4x", "ratio", "higher"),
    ("admission.p99_ms_1x", "sim-ms", "lower"),
    ("admission.p99_ms_2x", "sim-ms", "lower"),
    ("admission.p99_ms_4x", "sim-ms", "lower"),
    ("openloop.generator_lateness_ms", "sim-ms", "lower"),
    ("obs.overhead_ratio", "ratio", "lower"),
    ("verify.check_us_per_txn", "us", "lower"),
    ("verify.check_share", "ratio", "lower"),
    ("model.global_read_p99_ms", "sim-ms", "lower"),
    ("model.global_write_p50_ms", "sim-ms", "lower"),
    ("model.regional_home_p50_ms", "sim-ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
) + tuple((name, unit, "lower") for name, (unit, _fn) in micro.METRICS.items())

#: Nominal host seconds of one repetition on the reference box; ``--seconds``
#: buys ``seconds / REP_SECONDS`` repetitions (at least MIN_REPS).  The count
#: is fixed by the arguments, not by the clock, so the simulated metrics of a
#: (seed, seconds) pair repeat exactly.
REP_SECONDS = {"kv": 0.40, "kv_obs": 0.55, "movr": 0.50, "tpcc": 0.57,
               "tpcc_epoch": 0.63, "openloop": 1.7, "verify_sweep": 1.25}
MIN_REPS = 3
DEFAULT_SECONDS = 6

#: Layer -> ``repro.`` module prefixes, for ``--profile``.
LAYER_MODULES = {
    "sim.core": ("sim.core",), "sim.network": ("sim.network",),
    "raft": ("raft.",), "storage.mvcc": ("storage.mvcc",),
    "storage.locktable": ("storage.locktable",),
    "kv.distsender": ("kv.distsender", "kv.circuit", "sim.retry"),
    "kv.range": ("kv.range", "kv.replica", "kv.closedts", "storage.tscache"),
    "txn": ("txn.coordinator", "txn.crdb"), "txn.epoch": ("txn.epoch",),
    "sql.parser": ("sql.parser", "sql.lexer"),
    "sql.executor": ("sql.executor", "sql.eval", "optimizer."),
    "admission": ("admission.",), "verify": ("verify.checker",),
}


# -- calibrated host time ---------------------------------------------------

#: The sandbox this runs in is a shared core whose speed drifts by tens of
#: percent over minutes - slower than a run, so neither longer repetitions
#: nor a median, quartile or minimum over them steadies wall time (spread
#: of kv between runs of 15 repetitions: 0.11-0.16 whichever of those is
#: taken, against 0.04 calibrated; bench/README.md has the measurement).  The driver compares
#: unpaired runs, so host time is divided by how slow the machine was
#: around each timed slice.  A calibration sample times two fixed loops
#: that do not touch the program: integer arithmetic, and a mix of
#: small-object allocation, dict stores, heap pushes of tuples and
#: generator resumes (what a simulator's inner loops are made of); the
#: workloads are part compute-bound, part memory-bound, and either loop
#: alone leaves twice the spread of their geometric mean.
CAL_ARITH_LOOPS = 200_000
CAL_OBJECT_LOOPS = 12_000
#: Defines the unit and nothing else: a calibrated second is as long as a
#: wall second was on the box where the two loops took this geometric-mean
#: time.  Any other constant rescales every host metric alike.
CAL_UNIT_S = 0.01433


class _Event:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def _count_up():
    k = 0
    while True:
        yield k
        k += 1


def calibrate() -> float:
    """How slowly the machine runs right now, in units of CAL_UNIT_S."""
    started = perf_counter()
    acc = 0
    for i in range(CAL_ARITH_LOOPS):
        acc += i * i & 7
    arith = perf_counter() - started

    started = perf_counter()
    heap: List[tuple] = []
    table: Dict[int, _Event] = {}
    resume = _count_up().__next__
    for i in range(CAL_OBJECT_LOOPS):
        event = _Event(i, (i, i + 1), None)
        table[i & 2047] = event
        heapq.heappush(heap, (float(i * 7919 & 8191), i, event))
        if i & 1:
            heapq.heappop(heap)
        resume()
    objects = perf_counter() - started
    return math.sqrt(arith * objects) / CAL_UNIT_S


class Stopwatch:
    """Wall and calibrated seconds, summed over slices.  Each slice is
    bracketed by two calibration samples and its calibrated seconds are
    its wall seconds over their mean; ``lap`` closes a slice and opens the
    next, so a long timed region can be split where the workload allows."""

    def __init__(self) -> None:
        self.raw_s = self.calibrated_s = 0.0
        self._slowdown = calibrate()
        self._started = perf_counter()

    def lap(self) -> None:
        raw = perf_counter() - self._started
        after = calibrate()
        self.raw_s += raw
        self.calibrated_s += raw / ((self._slowdown + after) / 2.0)
        self._slowdown = after
        self._started = perf_counter()


# -- one repetition ---------------------------------------------------------


def reset_process_caches() -> None:
    """A repetition starts as a fresh process would: the program's
    process-wide memo tables (statement texts, encoded keys) are emptied,
    or repetitions 2..N would measure cache hits where users pay misses.

    The two tables are named, not searched for: if a later change renames
    one or swaps it for another kind of cache, this raises and the run
    fails, where a search would quietly clear nothing."""
    from repro.kv import keyspace
    from repro.sql import parser
    parser._PARSE_CACHE.clear()
    keyspace._ENCODE_CACHE.clear()


def fingerprint(result: RepResult) -> str:
    """What must repeat exactly for a seed: op and event counts, simulated
    time, and every latency sample."""
    digest = hashlib.sha256()
    digest.update(repr((result.ops, result.good, result.refused,
                        result.events, round(result.sim_ms, 6))).encode())
    digest.update(repr(sorted(result.latencies)).encode())
    return digest.hexdigest()


@dataclass
class Rep:
    result: RepResult
    fingerprint: str
    setup_s: float
    #: ``perf_counter_ns`` when the timed region began.
    timed_since_ns: int
    timed_raw_s: float
    timed_s: float


def _noop(*_args) -> None:
    return None


def run_rep(workload, seed: int, mark: Callable[[int], None] = _noop) -> Rep:
    reset_process_caches()
    inputs = workload.generate(seed)
    gc.collect()
    watch = Stopwatch()
    state = workload.setup(inputs, seed)
    watch.lap()
    setup_raw_s, setup_s = watch.raw_s, watch.calibrated_s
    since = perf_counter_ns()
    result = workload.run(state, inputs, mark, watch.lap)
    watch.lap()
    return Rep(result, fingerprint(result), setup_s, since,
               watch.raw_s - setup_raw_s, watch.calibrated_s - setup_s)


def _sub_seed(seed: int, rep: int) -> int:
    return seed * 1000 + rep


# -- the end-to-end run (tracing off) ---------------------------------------


def measure(name: str, seed: int, seconds: float,
            scale: float = 1.0) -> Dict[str, Any]:
    """``seconds / REP_SECONDS`` repetitions on sub-seeds of ``seed``, then
    the first one again: its fingerprint must repeat (determinism)."""
    workload = WORKLOADS[name](scale)
    count = max(MIN_REPS, int(round(seconds / REP_SECONDS[name])))
    reps = [run_rep(workload, _sub_seed(seed, r)) for r in range(count)]
    again = run_rep(workload, _sub_seed(seed, 0))
    problems = [p for rep in reps for p in rep.result.problems]
    if again.fingerprint != reps[0].fingerprint:
        problems.append("the same seed gave a different fingerprint "
                        f"({reps[0].fingerprint[:12]} then "
                        f"{again.fingerprint[:12]})")
    pooled = sorted(x for rep in reps for x in rep.result.latencies)
    timings = reps + [again]
    attempted = sum(rep.result.ops for rep in timings)
    metrics = {
        # Work over time, not a median of rates: after calibration the
        # per-repetition noise is light-tailed, and the total uses all of
        # it (measured: the steadiest of median / midmean / total).
        "ops_per_s": attempted / sum(rep.timed_s for rep in timings),
        "setup_s": statistics.median(rep.setup_s for rep in timings),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_mean_ms": statistics.fmean(pooled) if pooled else 0.0,
        "sim_p99_ms": percentile(pooled, 99),
        "sim_goodput_per_s": statistics.fmean(
            rep.result.goodput_per_s for rep in reps),
    }
    raw_s = sum(rep.timed_raw_s for rep in timings)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": sum(rep.result.failed for rep in timings),
        "problems": problems,
        "info": {
            "repetitions": len(timings),
            "latency_samples": len(pooled),
            "fingerprint": hashlib.sha256("".join(
                rep.fingerprint for rep in reps).encode()).hexdigest(),
            "raw_ops_per_s": attempted / raw_s,
            "slowdown": raw_s / sum(rep.timed_s for rep in timings),
        },
    }


# -- the traced run ---------------------------------------------------------


def traced(name: str, seed: int, scale: float = 1.0,
           with_micro: bool = True) -> Dict[str, Any]:
    """One untraced and one traced repetition of the same sub-seed; the
    ledger comes from the traced one, tracing overhead from the pair."""
    workload = WORKLOADS[name](scale)
    sub_seed = _sub_seed(seed, 0)
    plain = run_rep(workload, sub_seed)
    tracer = trace.Tracer()
    tracer.install()
    try:
        shimmed = run_rep(workload, sub_seed, mark=tracer.mark)
    finally:
        tracer.restore()
    result = shimmed.result
    problems = list(plain.result.problems)
    if shimmed.fingerprint != plain.fingerprint:
        problems.append("tracing changed the simulation: fingerprint "
                        f"{plain.fingerprint[:12]} untraced, "
                        f"{shimmed.fingerprint[:12]} traced")
    fired = tracer.call_counts()
    silent = [shim for shim in workload.expects if not fired.get(shim)]
    if silent:
        problems.append("shims that should fire stayed at zero calls "
                        f"(bound before patching?): {', '.join(silent)}")

    ops = result.ops
    metrics = {layer_metric: 0.0 for layer_metric, _u, _b in PER_LAYER}
    metrics.update(trace.ledger(tracer, ops, shimmed.timed_since_ns,
                                int(shimmed.timed_raw_s * 1e9)))
    metrics.update(result.extra)
    metrics.update({
        "failed_share": result.failed_share,
        "sim.core.events_per_op": result.events / ops,
        "sim.core.events_per_s": plain.result.events / plain.timed_s,
        "trace.overhead_ratio": shimmed.timed_s / plain.timed_s,
    })
    if name == "kv_obs":
        # The same inputs with observability off: what obs costs.
        kv = run_rep(WORKLOADS["kv"](scale), sub_seed)
        metrics["obs.overhead_ratio"] = (
            (kv.result.ops / kv.timed_s) / (ops / plain.timed_s))
    if with_micro:
        metrics.update(micro.run_micro())
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"{name}.spans.json")
    return {
        "metrics": metrics,
        "attempted": ops,
        "failed": result.failed,
        "problems": problems,
        "info": {"spans": len(tracer.shim),
                 "spans_file": str(OUT_DIR / f"{name}.spans.json"),
                 "fingerprint": shimmed.fingerprint},
        "tracer": tracer,
    }


# -- --profile --------------------------------------------------------------


def profile(name: str, seed: int) -> str:
    """One repetition under cProfile: host self-time share by
    ``repro.<package>.<module>``, next to the span self-time shares, so
    code the shim table misses shows up with a name."""
    run = traced(name, seed, with_micro=False)
    tracer = run["tracer"]
    span_ns: Dict[str, int] = {}
    for span, shim_id in enumerate(tracer.shim):
        layer = tracer.layers[shim_id]
        span_ns[layer] = span_ns.get(layer, 0) + tracer.self_ns[span]
    span_total = sum(span_ns.values()) or 1

    workload = WORKLOADS[name]()
    inputs = workload.generate(_sub_seed(seed, 0))
    reset_process_caches()
    state = workload.setup(inputs, _sub_seed(seed, 0))
    profiler = cProfile.Profile()
    profiler.enable()
    workload.run(state, inputs, _noop, _noop)
    profiler.disable()
    by_module: Dict[str, float] = {}
    marker = "/repro/"
    for (filename, _line, _fn), row in pstats.Stats(profiler).stats.items():
        if marker in filename:
            module = filename.rpartition(marker)[2][:-3].replace("/", ".")
        else:
            module = "(outside repro)"
        by_module[module] = by_module.get(module, 0.0) + row[2]  # tottime
    total = sum(by_module.values()) or 1.0

    lines = [f"{'layer':<18s} {'span self':>10s} {'cProfile':>9s}  modules"]
    claimed = set()
    for layer, prefixes in LAYER_MODULES.items():
        modules = sorted(m for m in by_module if m.startswith(prefixes))
        claimed.update(modules)
        share = sum(by_module[m] for m in modules) / total
        lines.append(f"{layer:<18s} {span_ns.get(layer, 0) / span_total:>10.1%}"
                     f" {share:>9.1%}  {', '.join(modules) or '-'}")
    lines.append("modules no layer's shims are expected to cover:")
    others = sorted(((t, m) for m, t in by_module.items()
                     if m not in claimed), reverse=True)
    for seconds, module in others[:12]:
        lines.append(f"  {module:<34s} {seconds / total:>6.1%}")
    return "\n".join(lines)


# -- command line -----------------------------------------------------------


def _print_metrics(table, metrics: Dict[str, float], info: Dict) -> None:
    for row in table:
        name, unit = row[0], row[1]
        note = ""
        if name == "sim_p99_ms":
            note = f"   ({info['latency_samples']} samples)"
        print(f"  {name:<44s} {metrics[name]:>14.4f} {unit}{note}")
    for key, value in info.items():
        print(f"  [{key}] {value}")


def run_one(args) -> int:
    """Contract mode: one workload in this process, JSON on the last line."""
    if args.trace:
        run = traced(args.workload, args.seed)
        table: Tuple = PER_LAYER
    else:
        run = measure(args.workload, args.seed, args.seconds)
        table = END_TO_END
    run.pop("tracer", None)
    print(f"{args.workload} seed={args.seed} trace={int(args.trace)}")
    _print_metrics(table, run["metrics"], run["info"])
    for problem in run["problems"]:
        print(f"  CHECK FAILED: {problem}")
    units = {row[0]: row[1] for row in table}
    correct = not run["problems"] and run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, one at a time, each in a fresh subprocess."""
    status = 0
    document: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds,
                                "trace": int(args.trace), "workloads": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(int(args.trace))]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=900)
        lines = done.stdout.rstrip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            status = 1
            print(f"  {name}: exit status {done.returncode}")
            sys.stderr.write(done.stderr)
        try:
            document["workloads"][name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            status = 1
            print(f"  {name}: no result line")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--micro", action="store_true")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--json", metavar="OUT")
    args = parser.parse_args(argv)
    if args.micro:
        for name, value in micro.run_micro().items():
            print(f"  {name:<44s} {value:>14.2f} {micro.METRICS[name][0]}")
        return 0
    if args.profile:
        for name in ([args.workload] if args.workload else WORKLOADS):
            print(f"{name} seed={args.seed} profile")
            print(profile(name, args.seed))
        return 0
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
