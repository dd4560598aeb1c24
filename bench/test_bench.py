"""Tests of the benchmark itself.  Run with ``python -m pytest bench -q``;
tier-1 (``testpaths = ["tests"]``) does not collect this file."""

from __future__ import annotations

import json

import pytest

from bench import ROOT, run, trace
from bench.workloads import WORKLOADS

#: Small enough to be quick, large enough that every output check and
#: every expected shim still has something to see.
SMOKE_SCALE = {"kv": 0.1, "kv_obs": 0.1, "movr": 0.15, "tpcc": 0.5,
               "tpcc_epoch": 0.5, "openloop": 0.4, "verify_sweep": 0.25}


# -- the contract file ------------------------------------------------------


def test_benchmark_json_mirrors_the_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert doc["run_seconds"] == run.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (name, cls.why) for name, cls in WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert set(run.REP_SECONDS) == set(WORKLOADS)


# -- every workload, tiny ---------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_end_to_end(name):
    result = run.measure(name, seed=0, seconds=0, scale=SMOKE_SCALE[name])
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m[0] for m in run.END_TO_END}
    assert all(value > 0 for value in result["metrics"].values())
    assert result["info"]["repetitions"] == run.MIN_REPS + 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced(name):
    result = run.traced(name, seed=0, scale=SMOKE_SCALE[name],
                        with_micro=False)
    # No problem covers: output checks, tracing left the simulation
    # bit-identical, and every shim the workload expects fired.
    assert result["problems"] == []
    metrics = result["metrics"]
    assert set(metrics) == {m[0] for m in run.PER_LAYER}
    assert metrics["sim.core.events_per_op"] > 0
    assert 0 < metrics["sim.core.self_share"] < 1
    assert metrics["trace.overhead_ratio"] > 0
    # Layers a workload bypasses stay at zero.
    if name in ("kv", "kv_obs", "openloop", "verify_sweep"):
        assert metrics["sql.parser.calls_per_op"] == 0
    if name == "openloop":
        assert metrics["sql.executor.self_us_per_op"] == 0
        assert metrics["admission.goodput_share_1x"] == 1.0
    else:
        assert metrics["admission.self_us_per_op"] == 0
    if name != "tpcc_epoch":
        assert metrics["txn.epoch.self_us_per_op"] == 0
    assert (run.OUT_DIR / f"{name}.spans.json").exists()


@pytest.mark.parametrize("seed", [0, 1])
def test_fingerprint_repeats_per_seed(seed):
    workload = WORKLOADS["movr"](SMOKE_SCALE["movr"])
    first = run.run_rep(workload, seed)
    second = run.run_rep(workload, seed)
    other = run.run_rep(workload, seed + 7)
    assert first.fingerprint == second.fingerprint
    assert first.fingerprint != other.fingerprint


def test_stopwatch_divides_each_slice_by_the_slowdown(monkeypatch):
    slowdowns = iter([2.0, 2.0, 1.0])
    monkeypatch.setattr(run, "calibrate", lambda: next(slowdowns))
    watch = run.Stopwatch()
    watch.lap()
    # The machine ran 2x slower than the unit box around the slice.
    first = watch.raw_s
    assert watch.calibrated_s == pytest.approx(first / 2.0)
    watch.lap()
    # 2x before, 1x after: 1.5x slower on average; slices add up.
    second = watch.raw_s - first
    assert watch.calibrated_s == pytest.approx(first / 2.0 + second / 1.5)


def test_reset_process_caches_empties_the_named_tables():
    from repro.kv import keyspace
    from repro.sql import parser
    parser.parse("SELECT name FROM users WHERE id = 1")
    keyspace.encode_key(7)
    assert parser._PARSE_CACHE and keyspace._ENCODE_CACHE
    run.reset_process_caches()
    assert not parser._PARSE_CACHE and not keyspace._ENCODE_CACHE


# -- shims ------------------------------------------------------------------


def _originals():
    out = []
    for _layer, target, _kind in trace.SHIMS:
        owner, attr = trace._resolve(target)
        out.append((target, vars(owner)[attr]))
    return out


def test_install_and_restore_leave_classes_identical():
    before = _originals()
    tracer = trace.Tracer()
    tracer.install()
    try:
        during = _originals()
        assert all(new is not old for (_t, new), (_t2, old)
                   in zip(during, before))
    finally:
        tracer.restore()
    after = _originals()
    assert all(new is old for (_t, new), (_t2, old) in zip(after, before))
    assert tracer.shim == []  # nothing ran


class _FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_trampoline_is_transparent():
    tracer = trace.Tracer()
    tracer.names.append("g")
    tracer.layers.append("test")
    seen = []

    def inner():
        got = yield "first"
        seen.append(got)
        try:
            yield "second"
        except KeyError as exc:
            seen.append(type(exc).__name__)
        got = yield "third"
        seen.append(got)
        return "result"

    driven = tracer.trampoline(inner(), tracer.open(0))
    assert next(driven) == "first"
    assert driven.send("a") == "second"
    assert driven.throw(KeyError("k")) == "third"
    with pytest.raises(StopIteration) as stop:
        driven.send("b")
    assert stop.value.value == "result"
    assert seen == ["a", "KeyError", "b"]
    assert tracer.err == [0]


def test_trampoline_propagates_exceptions_and_close():
    tracer = trace.Tracer()
    tracer.names.append("g")
    tracer.layers.append("test")
    closed = []

    def failing():
        yield 1
        raise ValueError("boom")

    driven = tracer.trampoline(failing(), tracer.open(0))
    next(driven)
    with pytest.raises(ValueError, match="boom"):
        next(driven)
    assert tracer.error_names[tracer.err[0] - 1] == "ValueError"

    def closable():
        try:
            yield 1
        finally:
            closed.append(True)

    driven = tracer.trampoline(closable(), tracer.open(0))
    next(driven)
    driven.close()
    assert closed == [True]
    assert tracer._stack == []


def test_self_time_is_busy_minus_children():
    clock = _FakeClock()
    tracer = trace.Tracer(clock=clock)
    for name in ("root", "a", "b"):
        tracer.names.append(name)
        tracer.layers.append(name)

    # root [0..100] calls a [10..60]; a calls b twice, [20..30], [40..55].
    root = tracer.open(0)
    tracer.enter(root)
    clock.now = 10
    a = tracer.open(1)
    tracer.enter(a)
    for start, end in ((20, 30), (40, 55)):
        clock.now = start
        b = tracer.open(2)
        tracer.enter(b)
        clock.now = end
        tracer.exit(b)
    clock.now = 60
    tracer.exit(a)
    clock.now = 100
    tracer.exit(root)

    assert tracer.parent == [-1, root, a, a]
    assert tracer.busy == [100, 50, 10, 15]
    assert tracer.self_ns == [50, 25, 10, 15]
    assert sum(tracer.self_ns) == 100  # nothing counted twice

    # A generator span resumed twice accumulates both resumes.
    def gen():
        clock.now += 5
        yield
        clock.now += 7

    clock.now = 200
    span = tracer.open(1)
    driven = tracer.trampoline(gen(), span)
    next(driven)
    clock.now = 300  # suspended: not busy
    with pytest.raises(StopIteration):
        next(driven)
    assert tracer.busy[span] == 12


def test_ledger_counts_only_the_timed_region():
    clock = _FakeClock()
    tracer = trace.Tracer(clock=clock)
    tracer.names.extend(["Network.send", "RaftGroup.propose"])
    tracer.layers.extend(["sim.network", "raft"])
    clock.now = 5            # set-up: before the timed region
    tracer.exit(_entered(tracer, 0))
    clock.now = 100          # timed region starts at 50
    propose = _entered(tracer, 1)
    send = _entered(tracer, 0)
    clock.now = 110
    tracer.exit(send)
    clock.now = 130
    tracer.exit(propose)
    metrics = trace.ledger(tracer, ops=2, since_ns=50, timed_ns=100)
    assert metrics["sim.network.msgs_per_op"] == 0.5
    assert metrics["raft.proposals_per_op"] == 0.5
    assert metrics["raft.msgs_per_proposal"] == 1.0
    assert metrics["raft.self_us_per_op"] == pytest.approx(0.020 / 2)
    assert metrics["trace.unattributed_share"] == pytest.approx(0.7)


def _entered(tracer, shim_id):
    span = tracer.open(shim_id)
    tracer.enter(span)
    return span
