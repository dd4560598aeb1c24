"""What the benchmark under ``bench/`` needs from the program.

``bench/`` is measured against the program, not changed with it: a
rename that strands one of its lookups makes every benchmark run fail
before it measures anything.  ``bench/test_bench.py`` checks the same
shim table, but only where the benchmark's own suite runs; this file
keeps the contract in tier-1.
"""

import importlib
import math

from bench import trace
from bench.workloads import WORKLOADS


def test_shim_targets_are_their_owners_own_attributes():
    # Tracer.install reads vars(owner)[attr]: an inherited or removed
    # method is a KeyError there.
    missing = []
    for _layer, target, _kind in trace.SHIMS:
        owner, attr = trace._resolve(target)
        if attr not in vars(owner):
            missing.append(target)
    assert missing == []


def test_expected_shims_are_shim_names():
    names = {target.rpartition(":")[2] for _layer, target, _kind
             in trace.SHIMS}
    for name, workload in WORKLOADS.items():
        assert set(workload.expects) <= names, name


def test_micro_benchmarks_import():
    importlib.import_module("bench.micro")


def test_micro_benchmarks_run():
    # Importing proves nothing about the calls a micro-benchmark makes
    # into the program; three iterations of each do.
    micro = importlib.import_module("bench.micro")
    for name, (_unit, measure) in micro.METRICS.items():
        value = measure(n=3)
        assert math.isfinite(value) and value > 0, name


def test_process_caches_the_benchmark_resets_exist():
    # bench/run.py clears both before every repetition.
    from repro.kv import keyspace
    from repro.sql import parser
    assert isinstance(parser._PARSE_CACHE, dict)
    assert isinstance(keyspace._ENCODE_CACHE, dict)
