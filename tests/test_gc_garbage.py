"""Finished simulation processes and SQL statements are reclaimed by
reference counting, not left for the cyclic collector.

A ``Process`` used to keep bound methods of itself, so every finished
process — with its generator frame and whatever that referenced — was a
reference cycle; the planner's recursive ``visit`` closure was another.
On a TPC-C run the collector spent a tenth of the host time on them.
"""

import gc
import types

from repro.harness.tracing import run_fixed_workload
from repro.sim.core import Process

PACKAGES = ("repro.sim", "repro.sql", "repro.optimizer")
PATHS = tuple("/" + package.replace(".", "/") + "/" for package in PACKAGES)


def ours(obj) -> bool:
    """A process, or a generator or closure defined in PACKAGES."""
    if isinstance(obj, Process):
        return True
    if isinstance(obj, types.GeneratorType):
        return any(path in obj.gi_code.co_filename for path in PATHS)
    if isinstance(obj, types.FunctionType) and obj.__closure__:
        return (obj.__module__ or "").startswith(PACKAGES)
    return False


def test_runs_leave_no_cyclic_garbage_of_ours():
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # unreachable cycles land in gc.garbage
    try:
        # The engines stay referenced: what is collected is what the runs
        # dropped, not the clusters' own (cyclic, still live) structure.
        engines = [run_fixed_workload("kv", 0, False, 0.05)[0],
                   run_fixed_workload("tpcc", 0, False, 0.1)[0]]
        gc.collect()
        found = [repr(obj)[:120] for obj in gc.garbage if ours(obj)]
        assert engines and not found, (
            f"{len(found)} cyclic-garbage objects, e.g. {found[:5]}")
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
