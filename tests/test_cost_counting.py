"""The cost ledger counts through the kernel's one observer slot.

``costs.counting()`` puts a :class:`~repro.harness.costs.Tally` in
``Simulator.observer``: the dispatch loop reports each event's callback
to it, and ``Network.send`` / ``Network.call`` report each message on
entry.  Nothing is patched at class level, so a cluster built before
the context is entered is counted like one built inside it.
"""

import ast
import pathlib
from contextlib import ExitStack

from repro.harness import costs
from repro.harness.costs import counting
from repro.sim.core import Simulator

from .kv_util import REGIONS3, KVTestBed

#: The classes whose methods the ledger once patched to count.
KERNEL_CLASSES = {"Simulator", "Network", "SideTransport"}


def _writes_and_ticks(enter_before_build: bool):
    """Three single-write transactions from one region, queued behind a
    timer, and 600 ms of side-transport ticks; ``counting()`` entered
    before the cluster is built or after, with events already queued."""
    with ExitStack() as stack:
        if enter_before_build:
            tally = stack.enter_context(counting())
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        sim = bed.sim

        def client():
            for i in range(3):
                def txn_fn(txn, i=i):
                    yield from txn.write(rng, f"k{i}", i)
                yield from bed.coord.run(bed.gateway("us-east1"), txn_fn)

        sim.call_after(1.0, lambda: sim.spawn(client()))
        if enter_before_build:
            assert not (tally.sends or tally.calls or tally.by_callback), \
                "building the cluster sent or dispatched something"
        else:
            assert sim._heap, "no event was queued before counting began"
            tally = stack.enter_context(counting())
        sim.run(until=600.0)
        return (dict(tally.sends), dict(tally.calls),
                dict(tally.by_callback), sim.events_processed)


def test_counting_entered_after_the_build_counts_the_same():
    before = _writes_and_ticks(enter_before_build=True)
    after = _writes_and_ticks(enter_before_build=False)
    sends, calls, by_callback, events = after
    assert sends["append"] and sends["ack"] and sends["side transport"]
    assert calls["DistSender.write"] == 3
    # The network schedules deliveries through a bound ``call_after``
    # taken at construction; the slot sees them anyway.
    assert by_callback["RaftGroup._deliver_append"] == sends["append"]
    assert by_callback["SideTransport._tick"] == 6
    assert sum(by_callback.values()) == events
    assert after == before


def test_a_dropped_send_counts_and_a_cancelled_event_does_not():
    bed = KVTestBed(regions=REGIONS3)
    net, sim = bed.cluster.network, bed.sim
    src, dst = bed.gateway("us-east1"), bed.gateway("europe-west2")
    net.faults.cut_link(src.locality.region, dst.locality.region)
    with counting() as tally:
        net.send(src, dst, print, "never delivered")
        sim.cancel(sim.call_after(1.0, print, "never fired"))
        sim.call_after(2.0, len, ())
        sim.run(until=5.0)
    assert tally.sends == {"print": 1}
    assert tally.by_callback == {"len": 1}
    assert Simulator.observer is None


def test_the_ledger_patches_no_kernel_class():
    """Tier-1 form of CI's "One cost ledger" AST check: the ledger
    assigns no attribute of a kernel class and wraps no callback."""
    source = pathlib.Path(costs.__file__).read_text()
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "Counted":
            bad.append(f"line {node.lineno}: defines Counted")
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(
                       node, (ast.AugAssign, ast.AnnAssign)) else [])
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                in ("setattr", "delattr") and node.args):
            targets = [ast.Attribute(value=node.args[0], attr="?")]
        for target in targets:
            for leaf in ast.walk(target):
                if (isinstance(leaf, ast.Attribute)
                        and getattr(leaf.value, "id", None) in KERNEL_CLASSES):
                    bad.append(f"line {node.lineno}: assigns "
                               f"{leaf.value.id}.{leaf.attr}")
    assert not bad, "\n".join(bad)
