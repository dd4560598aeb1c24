"""The experiment registry: every runnable thing, declared once.

One :class:`Experiment` per CLI verb says what it is (``doc``), which
scenarios it has, how to run one ``(scenario, seed, protocol)`` cell,
what a sweep of it covers, and — for the golden-checked ones — which
committed file pins its fingerprints.  Three consumers are derived from
this table and hold no experiment list of their own:

* the sweep farm (:mod:`repro.harness.farm`) — a job ``kind`` is a
  registry name with a ``run``;
* the CLI (:mod:`repro.__main__`) — one argparse sub-parser per entry,
  built from ``flags`` (the shared ones, each defined once in
  :data:`FLAGS`) and ``arguments`` (the verb's own);
* ``python -m repro list`` and the tier-1 golden / CLI tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Mapping, Optional,
                    Sequence, Tuple)

from .. import verify
from . import experiments as paper
from . import costs, protocols, rebalance, scale

__all__ = ["Experiment", "Golden", "DocResult", "REGISTRY", "FARMABLE",
           "FLAGS", "summary"]

Argument = Tuple[Tuple[str, ...], Dict[str, Any]]

#: The flags verbs share; a verb opts in by name (``Experiment.flags``).
FLAGS: Dict[str, Dict[str, Any]] = {
    "seed": dict(type=int, default=None, metavar="N",
                 help="single seed to run"),
    "seeds": dict(type=int, default=None, metavar="K",
                  help="run seeds 0..K-1 instead of --seed"),
    "json": dict(action="store_true",
                 help="emit one machine-readable JSON document instead "
                      "of the text rendering"),
    "parallel": dict(type=int, default=None, metavar="N",
                     help="farm runs across N worker processes "
                          "(deterministic merge; per-run text output is "
                          "summarized)"),
    "protocol": dict(default="crdb", choices=["crdb", "epoch-occ"],
                     help="transaction backend the clients run on "
                          "(default crdb)"),
    "update-golden": dict(action="store_true",
                          help="promote this run's fingerprints to the "
                               "committed golden file (the only mode "
                               "that writes it)"),
    "no-golden": dict(action="store_true",
                      help="skip the golden-fingerprint comparison (the "
                           "experiment's own gates still apply)"),
    "quick": dict(action="store_true",
                  help="smaller runs (~5x faster, coarser tails)"),
}


@dataclass(frozen=True)
class Golden:
    """A committed fingerprint file and how a suite maps onto it."""

    path: str
    seeds: Tuple[int, ...]
    #: seeds -> suite document (a dict with a top-level ``"ok"``).
    suite: Callable[[Sequence[int]], Dict]
    #: suite document -> {path in the golden tree: fingerprint}.
    entries: Callable[[Dict], Dict[Tuple[str, ...], Any]]
    render: Callable[[Dict], str]


@dataclass(frozen=True)
class Experiment:
    name: str
    #: First paragraph: the one-line summary ``list`` prints; all of
    #: it: the verb's ``--help`` description (usually the docstring of
    #: the module that implements the experiment).
    doc: str
    #: Which CLI shape drives it (a handler in ``repro.__main__``).
    style: str
    flags: Tuple[str, ...] = ()
    arguments: Tuple[Argument, ...] = ()
    #: scenario -> doc, in listing order (empty: no scenario axis).
    scenarios: Mapping[str, str] = field(default_factory=dict)
    #: protocol -> the scenarios ``all`` / a farm sweep covers.
    sweep: Optional[Callable[[Optional[str]], Sequence[str]]] = None
    #: Other named scenario groups the CLI accepts (``verify --scenario
    #: clock``).
    groups: Mapping[str, Sequence[str]] = field(default_factory=dict)
    #: Scenarios that take no ``--protocol`` override.
    fixed_protocol: FrozenSet[str] = frozenset()
    #: (scenario, seed, protocol) -> result with ``ok`` / ``to_json()``
    #: / ``render()``; makes the entry a farm job kind.
    run: Optional[Callable[[str, int, Optional[str]], Any]] = None
    golden: Optional[Golden] = None
    #: Paper experiments: quick -> prints the paper-style table(s).
    tables: Optional[Callable[[bool], None]] = None


@dataclass
class DocResult:
    """Adapts a JSON-document experiment to the result interface."""

    doc: Dict
    ok: bool
    text: Callable[[Dict], str]

    def to_json(self) -> Dict:
        return self.doc

    def render(self) -> str:
        return self.text(self.doc)


def summary(doc: str) -> str:
    """The first sentence-ish line of a doc, whitespace-normalized."""
    return " ".join(doc.strip().split("\n\n")[0].split())


# -- paper experiments -------------------------------------------------------


def _tables(*runners, quick: Optional[Dict] = None,
            full: Optional[Dict] = None) -> Callable[[bool], None]:
    def run(is_quick: bool) -> None:
        kwargs = (quick if is_quick else full) or {}
        for runner in runners:
            result = runner(**kwargs)
            # Figures return a result object; tables and ablations
            # return the ResultTable itself.
            getattr(result, "table", lambda: result)().print()
    return run


_PAPER = (
    ("table1", "Table 1 — inter-region round-trip times",
     _tables(paper.run_table1)),
    ("fig3", "Fig 3 — transaction latency, REGIONAL vs GLOBAL tables",
     _tables(paper.run_fig3,
             quick=dict(clients_per_region=1, ops_per_client=15))),
    ("fig4a", "Fig 4a — Locality Optimized Search and auto-rehoming",
     _tables(paper.run_fig4a,
             quick=dict(clients_per_region=1, ops_per_client=25))),
    ("fig4b", "Fig 4b — uniqueness-check cost on INSERT",
     _tables(paper.run_fig4b,
             quick=dict(clients_per_region=1, ops_per_client=30))),
    ("fig4c", "Fig 4c — auto-rehoming under contention",
     _tables(paper.run_fig4c, quick=dict(ops_per_client=25))),
    ("fig5", "Fig 5 — latency CDFs: GLOBAL vs duplicate indexes",
     _tables(paper.run_fig5,
             quick=dict(clients_per_region=2, ops_per_client=20,
                        keys_per_region=40),
             full=dict(clients_per_region=4, ops_per_client=40,
                       keys_per_region=40))),
    ("fig6", "Fig 6 — TPC-C scalability, 4 -> 26 regions",
     _tables(paper.run_fig6,
             quick=dict(region_counts=(4, 10), txns_per_client=8))),
    ("table2", "Table 2 — DDL statements for multi-region operations",
     _tables(paper.run_table2)),
    ("ablations", "§7.5.2-style ablations: closed-timestamp lead time, "
                  "commit wait, side-transport interval",
     _tables(paper.run_lead_time_ablation, paper.run_commit_wait_ablation,
             paper.run_side_transport_ablation)),
    ("clockskew", "Commit wait vs leading clock skew (the fence zone "
                  "past max_clock_offset)",
     _tables(paper.run_clock_skew_sweep, quick=dict(n_ops=8))),
)


# -- scenario experiments ----------------------------------------------------

_VERIFY = verify.SCENARIOS

_SCENARIO_FLAGS = ("seed", "seeds", "json", "parallel", "protocol")
_GOLDEN_FLAGS = ("seed", "seeds", "json", "update-golden", "no-golden")
_OBSERVE_ARGS: Tuple[Argument, ...] = (
    (("--workload",), dict(default="movr", choices=["movr", "kv"],
                           help="traced workload to run (default movr)")),
    (("--scenario",), dict(default=None, metavar="NAME",
                           help="observe a verify scenario instead of a "
                                "workload")),
)


def _scale_run(_scenario, seed, protocol) -> DocResult:
    if protocol is not None:
        raise ValueError(
            "the scale curve drives the open-loop harness and does not "
            "support a protocol override")
    doc = scale.run_scale(seed=seed, quick=True)
    return DocResult(doc, bool(doc["gates"]["ok"]), scale.render_scale)


_EXPERIMENTS = tuple(
    Experiment(name, doc, "paper", flags=("quick",), tables=tables)
    for name, doc, tables in _PAPER) + (
    Experiment(
        "verify", verify.__doc__, "verify", flags=_SCENARIO_FLAGS,
        arguments=(
            (("--scenario",),
             dict(default="none",
                  help="scenario name, 'none' (fault-free), 'all' (the "
                       "verify sweep set; with --protocol epoch-occ the "
                       "differential OCC sweep set), 'clock' (the "
                       "clock-fault scenarios), 'repair' (the permanent "
                       "losses the replicate queue repairs), or 'list'")),
            (("--dump",),
             dict(metavar="FILE", default=None,
                  help="write the recorded history of the first "
                       "anomalous run (or, if clean, the last run) to "
                       "FILE for offline re-checking; incompatible "
                       "with --parallel")),
            (("--check",),
             dict(metavar="FILE", default=None,
                  help="re-check a dumped history file instead of "
                       "running a workload (byte-identical report)")),
        ),
        scenarios={name: row.doc for name, row in _VERIFY.items()},
        sweep=lambda protocol: [n for n, row in _VERIFY.items()
                                if (protocol or "crdb") in row.sweeps],
        groups={group: [n for n, row in _VERIFY.items()
                        if group in row.sweeps]
                for group in ("clock", "repair")},
        fixed_protocol=frozenset(n for n, row in _VERIFY.items()
                                 if row.protocol is not None),
        run=lambda name, seed, protocol: verify.run_verify(
            name, seed, protocol=protocol)),
    Experiment(
        "rebalance", rebalance.__doc__, "suite", flags=_GOLDEN_FLAGS,
        golden=Golden(rebalance.GOLDEN_PATH, rebalance.GOLDEN_SEEDS,
                      rebalance.run_rebalance_suite,
                      rebalance.golden_entries,
                      rebalance.render_rebalance_suite)),
    Experiment(
        "protocols", protocols.__doc__, "suite", flags=_GOLDEN_FLAGS,
        golden=Golden(protocols.GOLDEN_PATH, protocols.GOLDEN_SEEDS,
                      protocols.run_protocols_suite,
                      protocols.golden_entries,
                      protocols.render_protocols)),
    Experiment(
        "scale", scale.__doc__, "scale",
        flags=("seed", "seeds", "parallel", "quick", "json",
               "update-golden", "no-golden"),
        arguments=((("--smoke",),
                    dict(action="store_true",
                         help="quick sweep + exact comparison with the "
                              "committed SCALE_results.json (exit 1 on "
                              "any mismatch or a failed "
                              "graceful-degradation gate)")),),
        scenarios={"scale-curve": "One quick users-vs-goodput curve."},
        sweep=lambda protocol: [] if protocol else ["scale-curve"],
        run=_scale_run,
        golden=Golden(scale.GOLDEN_PATH, scale.GOLDEN_SEEDS,
                      scale.run_scale_suite, scale.golden_entries,
                      scale.render_scale_suite)),
    Experiment(
        "costs", costs.__doc__, "suite", flags=_GOLDEN_FLAGS,
        golden=Golden(costs.GOLDEN_PATH, costs.GOLDEN_SEEDS,
                      costs.run_costs_suite, costs.golden_entries,
                      costs.render_costs)),
    Experiment(
        "trace",
        "Run a deterministic workload (or verify scenario) and render "
        "its span tree, critical path, and commit-wait breakdown.",
        "trace", flags=("seed", "json"), arguments=_OBSERVE_ARGS),
    Experiment(
        "metrics",
        "Run a deterministic workload (or verify scenario) and print "
        "the unified metrics registry snapshot.",
        "metrics", flags=("seed", "json"),
        arguments=_OBSERVE_ARGS + (
            (("--prefix",),
             dict(default=None, metavar="NAME",
                  help="only instruments whose name starts here (e.g. "
                       "'raft.' or 'txn.')")),)),
    Experiment(
        "sweep",
        "Fan seeds x scenarios across worker processes and merge the "
        "reports into one deterministic document (byte-identical "
        "regardless of worker count; see repro.harness.farm).",
        "sweep", flags=("seeds", "parallel", "json"),
        arguments=(
            (("--kinds",),
             dict(default="verify,scale",
                  help="comma-separated farmable experiments (default "
                       "verify,scale)")),
            (("--scenarios",),
             dict(default=None, metavar="NAMES",
                  help="comma-separated scenario names (default: every "
                       "scenario each kind's sweep covers)")),
            (("--out",),
             dict(metavar="FILE", default=None,
                  help="also write the merged document to FILE")),
        )),
)

REGISTRY: Dict[str, Experiment] = {exp.name: exp for exp in _EXPERIMENTS}


#: The entries that are valid sweep-farm job kinds.
FARMABLE: Dict[str, Experiment] = {
    name: exp for name, exp in REGISTRY.items()
    if exp.run is not None and exp.sweep is not None}
