"""Command-line entry point: one verb per registry experiment.

Usage::

    python -m repro list                      # every verb and scenario
    python -m repro table1 | fig3 | fig4a | fig4b | fig4c | fig5 | fig6
                    | table2 | ablations | clockskew   [--quick]
    python -m repro all [--quick]
    python -m repro verify [--scenario NAME|none|all|clock|repair|list]
                    [--seed N | --seeds K] [--protocol epoch-occ]
                    [--parallel N] [--json] [--dump FILE]
    python -m repro verify --check history.json
    python -m repro rebalance [--seed N | --seeds K] [--json]
                    [--update-golden | --no-golden]
    python -m repro protocols [--seed N | --seeds K] [--json]
                    [--update-golden | --no-golden]
    python -m repro scale [--seed N] [--quick] [--json]
    python -m repro scale --seeds K [--parallel N] [--json]
    python -m repro scale --smoke [--update-golden | --no-golden]
    python -m repro costs [--seed N | --seeds K] [--json]
                    [--update-golden | --no-golden]
    python -m repro trace [--workload movr|kv | --scenario NAME]
                    [--seed N] [--json]
    python -m repro metrics [--workload movr|kv | --scenario NAME]
                    [--seed N] [--prefix NAME] [--json]
    python -m repro sweep [--kinds verify,scale] [--scenarios a,b]
                    [--seeds K] [--parallel N] [--json] [--out FILE]

The verbs, their scenarios and their flags all come from
:mod:`repro.harness.registry`; ``python -m repro <verb> --help`` prints
each verb's description.  Exit status: 0 ok, 1 a violated invariant /
failed gate / golden mismatch, 2 a usage error (unknown verb or
scenario).  The four golden-checked verbs (``rebalance``,
``protocols``, ``scale --smoke``, ``costs``) only read their committed
file unless ``--update-golden`` is given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .harness import golden
from .harness.farm import (default_workers, dumps_sweep, merge_results,
                           render_sweep, run_farm, sweep_jobs)
from .harness.registry import FLAGS, REGISTRY, Experiment, summary
from .harness.scale import render_scale, run_scale
from .harness.tracing import run_traced_workload
from .obs import (containment_violations, critical_path, render_tree,
                  spans_named)
from .verify import SCENARIOS, VerifyHarness, VerifyHistory, check

__all__ = ["main", "build_parser"]


def _seeds(args, default=(0,)) -> List[int]:
    """--seeds K (K > 1) -> 0..K-1; else --seed N; else ``default``."""
    if args.seeds is not None and args.seeds > 1:
        return list(range(args.seeds))
    if args.seed is not None:
        return [args.seed]
    return [0] if args.seeds is not None else list(default)


# -- paper experiments, list -------------------------------------------------


def _paper_main(exp: Optional[Experiment], args) -> int:
    names = ([exp.name] if exp is not None else
             sorted(n for n, e in REGISTRY.items() if e.style == "paper"))
    for name in names:
        start = time.time()
        REGISTRY[name].tables(args.quick)
        print(f"\n[{name} finished in {time.time() - start:.1f}s wall]")
    return 0


def _list_main(_exp, _args) -> int:
    for exp in REGISTRY.values():
        print(f"{exp.name:<10s} {summary(exp.doc)}")
        for name, doc in exp.scenarios.items():
            print(f"    {name:<22s} {summary(doc)}")
    return 0


# -- verify ------------------------------------------------------------------


def _farmed(title: str, jobs, workers: int, as_json: bool,
            out: Optional[str] = None) -> int:
    """Farm ``jobs``, print (and optionally write) the merged document."""
    start = time.time()
    doc = merge_results(run_farm(jobs, workers=workers))
    serialized = dumps_sweep(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(serialized + "\n")
    if as_json:
        print(serialized)
    else:
        print(f"{title}: {len(jobs)} runs on {workers} workers")
        print(render_sweep(doc))
        print(f"[{time.time() - start:.1f}s wall]")
    return 0 if doc["ok"] else 1


def _scenario_main(exp: Experiment, args, dump: Optional[str] = None) -> int:
    """Run scenario x seed cells of a farmable experiment, inline or
    farmed; ``dump`` names a file for the first not-ok run's history."""
    protocol = None if args.protocol == "crdb" else args.protocol
    if args.scenario == "list":
        print("\n".join(exp.scenarios))
        return 0
    if args.scenario == "all":
        names = list(exp.sweep(protocol))
        skipped = [n for n in exp.sweep(None) if n not in names]
        if skipped:
            print(f"[skipping {', '.join(skipped)}: not part of the "
                  f"{args.protocol} sweep]", file=sys.stderr)
    else:
        names = list(exp.groups.get(args.scenario, [args.scenario]))
    for name in names:
        if name not in exp.scenarios:
            print(f"unknown scenario {name!r} (try 'list')", file=sys.stderr)
            return 2
        if protocol is not None and name in exp.fixed_protocol:
            print(f"{name!r} does not support --protocol", file=sys.stderr)
            return 2
    seeds = _seeds(args)
    if (args.parallel or 1) > 1:
        if dump:
            print("--parallel cannot dump histories (workers are "
                  "shared-nothing); rerun the offending seed alone",
                  file=sys.stderr)
            return 2
        jobs = sweep_jobs([exp.name], names, seeds, protocol=protocol)
        return _farmed(f"{exp.name} sweep", jobs, args.parallel, args.json)
    ok = True
    runs = []
    for name in names:
        for seed in seeds:
            start = time.time()
            result = exp.run(name, seed, protocol)
            if args.json:
                record = result.to_json()
                record["wall_s"] = round(time.time() - start, 2)
                runs.append(record)
            else:
                print(result.render())
                print(f"[{name} seed={seed} finished in "
                      f"{time.time() - start:.1f}s wall]\n")
            if dump and ok:
                # The file holds the first anomalous history (or, with
                # everything clean so far, the most recent clean run).
                result.history.dump(dump)
            ok = ok and result.ok
    if args.json:
        print(json.dumps({"ok": ok, "runs": runs}, indent=2))
    return 0 if ok else 1


def _verify_main(exp: Experiment, args) -> int:
    if args.check is None:
        return _scenario_main(exp, args, dump=args.dump)
    report = check(VerifyHistory.load(args.check))
    print(report.dumps() if args.json else report.render())
    return 0 if report.ok else 1


# -- golden-checked suites ---------------------------------------------------


def _suite_main(exp: Experiment, args) -> int:
    """Run a golden-checked suite; compare (default), skip
    (--no-golden) or promote (--update-golden) its fingerprints."""
    pinned = exp.golden
    suite = pinned.suite(_seeds(args, pinned.seeds))
    entries = pinned.entries(suite)
    failures: List[str] = []
    if args.update_golden:
        golden.update(pinned.path, entries)
    elif not args.no_golden:
        failures = golden.check(pinned.path, entries)
    if args.json:
        suite["golden_failures"] = failures
        print(json.dumps(suite, indent=2, sort_keys=True))
    else:
        print(pinned.render(suite))
        if args.update_golden:
            print("golden fingerprints updated")
        elif failures:
            print("GOLDEN FINGERPRINT MISMATCHES:")
            for failure in failures:
                print(f"  {failure}")
        elif not args.no_golden and entries:
            print("fingerprints match committed golden")
    return 0 if suite["ok"] and not failures else 1


def _scale_main(exp: Experiment, args) -> int:
    if args.smoke or args.update_golden:
        return _suite_main(exp, args)
    if args.seeds is not None:
        jobs = sweep_jobs([exp.name], None, range(args.seeds))
        merged = merge_results(run_farm(jobs, workers=args.parallel or 1))
        if args.json:
            print(dumps_sweep(merged))
        else:
            for run in merged["runs"]:
                print(render_scale(run["report"]))
                print()
            print(f"=> {merged['total']} seeds, "
                  + ("all gates ok" if merged["ok"]
                     else "GATE FAILURES: " + ", ".join(merged["failed"])))
        return 0 if merged["ok"] else 1
    doc = run_scale(seed=args.seed or 0, quick=args.quick)
    print(json.dumps(doc, indent=2) if args.json else render_scale(doc))
    return 0 if doc["gates"]["ok"] else 1


# -- trace / metrics ---------------------------------------------------------


def _observed_run(args):
    """Run the workload or scenario named by ``args``; returns
    (title, seed, Observability) with the run's spans and metrics."""
    seed = args.seed or 0
    if args.scenario is not None:
        if args.scenario not in SCENARIOS:
            print(f"unknown scenario {args.scenario!r} "
                  f"(try: {', '.join(SCENARIOS)})", file=sys.stderr)
            raise SystemExit(2)
        harness = VerifyHarness(seed,
                                protocol=SCENARIOS[args.scenario].protocol,
                                obs_enabled=True)
        harness.run(scenario=args.scenario)
        return (f"verify scenario {args.scenario!r}", seed, harness.sim.obs)
    engine = run_traced_workload(args.workload, seed=seed)
    return f"workload {args.workload!r}", seed, engine.cluster.sim.obs


def _trace_main(_exp, args) -> int:
    title, seed, obs = _observed_run(args)
    tracer = obs.tracer
    if args.json:
        print(tracer.to_json())
        return 0
    roots = tracer.roots
    print(f"trace for {title} (seed={seed}) — "
          f"{len(roots)} root spans")
    for root in roots:
        print(render_tree(root))

    if roots:
        slowest = max(roots, key=lambda r: (r.duration_ms, -r.span_id))
        print(f"critical path (slowest root, "
              f"{slowest.duration_ms:.3f}ms total):")
        for span in critical_path(slowest):
            print(f"  {span.name} #{span.span_id} {span.duration_ms:.3f}ms")

    waits = [s for r in roots for s in spans_named(r, "txn.commit_wait")]
    txns = [s for r in roots for s in spans_named(r, "txn")]
    print("commit-wait breakdown:")
    if waits:
        total_wait = sum(s.duration_ms for s in waits)
        total_txn = sum(s.duration_ms for s in txns)
        for span in waits:
            txn_root = span.root()
            share = (100.0 * span.duration_ms / txn_root.duration_ms
                     if txn_root.duration_ms else 0.0)
            print(f"  txn {span.tags.get('txn_id')}: waited "
                  f"{span.duration_ms:.3f}ms "
                  f"({share:.0f}% of its root span)")
        print(f"  total: {total_wait:.3f}ms commit wait across "
              f"{total_txn:.3f}ms of transaction time")
    else:
        print("  (no commit waits)")

    violations = [v for r in roots for v in containment_violations(r)]
    if violations:
        print(f"containment warnings ({len(violations)}):")
        for violation in violations:
            print(f"  {violation}")
    return 0


def _metrics_main(_exp, args) -> int:
    title, seed, obs = _observed_run(args)
    registry = obs.registry
    if args.json:
        snapshot = registry.snapshot()
        if args.prefix:
            snapshot = {
                kind: {key: value for key, value in table.items()
                       if key.startswith(args.prefix)}
                for kind, table in snapshot.items()}
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(f"metrics for {title} (seed={seed})")
    print(registry.render(prefix=args.prefix))
    return 0


# -- sweep -------------------------------------------------------------------


def _sweep_main(_exp, args) -> int:
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    scenarios = (None if args.scenarios is None else
                 [s.strip() for s in args.scenarios.split(",") if s.strip()])
    try:
        jobs = sweep_jobs(kinds, scenarios, range(max(1, args.seeds or 1)))
    except ValueError as err:  # a kind the registry cannot farm
        print(err, file=sys.stderr)
        return 2
    if not jobs:
        print("no jobs matched the requested kinds/scenarios",
              file=sys.stderr)
        return 2
    return _farmed("sweep", jobs, default_workers(args.parallel), args.json,
                   out=args.out)


# -- the parser --------------------------------------------------------------

#: ``Experiment.style`` -> the handler that drives that CLI shape.
_STYLES = {
    "paper": _paper_main,
    "verify": _verify_main,
    "suite": _suite_main,
    "scale": _scale_main,
    "trace": _trace_main,
    "metrics": _metrics_main,
    "sweep": _sweep_main,
}


def build_parser() -> argparse.ArgumentParser:
    """The sub-parser tree, one verb per registry entry.  Each shared
    flag lives in one parent parser that every verb taking it reuses."""
    parents = {}
    for flag, spec in FLAGS.items():
        parents[flag] = argparse.ArgumentParser(add_help=False)
        parents[flag].add_argument(f"--{flag}", **spec)
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's evaluation tables and figures, "
                    "and run the verify and golden-checked "
                    "experiments built around them.")
    verbs = parser.add_subparsers(dest="verb", metavar="VERB", required=True)
    verbs.add_parser(
        "list", help="every experiment and scenario, with its one-line doc"
    ).set_defaults(handler=_list_main, experiment=None)
    verbs.add_parser(
        "all", parents=[parents["quick"]],
        help="run every paper table and figure"
    ).set_defaults(handler=_paper_main, experiment=None)
    for exp in REGISTRY.values():
        verb = verbs.add_parser(
            exp.name, parents=[parents[flag] for flag in exp.flags],
            help=summary(exp.doc), description=exp.doc,
            formatter_class=argparse.RawDescriptionHelpFormatter)
        for names, spec in exp.arguments:
            verb.add_argument(*names, **spec)
        verb.set_defaults(handler=_STYLES[exp.style], experiment=exp)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args.experiment, args)


if __name__ == "__main__":
    sys.exit(main())
