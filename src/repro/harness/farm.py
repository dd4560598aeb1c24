"""Process-parallel sweep farm: seeds x scenarios x configs.

Every farmable experiment in :mod:`repro.harness.registry` (verify,
overload, scale) is deterministic from its (kind, scenario, seed,
protocol) coordinates and shares nothing with its siblings, so a sweep
is embarrassingly parallel.  This module fans a job list across
``multiprocessing`` workers and merges the results into one
deterministic document.

Design constraints, in priority order:

* **Determinism.**  The merged document is a pure function of the job
  list — byte-identical whether it ran on 1 worker or 16, regardless
  of completion order.  Jobs carry no wall-clock or pid fields, results
  come back in submission order (``Pool.map``), and the merge sorts on
  the job coordinates and serialises with ``sort_keys``.
* **Spawn safety.**  Workers use the ``spawn`` start method — each is
  a fresh interpreter that re-imports this module, so jobs must be
  picklable plain dicts and :func:`run_job` must be importable at
  module top level.  Nothing is inherited from the parent except the
  job payload (shared-nothing; fork would work too but spawn keeps us
  honest and portable).
* **Graceful sizing.**  ``workers=1`` (or a single job) runs inline in
  the parent with no pool at all — the sequential reference path the
  determinism guard compares against.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from typing import Any, Dict, Iterable, List, Optional

from .registry import FARMABLE, Experiment

__all__ = ["run_job", "run_farm", "merge_results", "sweep_jobs",
           "run_sweep", "render_sweep", "dumps_sweep", "default_workers"]

#: Keys scrubbed from worker results before merging: anything here is
#: nondeterministic (wall clock, process identity) and would break the
#: byte-identical merge contract.
_NONDETERMINISTIC_KEYS = frozenset({"wall_s", "wall_seconds", "pid"})


def default_workers(requested: Optional[int] = None) -> int:
    """Worker count: the explicit request, else one per core (capped)."""
    if requested is not None and requested > 0:
        return requested
    return max(1, min(8, os.cpu_count() or 1))


def _farm_kind(kind: str) -> Experiment:
    if kind not in FARMABLE:
        raise ValueError(f"unknown sweep kind {kind!r} "
                         f"(valid: {', '.join(FARMABLE)})")
    return FARMABLE[kind]


def run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one sweep job; returns a JSON-ready record.

    Top-level (not nested, not a lambda) so spawn workers can unpickle
    a reference to it.  ``protocol`` is the optional transaction-backend
    override; absent, records carry no protocol field.
    """
    experiment = _farm_kind(job["kind"])
    protocol = job.get("protocol")
    result = experiment.run(job["scenario"], job["seed"], protocol)
    record = {"kind": job["kind"], "scenario": job["scenario"],
              "seed": job["seed"], "ok": bool(result.ok),
              "report": result.to_json()}
    if protocol is not None:
        record["protocol"] = protocol
    return _scrub(record)


def _scrub(value):
    """Drop nondeterministic keys, recursively, from a result record."""
    if isinstance(value, dict):
        return {key: _scrub(item) for key, item in value.items()
                if key not in _NONDETERMINISTIC_KEYS}
    if isinstance(value, list):
        return [_scrub(item) for item in value]
    return value


def run_farm(jobs: Iterable[Dict[str, Any]],
             workers: Optional[int] = None) -> List[Dict[str, Any]]:
    """Run every job; results in submission order regardless of workers."""
    jobs = list(jobs)
    workers = min(default_workers(workers), max(1, len(jobs)))
    if workers <= 1 or len(jobs) <= 1:
        return [run_job(job) for job in jobs]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=workers) as pool:
        # chunksize=1: jobs are coarse (whole simulations), so let the
        # pool load-balance instead of pre-binning.
        return pool.map(run_job, jobs, chunksize=1)


def merge_results(results: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-job records into one deterministic sweep document.

    Runs are ordered by (kind, scenario, seed) — a canonical order
    independent of both submission and completion order.
    """
    runs = sorted(results, key=lambda r: (r["kind"], r["scenario"],
                                          r["seed"]))
    return {
        "ok": all(r["ok"] for r in runs),
        "total": len(runs),
        "failed": [f"{r['kind']}/{r['scenario']}/seed={r['seed']}"
                   for r in runs if not r["ok"]],
        "runs": runs,
    }


def sweep_jobs(kinds: Iterable[str], scenarios: Optional[List[str]],
               seeds: Iterable[int], protocol: Optional[str] = None
               ) -> List[Dict[str, Any]]:
    """Expand kinds x scenarios x seeds into a farmable job list.

    ``scenarios=None`` means everything each kind's sweep covers; a
    filter keeps the names valid for the kind (a kind with a single
    scenario has no scenario axis to filter).
    """
    jobs: List[Dict[str, Any]] = []
    seeds = list(seeds)
    for kind in kinds:
        experiment = _farm_kind(kind)
        if scenarios is None or len(experiment.scenarios) == 1:
            names = experiment.sweep(protocol)
        else:
            names = [s for s in scenarios if s in experiment.scenarios]
        for name in names:
            for seed in seeds:
                job = {"kind": kind, "scenario": name, "seed": seed}
                if protocol is not None:
                    job["protocol"] = protocol
                jobs.append(job)
    return jobs


def run_sweep(kinds: Iterable[str] = ("verify", "overload"),
              scenarios: Optional[List[str]] = None,
              seeds: Iterable[int] = (0,),
              workers: Optional[int] = None) -> Dict[str, Any]:
    """Build, farm, and merge a sweep; the one-call API behind the CLI."""
    jobs = sweep_jobs(kinds, scenarios, seeds)
    return merge_results(run_farm(jobs, workers=workers))


def render_sweep(doc: Dict[str, Any]) -> str:
    """Compact per-run table plus the verdict line."""
    lines = [f"  {'kind':8s} {'scenario':28s} {'seed':>4}  verdict"]
    for run in doc["runs"]:
        lines.append(f"  {run['kind']:8s} {run['scenario']:28s} "
                     f"{run['seed']:>4}  "
                     f"{'ok' if run['ok'] else 'VIOLATION'}")
    lines.append(f"  => {doc['total']} runs, "
                 + ("all ok" if doc["ok"]
                    else f"{len(doc['failed'])} failed: "
                         + ", ".join(doc["failed"])))
    return "\n".join(lines)


def dumps_sweep(doc: Dict[str, Any]) -> str:
    """Canonical serialisation — the byte-identical merge artifact."""
    return json.dumps(doc, indent=2, sort_keys=True)
