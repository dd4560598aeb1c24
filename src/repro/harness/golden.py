"""Committed golden fingerprints: load, exact compare, merge-update.

A golden file is a JSON tree whose leaves-of-interest are *fingerprints*
— the deterministic, drift-sensitive summary of one run.  Experiments
address their fingerprints by path (``("fp", "crdb/0")``), so
one helper serves every file layout:

* :func:`check` compares fresh fingerprints against the committed ones
  **exactly** and reports each differing field by its full path;
* :func:`update` merges fresh fingerprints over the file, leaving every
  entry the run did not produce untouched.

Nothing here tolerates drift: every pinned number is bit-identical per
seed, so any difference is a behaviour change to explain, not noise.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

__all__ = ["repo_path", "load", "diff", "check", "update"]

Path = Tuple[str, ...]

_MISSING = object()


def repo_path(name: str) -> str:
    """Absolute path of a golden file committed at the repo root."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(here, "..", "..", "..", name))


def load(path: str) -> Dict[str, Any]:
    """The golden tree at ``path`` (empty when the file does not exist)."""
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def diff(fresh: Any, golden: Any, where: str) -> List[str]:
    """Field-level differences between two fingerprints, one message
    per differing leaf (a field present on only one side counts)."""
    if isinstance(fresh, list) and isinstance(golden, list):
        fresh, golden = dict(enumerate(fresh)), dict(enumerate(golden))
    if isinstance(fresh, dict) and isinstance(golden, dict):
        out: List[str] = []
        for key in sorted(set(fresh) | set(golden), key=str):
            out.extend(diff(fresh.get(key, _MISSING),
                            golden.get(key, _MISSING), f"{where}/{key}"))
        return out
    if fresh == golden:
        return []
    return [f"{where}: {_show(fresh)}, golden {_show(golden)}"]


def _show(value: Any) -> str:
    return "<absent>" if value is _MISSING else repr(value)


def _dig(tree: Any, path: Path) -> Any:
    for key in path:
        if not isinstance(tree, dict) or key not in tree:
            return _MISSING
        tree = tree[key]
    return tree


def check(path: str, entries: Dict[Path, Any]) -> List[str]:
    """Compare ``entries`` (path -> fresh fingerprint) with the file."""
    if not os.path.exists(path):
        return [f"no golden file at {path} "
                f"(run with --update-golden to create it)"]
    golden = load(path)
    failures: List[str] = []
    for where, fresh in sorted(entries.items()):
        pinned = _dig(golden, where)
        if pinned is _MISSING:
            failures.append(f"{'/'.join(where)}: no golden entry")
        else:
            failures.extend(diff(fresh, pinned, "/".join(where)))
    return failures


def update(path: str, entries: Dict[Path, Any]) -> None:
    """Promote ``entries`` into the file, merging over what is there."""
    golden = load(path)
    for where, fresh in entries.items():
        node = golden
        for key in where[:-1]:
            node = node.setdefault(key, {})
        node[where[-1]] = fresh
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
