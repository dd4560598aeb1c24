"""Which ``src/repro`` functions a test run never calls.

Runs pytest in this process with a ``sys.setprofile`` hook that records
the code object of every Python call, then parses every module under
``src/repro`` and prints each function or method whose code object
never ran, with its line count:

    python3 benchmarks/census.py                 # the tier-1 suite
    python3 benchmarks/census.py -m overload     # any pytest arguments
    python3 benchmarks/census.py --out dead.txt  # also write the list

A function nested in another counts only when its enclosing function
ran, so a dead function's body is not counted twice.  Calls made in
worker processes (the sweep farm's ``--parallel`` runs) are not seen,
so functions only those reach are listed; the profiler slows the suite
down about threefold.  Each line is ``lines  path:line  qualname``; the
last line is the total.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


class CallRecorder:
    """Every code object entered between :meth:`start` and :meth:`stop`.
    Started before pytest imports anything, so what ``repro`` runs at
    import time (the suite's conftest imports it before the session
    starts) counts as called."""

    def __init__(self):
        self.codes = set()

    def _profile(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def start(self):
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)

    def stop(self):
        sys.setprofile(None)
        threading.setprofile(None)

    def called(self):
        """(resolved file, first line) of every ``src/repro`` call."""
        out = set()
        for code in self.codes:
            path = Path(code.co_filename).resolve()
            if PACKAGE in path.parents:
                out.add((path, code.co_firstlineno))
        return out


def functions(path: Path):
    """(first line, qualname, lines, enclosing function's first line or
    None) of every function in one module.  A decorated function's code
    starts at its first decorator, as ``co_firstlineno`` does."""
    out = []

    def visit(node, prefix, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", enclosing)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                lines = child.end_lineno - first + 1
                out.append((first, prefix + child.name, lines, enclosing))
                visit(child, f"{prefix}{child.name}.<locals>.", first)
            else:
                visit(child, prefix, enclosing)

    visit(ast.parse(path.read_text(), str(path)), "", None)
    return out


def never_called(called):
    """Sorted (path, first line, qualname, lines) of every function that
    did not run although whatever encloses it did."""
    dead = []
    for path in sorted(PACKAGE.rglob("*.py")):
        resolved = path.resolve()
        for first, name, lines, enclosing in functions(path):
            if (resolved, first) in called:
                continue
            if enclosing is not None and (resolved, enclosing) not in called:
                continue
            dead.append((path.relative_to(ROOT), first, name, lines))
    return dead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="also write the list to this file")
    args, pytest_args = parser.parse_known_args(argv)
    # The package is not installed: this process and the interpreters
    # the suite starts both find it on the path.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import pytest

    recorder = CallRecorder()
    recorder.start()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        recorder.stop()
    dead = never_called(recorder.called())
    rows = [f"{lines:5d}  {path}:{first}  {name}"
            for path, first, name, lines in dead]
    rows.append(f"{len(dead)} functions, {sum(d[3] for d in dead)} lines "
                f"never called (pytest exit status {int(status)})")
    text = "\n".join(rows) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
