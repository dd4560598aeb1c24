"""Committed goldens stay honest in tier-1.

Every registry experiment that declares a golden file is re-run on its
golden seeds and compared exactly through ``repro.harness.golden`` — the
same code path ``python -m repro <verb>`` takes — so a stale golden
fails here, not only in a CI smoke job nobody's tests look at.  The
helper's own behaviour (missing file / entry, field-level diffs,
merge-update) is pinned on scratch files.
"""

import json
import pathlib

import pytest

from repro.__main__ import main
from repro.harness import golden
from repro.harness.registry import REGISTRY

GOLDEN_CHECKED = [name for name, exp in REGISTRY.items()
                  if exp.golden is not None]


def test_the_golden_checked_experiments():
    assert GOLDEN_CHECKED == ["rebalance", "protocols", "scale"]


@pytest.mark.parametrize("name", GOLDEN_CHECKED)
def test_committed_golden_matches_and_is_only_read(name, capsys):
    """The verb's default mode: run the golden seeds, compare exactly,
    write nothing (``scale --smoke`` used to rewrite its file on every
    check; only ``--update-golden`` may)."""
    path = pathlib.Path(REGISTRY[name].golden.path)
    before = (path.read_bytes(), path.stat().st_mtime_ns)
    status = main([name, "--smoke"] if name == "scale" else [name])
    out = capsys.readouterr().out
    assert status == 0 and "fingerprints match committed golden" in out, (
        f"{name} drifted from {path.name} (or failed its own gates); if "
        f"the behaviour change is intentional, re-run with "
        f"--update-golden and say why in CHANGES.md\n" + out[-3000:])
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before


class TestGoldenHelper:
    FP = {"committed": 12, "counters": {"splits": 3, "merges": 2},
          "curve": [{"p99_ms": 10.5}, {"p99_ms": 99.0}]}

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "absent.json")
        assert golden.load(path) == {}
        (failure,) = golden.check(path, {("seeds", "0"): self.FP})
        assert "no golden file" in failure and "--update-golden" in failure

    def test_missing_entry(self, tmp_path):
        path = str(tmp_path / "g.json")
        golden.update(path, {("seeds", "0", "crdb"): self.FP})
        assert golden.check(path, {("seeds", "0", "crdb"): self.FP}) == []
        assert golden.check(path, {("seeds", "1", "crdb"): self.FP}) == \
            ["seeds/1/crdb: no golden entry"]
        assert golden.check(path, {("seeds", "0", "epoch-occ"): self.FP}) == \
            ["seeds/0/epoch-occ: no golden entry"]

    def test_field_level_diff_text(self, tmp_path):
        path = str(tmp_path / "g.json")
        golden.update(path, {("fp", "crdb/0"): self.FP})
        fresh = {"committed": 13,
                 "counters": {"splits": 3, "load_splits": 1},
                 "curve": [{"p99_ms": 10.5}, {"p99_ms": 120.0}]}
        assert golden.check(path, {("fp", "crdb/0"): fresh}) == [
            "fp/crdb/0/committed: 13, golden 12",
            "fp/crdb/0/counters/load_splits: 1, golden <absent>",
            "fp/crdb/0/counters/merges: <absent>, golden 2",
            "fp/crdb/0/curve/1/p99_ms: 120.0, golden 99.0",
        ]

    def test_merge_update_round_trip(self, tmp_path):
        path = tmp_path / "g.json"
        golden.update(str(path), {("seeds", "0", "crdb"): self.FP,
                                  ("seeds", "0", "epoch-occ"): {"committed": 1}})
        other = dict(self.FP, committed=99)
        golden.update(str(path), {("seeds", "1", "crdb"): other,
                                  ("seeds", "0", "epoch-occ"): {"committed": 2}})
        assert golden.load(str(path)) == {"seeds": {
            "0": {"crdb": self.FP, "epoch-occ": {"committed": 2}},
            "1": {"crdb": other}}}
        # Canonical on disk: sorted keys, trailing newline, stable bytes.
        text = path.read_text()
        assert text.endswith("}\n")
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"
        golden.update(str(path), {})
        assert path.read_text() == text
