"""The claim rule of ``benchmarks/pairs.py``: at least nine in ten pairs
won and a median gap above the parent's interquartile range, never
with fewer than five pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_nine_of_ten_won_and_a_gap_above_the_iqr_is_a_claim():
    change = [p + 5.0 for p in PARENT]
    change[3] = PARENT[3] - 1.0  # one pair lost
    verdict = pairs.judge(PARENT, change, "higher")
    assert verdict["wins"] == 9 and verdict["gap"] > verdict["parent_iqr"]
    assert verdict["verdict"] == "claim met"


def test_eight_of_ten_is_no_claim():
    change = [p + 5.0 for p in PARENT]
    change[3] = change[4] = 0.0
    assert pairs.judge(PARENT, change, "higher")["verdict"] == "no claim"


def test_a_gap_inside_the_parents_iqr_is_no_claim():
    change = [p + 0.01 for p in PARENT]
    verdict = pairs.judge(PARENT, change, "higher")
    assert verdict["wins"] == 10 and verdict["gap"] < verdict["parent_iqr"]
    assert verdict["verdict"] == "no claim"


@pytest.mark.parametrize("n", [1, 4])
def test_fewer_than_five_pairs_is_never_a_claim(n):
    verdict = pairs.judge(PARENT[:n], [p * 2 for p in PARENT[:n]], "higher")
    assert verdict["wins"] == n and verdict["verdict"] == "no claim"


def test_lower_is_better_wins_by_falling():
    change = [p - 5.0 for p in PARENT]
    assert pairs.judge(PARENT, change, "lower")["verdict"] == "claim met"
    assert pairs.judge(PARENT, change, "higher")["verdict"] == "no claim"


def test_the_metric_directions_are_the_benchmarks():
    assert pairs.better_ways()["ops_per_s"] == "higher"
    assert pairs.better_ways()["setup_s"] == "lower"
