"""The summariser of tools/interleave.py, on canned timings; no item
runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))  # interleave imports benchpairs
spec = importlib.util.spec_from_file_location(
    "interleave", ROOT / "tools" / "interleave.py")
interleave = importlib.util.module_from_spec(spec)
spec.loader.exec_module(interleave)


def test_ratios_are_taken_per_round_before_the_median():
    # The host runs at half speed in the last two rounds; every round's
    # ratio still reads the change's 20% gain.
    parent = [1.0, 1.0, 1.0, 2.0, 2.0]
    change = [0.8, 0.8, 0.8, 1.6, 1.6]
    got = interleave.summarise({"sweep:SIS:527": {"parent": parent,
                                                  "change": change}})
    s = got["sweep:SIS:527"]
    assert s["ratio"] == pytest.approx(0.8)
    assert s["ratio_q1"] == pytest.approx(0.8)
    assert s["ratio_q3"] == pytest.approx(0.8)
    assert s["parent_s"] == 1.0 and s["change_s"] == 0.8
    assert s["wins"] == 5 and s["rounds"] == 5


def test_wins_quartiles_and_one_round():
    timings = {
        "factorial:hn:6": {"parent": [1.0, 1.0, 1.0, 1.0],
                           "change": [0.5, 1.0, 1.5, 2.0]},
        "factorial:no:6": {"parent": [2.0], "change": [3.0]},
    }
    got = interleave.summarise(timings)
    assert list(got) == ["factorial:hn:6", "factorial:no:6"]
    hn = got["factorial:hn:6"]
    assert hn["wins"] == 1  # a tie counts for neither side
    assert (hn["ratio_q1"], hn["ratio"], hn["ratio_q3"]) == \
        pytest.approx((0.875, 1.25, 1.625))
    no = got["factorial:no:6"]
    assert (no["ratio_q1"], no["ratio"], no["ratio_q3"]) == \
        pytest.approx((1.5, 1.5, 1.5))
    assert no["wins"] == 0 and no["rounds"] == 1
