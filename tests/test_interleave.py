"""The summariser of tools/interleave.py, on canned timings, and its
item resolver, on perfbench Contexts of the working tree; no item runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

import lambdalab

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


@pytest.fixture(scope="module")
def ctxs():
    # both sides resolve alike, so the working tree stands for both
    return interleave.contexts(lambdalab, None)


def _row(ctx, spec):
    texts = [lambdalab.print_spec(s) for s in ctx.specs]
    return texts.index(lambdalab.print_spec(lambdalab.parse_spec(spec)))


def test_items_resolve_to_perfbench_universe_indices(ctxs):
    sweep, fusion, factorial = (ctxs[w] for w in ("sweep", "fusion",
                                                  "factorial"))
    paper = [name for name, _ in lambdalab.paper_corpus()]
    assert interleave.resolve(ctxs, "factorial:bn:2") == (
        factorial, factorial.universe.index(["bn", 2]))
    assert interleave.resolve(ctxs, "sweep:bv:3") == (
        sweep, sweep.universe.index([_row(sweep, "ISS"), 3]))
    term = interleave.workloads.FUSION_K + paper.index("neutral-operand")
    assert fusion.corpus[term] == dict(lambdalab.paper_corpus())[
        "neutral-operand"]
    assert interleave.resolve(ctxs, "fusion:byValue:neutral-operand") == (
        fusion, fusion.universe.index([_row(fusion, "byValue"), term]))
    # an encoding names the same row as its alias
    assert interleave.resolve(ctxs, "factorial:HIH<>SII:6") == \
        interleave.resolve(ctxs, "factorial:hn:6")


@pytest.mark.parametrize("item, workload", [
    ("sweep:byValue:3", "sweep"),  # readback rows are fusion's
    ("sweep:bv:eta-fixpoint", "sweep"),  # no paper terms in sweep
    ("fusion:byValue:600", "fusion"),  # fusion stops at FUSION_K terms
    ("factorial:ao:2", "factorial"),  # not a table row
    ("factorial:bn:7", "factorial"),
    ("cli:eval:0", "sweep, fusion, factorial"),
])
def test_items_outside_the_universe_are_refused(ctxs, item, workload):
    with pytest.raises(SystemExit) as exc:
        interleave.resolve(ctxs, item)
    assert isinstance(exc.value.code, str)  # a message, so exit status 1
    assert exc.value.code.startswith(item + ":")
    assert workload in exc.value.code


@pytest.mark.parametrize("seconds, shown", [
    (0.0000734, "0.07340"), (0.000101, "0.1010"), (0.0125, "12.50"),
    (0.3456, "345.6"), (1.5, "1500"), (12.3456, "12346"), (0.0, "0.000"),
])
def test_medians_print_in_milliseconds_to_four_digits(seconds, shown):
    assert interleave.milliseconds(seconds) == shown


def test_the_printed_line_shows_a_fusion_item_apart_from_zero():
    # A fusion item takes tens of microseconds; both sides used to read
    # 0.0001 seconds.
    got = interleave.summarise({"fusion:byValue:neutral-operand": {
        "parent": [0.0000734, 0.0000741, 0.0000729],
        "change": [0.0000651, 0.0000660, 0.0000648]}})
    line = interleave.line("fusion:byValue:neutral-operand",
                           got["fusion:byValue:neutral-operand"])
    assert line.split() == ["fusion:byValue:neutral-operand", "0.07340",
                            "0.06510", "0.889", "0.888", "0.890", "3/3"]
