"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Kept out of the repository's test suite (the file name does not match
test_*.py) because they start benchmark workers and take about a minute.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402


@pytest.mark.parametrize("workload", ["fusion", "cli"])
def test_one_corrupted_reference_entry_makes_fail_frac_nonzero(tmp_path,
                                                               workload):
    ref = workloads.load_reference(BENCH_DIR, workload)
    ref_dir = str(tmp_path)
    seconds = 0.1
    victim = workloads.plan(workload, 7, seconds, ref)[0][0]
    ref["entries"][victim][1] = "corrupted"  # not a field plan() reads
    workloads.save_reference(ref_dir, workload, ref)
    report = run.run_workload(workload, 7, seconds, False,
                              reference_dir=ref_dir)
    assert report["result"]["failed"] == 1
    assert report["result"]["correct"] is False
    assert report["detail"]["fail_frac"] > 0
    (item, reason), = report["detail"]["failures"]
    assert item == ref["universe"][victim]
    assert "reference mismatch" in reason


def test_untouched_reference_gives_no_failures():
    report = run.run_workload("fusion", 7, 0.1, False)
    assert report["result"]["failed"] == 0
    assert report["detail"]["fail_frac"] == 0
    assert list(report["result"]["metrics"]) == list(run.units("end_to_end"))


def test_plan_is_seeded_and_keeps_the_mix():
    ref = workloads.load_reference(BENCH_DIR, "sweep")
    first = workloads.plan("sweep", 3, 12, ref)
    assert first == workloads.plan("sweep", 3, 12, ref)
    assert first != workloads.plan("sweep", 4, 12, ref)
    per_unit, unit_s = workloads.UNITS["sweep"]
    units = round(12 / unit_s)
    codes = [ref["entries"][i][0] for chunk in first for i in chunk]
    assert {c: codes.count(c) for c in per_unit} \
        == {c: n * units for c, n in per_unit.items()}
    sizes = [len(chunk) for chunk in first]
    assert max(sizes) - min(sizes) <= 1


def test_a_hook_that_never_fires_fails_the_traced_run(tmp_path):
    from tracing import METRICS

    spans = tmp_path / "spans.jsonl"
    spans.write_text("")
    item = [0, 1.0, 1.0, None, False, False, True]
    untraced = {"items": [item]}
    traced = {"items": [item], "python_startup_ms": 40.0,
              "trace": {"speed": 1.0, "contractions": 5,
                        "stats": {m: [1, 0.5, 0.0] for m in METRICS}}}
    traced["trace"]["stats"]["terms.alpha_eq"] = [0, 0.0, 0.0]
    with pytest.raises(run.BenchError, match="terms.alpha_eq"):
        run.per_layer("fusion", untraced, traced, [[0, 0]], str(spans))


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_clock_subtracts_its_own_probe_time():
    clock = HostClock()
    clock.start()
    try:
        a = time.perf_counter()
        while time.perf_counter() - a < 0.3:
            pass
        b = time.perf_counter()
    finally:
        clock.stop()
    assert len(clock.starts) > 10
    probe = clock.probe_time_within(a, b)
    assert 0 < probe < b - a
    assert clock.corrected(a, b) == pytest.approx(
        (b - a - probe) * clock.speed(a, b))
    # waiting on a child, the process loses nothing to the probe
    assert clock.corrected(a, b, waiting=True) == pytest.approx(
        (b - a) * clock.speed(a, b))


def test_host_correction_passes_program_cost_through():
    """Known changes in the measured code's cost must reach the
    corrected time at their raw size: the probe shares the thread, so a
    change that grew the program's working set could otherwise slow the
    probe and divide itself out. Each round runs one factorial item
    once, twice, and once beside a walk over a heap of live objects,
    interleaved so that all three see the same host speed."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import lambdalab
    import oracle

    ctx = workloads.Context("factorial", lambdalab, oracle, ROOT)
    idx = ctx.universe.index(["sn", 4])
    spans = {"once": [], "twice": [], "heap": []}
    clock = HostClock()
    clock.start()
    try:
        for _ in range(12):
            for case, times in spans.items():
                heap = [(i, i) for i in range(300_000)] if case == "heap" \
                    else []
                a = time.perf_counter()
                ctx.run(idx)
                if case == "twice":
                    ctx.run(idx)
                sum(t[0] for t in heap)
                times.append((a, time.perf_counter()))
                del heap
    finally:
        clock.stop()

    def ratio(case, measure):
        return (sum(measure(a, b) for a, b in spans[case])
                / sum(measure(a, b) for a, b in spans["once"]))

    for case in ("twice", "heap"):
        raw = ratio(case, lambda a, b: b - a)
        assert raw > 1.1
        assert ratio(case, clock.corrected) == pytest.approx(raw, rel=0.06)
