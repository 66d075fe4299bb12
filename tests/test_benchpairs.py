"""The paired-run summariser of tools/benchpairs.py, on canned result
lines; no workload runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "benchpairs", ROOT / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.03},
]


def _line(wall_s, peak_rss_mb, failed=0):
    return json.dumps({"correct": True, "attempted": 10, "failed": failed,
                       "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                                   "peak_rss_mb": {"value": peak_rss_mb,
                                                   "unit": "MB"}}})


def _pairs(parent, change):
    return [(json.loads(_line(*p)), json.loads(_line(*c)))
            for p, c in zip(parent, change)]


def test_last_json_line_is_the_result():
    text = "wall_s 1.0 s\ndetail: {}\n" + _line(1.0, 90.0) + "\n"
    assert benchpairs.last_json_line(text)["metrics"]["wall_s"]["value"] == 1.0


def test_a_clear_gain_and_an_unchanged_metric():
    parent = [(1.30 + 0.01 * (k % 3), 97.0 + 0.1 * (k % 2)) for k in range(10)]
    change = [(0.24 + 0.01 * (k % 2), 97.05) for k in range(10)]
    got = benchpairs.summarise(METRICS, _pairs(parent, change))
    wall = got["metrics"]["wall_s"]
    assert wall["verdict"] == "gain" and wall["wins"] == 10
    assert wall["parent"]["median"] == 1.31
    assert abs(wall["ratio"] - 0.245 / 1.31) < 1e-12
    assert got["metrics"]["peak_rss_mb"]["verdict"] == "within bound"
    assert got["failed"] == {"parent": [0] * 10, "change": [0] * 10}


def test_a_gain_needs_nine_wins_in_ten():
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.0, 1.2]
    verdict = benchpairs.verdict(parent, change, 0.15)
    assert verdict["wins"] == 8 and verdict["verdict"] == "within bound"


def test_worse_beyond_the_bound():
    verdict = benchpairs.verdict([100.0] * 5, [104.0] * 5, 0.03)
    assert verdict["verdict"] == "worse" and verdict["wins"] == 0


def test_a_noisy_parent_is_unresolved_unless_every_change_run_is_better():
    parent = [40.0, 50.0, 60.0, 70.0, 80.0]
    assert benchpairs.verdict(parent, [62.0, 55.0, 58.0, 61.0, 60.0],
                              0.24)["verdict"] == "unresolved"
    assert benchpairs.verdict(parent, [30.0, 31.0, 32.0, 33.0, 34.0],
                              0.24)["verdict"] == "gain"
    assert benchpairs.verdict(parent, [39.0, 39.0, 39.0, 90.0, 90.0],
                              0.24)["verdict"] == "unresolved"


def test_higher_is_better_metrics_flip_the_sign():
    verdict = benchpairs.verdict([1.0] * 10, [2.0] * 10, 0.1,
                                 lower_is_better=False)
    assert verdict["verdict"] == "gain" and verdict["wins"] == 10


def test_a_failed_run_prints_where_it_failed_and_its_stderr(monkeypatch,
                                                             capsys):
    stderr = "".join(f"line {k}\n" for k in range(30)) + "ValueError: boom\n"

    def fake_run(argv, **kwargs):
        assert "check" not in kwargs
        return benchpairs.subprocess.CompletedProcess(argv, 1, "", stderr)

    monkeypatch.setattr(benchpairs.subprocess, "run", fake_run)
    with pytest.raises(SystemExit) as exc:
        benchpairs.run("change", "/nowhere", "fusion", 7, 12, pair=3)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "change fusion --seed 7 pair 3" in err
    assert "exited with status 1" in err
    assert "ValueError: boom" in err and "line 29" in err
    assert "line 0\n" not in err  # only the tail


def test_failed_items_are_printed_and_exit_1_after_the_output(
        monkeypatch, tmp_path, capsys):
    # Every change run fails 3 items and is much faster: its wall_s
    # alone would read as a gain.
    names = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run(side, tree, workload, seed, seconds, trace=0, pair=None):
        wall_s, failed = (1.30, 0) if side == "parent" else (0.90, 3)
        return {"failed": failed, "metrics": {
            name: {"value": wall_s if name == "wall_s" else 1.0}
            for name in names}}

    monkeypatch.setattr(benchpairs, "run", fake_run)
    monkeypatch.setattr(benchpairs, "export", lambda rev, into: None)
    monkeypatch.setattr(benchpairs, "host_probe_us", lambda: 50.0)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        benchpairs.main(["--parent", "HEAD", "--out", str(out),
                         "--workload", "sweep", "--pairs", "4"])
    assert exc.value.code == 1
    report = json.loads(out.read_text())
    summary = report["workloads"]["sweep --seed 1337"]
    assert summary["failed"] == {"parent": [0] * 4, "change": [3] * 4}
    assert summary["metrics"]["wall_s"]["verdict"] == "gain"
    printed = capsys.readouterr().out
    assert ("sweep --seed 1337    failed items: parent [0, 0, 0, 0], "
            "change [3, 3, 3, 3]") in printed
