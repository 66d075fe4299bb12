"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/benchpairs.py --parent REV --out BENCH_<n>.json \\
        [--workload fusion ...] [--seed 1337 ...] [--pairs 10] \\
        [--seconds 12] [--trace-pair]

The parent tree is exported with `git archive` into a temporary
directory. For each workload and seed, `perfbench/run.py --workload W
--seed S` runs in each tree in turn, one workload per process, the
parent first in even pairs and the change first in odd ones; the last
JSON line of each run is kept. The output holds, per workload, seed and
end-to-end metric, each side's runs, median and quartiles, the
change/parent ratio of the medians, the change's wins (ties count for
neither side), the bound from BENCHMARK.json and a verdict:

- gain: the change wins at least nine tenths of the pairs and its median
  is better by more than the parent's quartile distance;
- worse: the change's median is worse than the parent's by more than the
  bound;
- unresolved: neither, and the parent's own quartile distance exceeds
  the bound relative to its median, so a change within the bound cannot
  be told from noise, unless every run of the change reads better than
  every run of the parent;
- within bound: otherwise.

`failed` is kept per run and printed per workload and side; once the
output is written, the script exits 1 if any run failed an item, so a
gain on runs that fail items does not read as a gain. --trace-pair adds
one `--trace 1` run per side and workload for the per-layer figures. A
host probe (perfbench's own reference computation, median of 200 calls)
is taken before and after.
Standard library only; run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(first quartile, median, third quartile) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, bound, lower_is_better=True):
    """The comparison of one metric over paired runs (parent[i] and
    change[i] ran as one pair)."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    spread = p3 - p1
    every_run_better = all(sign * (c - p) < 0
                           for c in change for p in parent)
    if wins * 10 >= 9 * len(parent) and sign * (pm - cm) > spread:
        kind = "gain"
    elif sign * (cm - pm) > bound * abs(pm):
        kind = "worse"
    elif spread > bound * abs(pm) and not every_run_better:
        kind = "unresolved"
    else:
        kind = "within bound"
    return {
        "parent": {"runs": parent, "q1": p1, "median": pm, "q3": p3},
        "change": {"runs": change, "q1": c1, "median": cm, "q3": c3},
        "ratio": cm / pm if pm else None,
        "wins": wins,
        "pairs": len(parent),
        "bound": bound,
        "verdict": kind,
    }


def summarise(end_to_end, pairs):
    """One workload's summary from its pairs of result lines, each a
    (parent, change) pair of parsed JSON objects as run.py prints them
    last. end_to_end is BENCHMARK.json's list of metric declarations."""
    out = {"failed": {"parent": [p["failed"] for p, _ in pairs],
                      "change": [c["failed"] for _, c in pairs]},
           "metrics": {}}
    for metric in end_to_end:
        name = metric["name"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        out["metrics"][name] = verdict(parent, change, metric["bound"],
                                       metric["better"] == "lower")
    return out


def last_json_line(text):
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no result line in the run's output")


def run(side, tree, workload, seed, seconds, trace=0, pair=None):
    """The result line of one perfbench run of tree; a run that fails
    stops the script with exit status 1 and the end of its stderr."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        what = "traced run" if pair is None else f"pair {pair}"
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        print(f"{side} {workload} --seed {seed} {what}: perfbench/run.py "
              f"exited with status {proc.returncode}\n{tail}",
              file=sys.stderr)
        raise SystemExit(1)
    return last_json_line(proc.stdout)


def export(rev, into):
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def host_probe_us():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import hostclock
    finally:
        sys.path.pop(0)
    times = []
    for _ in range(200):
        start = time.perf_counter()
        hostclock.probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", nargs="+", default=["fusion"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, nargs="+", default=[1337])
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace-pair", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        end_to_end = json.load(f)["end_to_end"]
    report = {"parent": args.parent, "seconds": args.seconds,
              "host_probe_us": [host_probe_us()], "workloads": {}}
    with tempfile.TemporaryDirectory() as parent_tree:
        export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in args.workload:
            for seed in args.seed:
                key = f"{workload} --seed {seed}"
                pairs = []
                for k in range(args.pairs):
                    sides = {}
                    for side in (("parent", "change") if k % 2 == 0
                                 else ("change", "parent")):
                        sides[side] = run(side, trees[side], workload, seed,
                                          args.seconds, pair=k + 1)
                    pairs.append((sides["parent"], sides["change"]))
                    print(f"{key} pair {k + 1}/{args.pairs}: wall_s "
                          f"{pairs[-1][0]['metrics']['wall_s']['value']:.3f}"
                          f" -> {pairs[-1][1]['metrics']['wall_s']['value']:.3f}",
                          file=sys.stderr, flush=True)
                summary = summarise(end_to_end, pairs)
                if args.trace_pair:
                    summary["traced"] = {
                        side: run(side, tree, workload, seed, args.seconds, 1)
                        for side, tree in trees.items()}
                report["workloads"][key] = summary
    report["host_probe_us"].append(host_probe_us())
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    any_failed = False
    for workload, summary in report["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{workload:20} {name:13} {m['parent']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g}  wins {m['wins']}/"
                  f"{m['pairs']}  {m['verdict']}")
        failed = summary["failed"]
        traced = {side: line["failed"]
                  for side, line in summary.get("traced", {}).items()}
        print(f"{workload:20} failed items: parent {failed['parent']}, "
              f"change {failed['change']}"
              + (f", traced {traced}" if traced else ""))
        any_failed = any_failed or any(
            failed["parent"] + failed["change"] + list(traced.values()))
    if any_failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
