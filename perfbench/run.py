"""The lambdalab benchmark.

    python3 perfbench/run.py --workload sweep|fusion|factorial|cli|all \\
        [--seed 1337] [--seconds 12] [--trace 0|1]

Runs from the root of a checkout against src/ (the package need not be
installed). A run draws its items from the workload's universe with the
seed (see workloads.py), splits them into chunks and runs each chunk in
a fresh worker process, one at a time, then prints every metric by name
with its unit, a `detail:` line (run metadata, failure share, tail
percentile, property shares, uncorrected timings) and, last, one JSON
result line.

--trace 0 reports the end-to-end metrics, measured with no wrappers
installed. --trace 1 is a separate run: it draws a half-size item set in
one chunk, runs it untraced and then traced (tracing.py), and reports
the per-layer metrics listed in layers.json.

Every time is corrected for the host's speed (hostclock.py) into
seconds on the reference host; the detail line keeps the raw ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402

CLI_COMMANDS = ("eval", "trace", "tree", "compare", "classify", "validate",
                "fuse", "defuse", "catalogue")
IMPORT_MODULES = ("lambdalab", "terms", "notation", "engine", "lab",
                  "corpus", "cli")
# every run ends within 180 s, the limit a benchmark run is given
RUN_DEADLINE_S = 170


class BenchError(RuntimeError):
    """The benchmark could not measure: a worker failed or a check that
    guards the measurement itself did not hold."""


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _child(argv: list[str], timeout: float = 60) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT, env=_env())


def run_worker(spec: dict, deadline: float) -> dict:
    """Start one worker, time its set-up from spawn to READY, and
    return its result with setup_raw_s added. The worker is killed at
    `deadline` (a time.perf_counter value)."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            json.dumps(spec)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=_env())
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        out, _ = proc.communicate(timeout=max(1.0, deadline - ready))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{spec['workload']} worker exited with "
                         f"{proc.returncode} (its stderr is above)")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_raw_s"] = ready - start
    return result


def import_ms(repeats: int = 3) -> dict:
    """Per-module self import time of lambdalab.cli's import, from
    python -X importtime (median of a few children), plus the total."""
    runs = []
    for _ in range(repeats):
        proc = _child(["-X", "importtime", "-c", "import lambdalab.cli"])
        if proc.returncode != 0:
            raise BenchError(f"importing lambdalab.cli failed: {proc.stderr}")
        found = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3 or not parts[2].startswith("lambdalab"):
                continue
            self_us, cumulative_us = int(parts[0].split()[-1]), int(parts[1])
            name = parts[2]
            found[name.rsplit(".", 1)[-1]] = self_us / 1e3
            if name in ("lambdalab", "lambdalab.cli"):
                found["total"] = found.get("total", 0.0) + cumulative_us / 1e3
        runs.append(found)
    out = {}
    for name in (*IMPORT_MODULES, "total"):
        values = [r[name] for r in runs if name in r]
        if not values:
            raise BenchError(f"python -X importtime shows no {name} import")
        out[f"cli.import_ms.{name}"] = statistics.median(values)
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def units(section: str) -> dict:
    """{metric: unit} for the end_to_end or per_layer metrics that
    BENCHMARK.json declares, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as h:
        return {m["name"]: m["unit"] for m in json.load(h)[section]}


def _as_metrics(section: str, values: dict) -> dict:
    declared = units(section)
    differ = sorted(set(declared) ^ set(values))
    if differ:
        raise BenchError(f"{section} metrics and BENCHMARK.json differ: "
                         f"{differ}")
    return {m: {"value": values[m], "unit": u} for m, u in declared.items()}


def _shares(items: list) -> dict:
    """Share of items, and of item time, with each property."""
    total = sum(it[1] for it in items) or 1.0
    out = {}
    props = {"nonconverging": lambda it: it[4], "size_capped": lambda it: it[5],
             "traced": lambda it: it[6]}
    for name, has in props.items():
        chosen = [it for it in items if has(it)]
        out[f"items.{name}_frac"] = len(chosen) / len(items)
        out[f"items.{name}_time_frac"] = sum(it[1] for it in chosen) / total
    either = [it for it in items if it[4] or it[5]]
    out["engine.nonconverged_item_frac"] = len(either) / len(items)
    out["engine.nonconverged_time_frac"] = sum(it[1] for it in either) / total
    return out


def _tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten
    items beyond it, i.e. the eleventh-largest item."""
    ordered = sorted(times)
    rank = max(0, len(ordered) - 11)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(workload: str, results: list[dict]) -> tuple[dict, dict]:
    items = [it for r in results for it in r["items"]]
    times = [it[1] for it in items]
    raw = [it[2] for it in items]
    tail, tail_pct = _tail(times)
    rss_key = "children_maxrss_kb" if workload == "cli" else "maxrss_kb"
    metrics = {
        "wall_s": sum(times),
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_tail_ms": tail * 1e3,
        "setup_s": statistics.median(r["setup_raw_s"] * r["setup_speed"]
                                     for r in results),
        "peak_rss_mb": max(r[rss_key] for r in results) / 1024,
    }
    detail = {
        "item_count": len(items),
        "item_tail_percentile": tail_pct,
        "chunks": len(results),
        "raw": {
            "wall_s": sum(raw),
            "item_p50_ms": statistics.median(raw) * 1e3,
            "item_tail_ms": _tail(raw)[0] * 1e3,
            "setup_s": statistics.median(r["setup_raw_s"] for r in results),
        },
        "property_shares": _shares(items),
    }
    return metrics, detail


def _layer_table() -> dict:
    with open(os.path.join(BENCH_DIR, "layers.json"), encoding="utf-8") as h:
        return json.load(h)["metrics"]


def per_layer(workload: str, untraced: dict, traced: dict,
              universe: list, spans_path: str) -> dict:
    info = traced["trace"]
    speed, stats = info["speed"], info["stats"]

    def secs(metric):
        return stats[metric][1] * speed

    def self_secs(metric):
        return (stats[metric][1] - stats[metric][2]) * speed

    out = {
        "engine.evaluate.calls": stats["engine.evaluate"][0],
        "engine.evaluate.s": secs("engine.evaluate"),
        "engine.evaluate.self_s": self_secs("engine.evaluate"),
        "engine.contractions": info["contractions"],
        "engine.contractions_per_s": (info["contractions"]
                                      / secs("engine.evaluate")
                                      if stats["engine.evaluate"][1] else 0.0),
        "terms.substitute.calls": stats["terms.substitute"][0],
        "terms.substitute.s": secs("terms.substitute"),
        "terms.alpha_eq.calls": stats["terms.alpha_eq"][0],
        "terms.alpha_eq.s": secs("terms.alpha_eq"),
        "terms.parse_term.s": secs("terms.parse_term"),
        "terms.print_term.s": secs("terms.print_term"),
        "terms.classify.s": secs("terms.classify"),
        "notation.validate.calls": stats["notation.validate"][0],
        "notation.validate.s": secs("notation.validate"),
        "notation.parse_spec.s": secs("notation.parse_spec"),
        "notation.fuse.s": secs("notation.fuse"),
        "lab.check_fusion_row.s": secs("lab.check_fusion_row"),
        "lab.check_fusion_row.self_s": self_secs("lab.check_fusion_row"),
        "corpus.generate.s": secs("corpus.generate"),
        "cli.main.s": secs("cli.main"),
    }
    by_command = dict.fromkeys(CLI_COMMANDS, 0.0)
    with open(spans_path, encoding="utf-8") as handle:
        for line in handle:
            span = json.loads(line)
            main = span["calls"].get("cli.main")
            if main:
                by_command[universe[span["item"]][0]] += main[1] * speed
    out.update({f"cli.main.{c}.s": t for c, t in by_command.items()})
    out.update(import_ms())
    out["cli.python_startup_ms"] = traced["python_startup_ms"]
    out.update(_shares(traced["items"]))
    walls = [sum(it[1] for it in r["items"]) for r in (untraced, traced)]
    out["trace_overhead_frac"] = walls[1] / walls[0] - 1
    metrics = _as_metrics("per_layer", out)
    zero = [m for m, spec in _layer_table().items()
            if workload in spec["nonzero_on"] and out[m] == 0]
    if zero:
        raise BenchError(f"{workload}: per-layer metrics read zero where a "
                         f"traced hook must fire: {zero}")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference_dir: str = BENCH_DIR) -> dict:
    """Run one workload. Returns the printed detail and result, and
    each item with its corrected and raw seconds for the report file."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    load_before = os.getloadavg()
    warm = _child(["-m", "lambdalab", "catalogue", "--json"])
    if warm.returncode != 0:
        raise BenchError(f"python -m lambdalab failed: {warm.stderr}")
    ref = workloads.load_reference(reference_dir, workload)
    base = {"workload": workload, "reference_dir": reference_dir,
            "in_process": trace,
            "startup_runs": 5 if trace or workload == "cli" else 0}
    if trace:
        (chunk,) = workloads.plan(workload, seed, seconds / 2, ref, chunks=1)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
        untraced = run_worker({**base, "items": chunk, "trace": False},
                              deadline)
        traced = run_worker({**base, "items": chunk, "trace": True,
                             "spans_path": spans_path}, deadline)
        results = [untraced, traced]
        metrics = per_layer(workload, untraced, traced, ref["universe"],
                            spans_path)
        detail = {"spans": os.path.relpath(spans_path, ROOT)}
    else:
        results = [run_worker({**base, "items": chunk, "trace": False},
                              deadline)
                   for chunk in workloads.plan(workload, seed, seconds, ref)]
        values, detail = end_to_end(workload, results)
        metrics = _as_metrics("end_to_end", values)
        if workload == "cli":
            detail["cli.python_startup_ms"] = statistics.median(
                r["python_startup_ms"] for r in results)
    items = [it for r in results for it in r["items"]]
    failures = [(ref["universe"][it[0]], it[3]) for it in items if it[3]]
    detail.update({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fail_frac": len(failures) / len(items),
        "failures": failures[:5],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    })
    return {
        "detail": detail,
        "result": {"correct": not failures, "attempted": len(items),
                   "failed": len(failures), "metrics": metrics},
        "items": [[ref["universe"][it[0]], it[1], it[2]] for it in items],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1337)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = [os.path.join(ROOT, "src", "lambdalab", "__init__.py"),
              os.path.join(ROOT, "tests", "oracle.py")]
    absent = [os.path.relpath(p, ROOT) for p in needed if not os.path.exists(p)]
    if absent:
        print(f"error: run from a lambdalab checkout; missing {absent}",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired, OSError):
            traceback.print_exc()
            return 1
        result = report["result"]
        print(f"{name} (seed {args.seed}, trace {args.trace}): "
              f"{result['attempted']} items, {result['failed']} failed")
        for metric, value in result["metrics"].items():
            print(f"  {metric:<34} {value['value']:>16.6g} {value['unit']}")
        path = os.path.join(OUT_DIR, f"{name}-{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        print("detail: " + json.dumps(report["detail"]))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
