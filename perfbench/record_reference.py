"""Record the reference outcome of every item a workload can draw.

Each entry holds the item's comparable outcome (status, fuel_used, the
form family mask and a digest of the de Bruijn form of the result from
tests/oracle.py; the verdict kind for fusion rows; the exit code and a
summary of the JSON output for CLI invocations) followed by its cost in
milliseconds, which run.py uses only to stratify its draws. An item the
oracle disagrees with stops the recording: the reference must be right.

Usage: PYTHONPATH=src python3 perfbench/record_reference.py WORKLOAD...
Re-record only when lambdalab's behaviour is meant to change.
"""

from __future__ import annotations

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import lambdalab  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def record(workload: str) -> dict:
    ctx = workloads.Context(workload, lambdalab, oracle, ROOT)
    entries = []
    for idx in range(len(ctx.universe)):
        t0 = time.perf_counter()
        raw = ctx.run(idx, in_process=True)
        cost_ms = (time.perf_counter() - t0) * 1e3
        problem = ctx.oracle_check(idx, raw)
        if problem:
            raise SystemExit(f"{workload} item {ctx.universe[idx]}: {problem}")
        entries.append(ctx.summary(idx, raw) + [round(cost_ms, 3)])
        if idx % 2000 == 0:
            print(f"{workload}: {idx}/{len(ctx.universe)}", flush=True)
    return {"workload": workload, "universe": ctx.universe, "entries": entries}


def main(argv: list[str]) -> int:
    for workload in argv or workloads.WORKLOADS:
        workloads.save_reference(BENCH_DIR, workload, record(workload))
        print(f"{workload}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
