"""One chunk of a benchmark run, in a fresh process.

run.py starts one worker per chunk, one at a time, so that each chunk
pays the full set-up (interpreter start, importing lambdalab, building
the inputs, loading the reference) and no state carries over between
chunks. The worker prints READY once set up, then runs its items, checks
each outcome outside the timed interval, and prints one JSON line.

Usage: python3 perfbench/worker.py '<json spec>' (written by run.py).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback

_START = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from hostclock import HostClock  # noqa: E402


def main() -> int:
    clock = HostClock()
    clock.start()
    spec = json.loads(sys.argv[1])
    import workloads

    ref = workloads.load_reference(spec["reference_dir"], spec["workload"])
    # The reference is the benchmark's own data: freeze it out of the
    # collector, or every full collection during an item would scan its
    # tens of thousands of entries and charge lambdalab for it (up to
    # 23 ms of a 120 ms fusion item).
    gc.freeze()
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import lambdalab

    from tracing import Tracer

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    import oracle

    ctx = workloads.Context(spec["workload"], lambdalab, oracle, ROOT)
    if ref["universe"] != ctx.universe:
        raise RuntimeError(f"{spec['workload']}: the reference was recorded "
                           "for another item universe; re-record it")
    entries = ref["entries"]
    ready = time.perf_counter()
    print("READY", flush=True)

    in_process = spec["in_process"]
    clock_fn = time.perf_counter
    timed, spans = [], []
    for idx in spec["items"]:
        before = tracer.snapshot() if tracer else None
        a = clock_fn()
        try:
            raw = ctx.run(idx, in_process)
            reason = None
        except Exception:  # an item that raises is a failed item
            raw = None
            reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
        b = clock_fn()
        if tracer:
            spans.append({"item": idx, "start": a, "end": b,
                          "calls": Tracer.delta(before, tracer.snapshot())})
        if reason is None:
            reason = ctx.check(idx, raw, entries[idx])
        props = ctx.properties(idx, raw) if raw is not None else (False,) * 3
        timed.append((idx, a, b, reason, props))
    # the floor under every CLI invocation, which lambdalab does not own
    startups = []
    for _ in range(spec["startup_runs"]):
        a = clock_fn()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        startups.append((a, clock_fn()))
    clock.stop()

    # a cli item run as a child leaves this process waiting on it
    waiting = spec["workload"] == "cli" and not in_process
    items = [[idx, clock.corrected(a, b, waiting), b - a, reason, *props]
             for idx, a, b, reason, props in timed]
    result = {
        "setup_speed": clock.speed(_START, ready),
        "items": items,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if startups:
        result["python_startup_ms"] = 1e3 * sorted(
            clock.corrected(a, b, waiting=True)
            for a, b in startups)[len(startups) // 2]
    if tracer:
        tracer.uninstall()
        first, last = timed[0][1], timed[-1][2]
        result["trace"] = {
            "speed": clock.speed(first, last),
            "stats": tracer.stats,
            "contractions": tracer.contractions,
        }
        with open(spec["spans_path"], "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
