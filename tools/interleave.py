"""In-process interleaved timing of perfbench items, parent against change.

    python3 tools/interleave.py --parent REV [--rounds 10] ITEM...

ITEM is WORKLOAD:SPEC:TERM, one item of a perfbench workload, run as
its workloads.Context runs it: sweep:SPEC:TERM, an eval-apply row on a
sweep corpus term named by index; fusion:SPEC:TERM, a readback row on a
fusion corpus term named by index or paper-term name; factorial:ROW:N.
SPEC is an alias or an encoding; for example sweep:SIS:527,
fusion:byValue:neutral-operand or factorial:hn:6. An item outside its
workload's universe is refused.

The parent's whole tree is exported with benchpairs.export (`git
archive`) into a temporary directory, where its src/lambdalab is renamed
to the package lambdalab_parent, and both trees are imported into this
one process, so both sides share the interpreter,
the heap and the host's moment-to-moment speed. Each tree gets one
perfbench/workloads.py Context per workload. The set-up data (trees,
Contexts, reference outcomes) is then frozen out of the collector with
gc.freeze, as perfbench/worker.py freezes its reference. Each round runs
every item once on each side, the parent first in even rounds and the
change first in odd ones, after one untimed round that warms both. Each
timed span is exactly one Context.run call, timed with
time.perf_counter and corrected for host speed by perfbench/hostclock.py.
Outside the span, Context.check compares the change's outcome with
perfbench/reference and tests/oracle.py; the oracle is bound to the
change's term classes, so the parent is not checked. A failed check
stops the script with exit status 1. It prints, per item, each side's
median in milliseconds to four significant digits, the median of the
per-round change/parent ratios with its quartiles, and the change's
wins. Standard library only; run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import os
import statistics
import sys
import tempfile
import time

from benchpairs import export, quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
PARENT_PACKAGE = "lambdalab_parent"
# cli items run a child process of the working tree, not an imported tree
WORKLOADS = ("sweep", "fusion", "factorial")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR,
                os.path.join(ROOT, "tests")]
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402


def summarise(timings):
    """Per-item figures from {item: {"parent": seconds, "change":
    seconds}}, each a list with one entry per round, in round order."""
    out = {}
    for item, sides in timings.items():
        parent, change = sides["parent"], sides["change"]
        ratios = [c / p for p, c in zip(parent, change)]
        q1, median, q3 = quartiles(ratios)
        out[item] = {
            "parent_s": statistics.median(parent),
            "change_s": statistics.median(change),
            "ratio": median,
            "ratio_q1": q1,
            "ratio_q3": q3,
            "wins": sum(c < p for p, c in zip(parent, change)),
            "rounds": len(ratios),
        }
    return out


def contexts(lab, oracle):
    """One perfbench Context per workload for the package lab."""
    return {w: workloads.Context(w, lab, oracle, ROOT) for w in WORKLOADS}


def resolve(ctxs, item):
    """(Context, universe index) of item among ctxs, the result of
    contexts(); an item outside its workload's universe is refused."""
    workload, _, rest = item.partition(":")
    spec_text, _, arg = rest.rpartition(":")
    ctx = ctxs.get(workload)
    if ctx is None:
        raise SystemExit(f"{item}: the workload must be one of "
                         f"{', '.join(ctxs)}, as WORKLOAD:SPEC:TERM")
    try:
        row = ctx.specs.index(ctx.lab.parse_spec(spec_text))
    except ValueError:  # a NotationError, or a spec that is not a row
        raise SystemExit(f"{item}: {spec_text!r} is not a row of the "
                         f"{workload} workload") from None
    if workload == "factorial":
        key = [ctx.rows[row], int(arg) if arg.isdigit() else arg]
        hint = f"n is {workloads.FACTORIAL_NS[0]}-{workloads.FACTORIAL_NS[-1]}"
    else:
        generated = {"sweep": workloads.CORPUS_N,
                     "fusion": workloads.FUSION_K}[workload]
        # fusion's corpus ends with the paper terms; sweep's has none
        names = [n for n, _ in ctx.lab.paper_corpus()][
            :len(ctx.corpus) - generated]
        if arg.isdigit() and int(arg) < generated:
            term = int(arg)
        else:
            term = generated + names.index(arg) if arg in names else None
        key = [row, term]
        hint = (f"terms are 0-{generated - 1}"
                + (" or a paper term's name" if names else ""))
    if key not in ctx.universe:
        raise SystemExit(f"{item}: {arg!r} is not in the {workload} "
                         f"workload; its {hint}")
    return ctx, ctx.universe.index(key)


def interleave(runs, refs, rounds, clock):
    """Seconds {item: {side: [one per round]}}, corrected by the running
    clock, or None when a check of the change fails. runs maps each item
    to {side: (Context, index)}; refs maps each workload to its
    reference entries."""
    spans = {item: {"parent": [], "change": []} for item in runs}
    for r in range(rounds + 1):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for item, sides in runs.items():
            for side in order:
                ctx, idx = sides[side]
                gc.collect()
                a = time.perf_counter()
                raw = ctx.run(idx)
                b = time.perf_counter()
                if r:
                    spans[item][side].append((a, b))
                if side == "change" and (reason := ctx.check(
                        idx, raw, refs[ctx.workload][idx])):
                    print(f"{item}: {reason}", file=sys.stderr)
                    return None
        if r:
            print(f"round {r}/{rounds} done", file=sys.stderr, flush=True)
    return {item: {side: [clock.corrected(a, b) for a, b in sp[side]]
                   for side in sp}
            for item, sp in spans.items()}


def milliseconds(seconds):
    """seconds in milliseconds to four significant digits, or to the
    millisecond from 10 s up, with no exponent: 0.0000734 s is 0.07340
    and 12.3456 s is 12346."""
    ms = seconds * 1000
    digits = 3 - math.floor(math.log10(abs(ms))) if ms else 3
    return f"{ms:.{max(digits, 0)}f}"


def line(item, s):
    """The printed line of one item's figures s, from summarise()."""
    return (f"{item:28} {milliseconds(s['parent_s']):>9} "
            f"{milliseconds(s['change_s']):>9} {s['ratio']:7.3f} "
            f"{s['ratio_q1']:6.3f} {s['ratio_q3']:6.3f}"
            f"  {s['wins']}/{s['rounds']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("items", nargs="+", metavar="ITEM")
    args = parser.parse_args(argv)
    import oracle  # binds the working tree's lambdalab
    clock = HostClock()
    clock.start()  # before the set-up, as in perfbench/worker.py
    try:
        with tempfile.TemporaryDirectory() as tmp:
            export(args.parent, tmp)
            os.rename(os.path.join(tmp, "src", "lambdalab"),
                      os.path.join(tmp, PARENT_PACKAGE))
            sys.path.insert(0, tmp)
            ctxs = {"parent": contexts(
                        importlib.import_module(PARENT_PACKAGE), None),
                    "change": contexts(importlib.import_module("lambdalab"),
                                       oracle)}
            refs = {w: workloads.load_reference(BENCH_DIR, w)
                    for w in WORKLOADS}
            if any(refs[w]["universe"] != ctx.universe
                   for w, ctx in ctxs["change"].items()):
                raise SystemExit("perfbench/reference was recorded for "
                                 "another item universe")
            refs = {w: ref["entries"] for w, ref in refs.items()}
            runs = {item: {side: resolve(ctxs[side], item) for side in ctxs}
                    for item in args.items}
            gc.collect()
            gc.freeze()
            timings = interleave(runs, refs, args.rounds, clock)
    finally:
        clock.stop()
    if timings is None:
        return 1
    print(f"{'item':28} {'parent ms':>9} {'change ms':>9} {'ratio':>7} "
          f"{'q1':>6} {'q3':>6}  wins")
    for item, s in summarise(timings).items():
        print(line(item, s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
