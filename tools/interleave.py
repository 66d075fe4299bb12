"""In-process interleaved timing of named items, parent against change.

    python3 tools/interleave.py --parent REV [--rounds 10] ITEM...

ITEM names one run, as perfbench runs it:

- sweep:SPEC:TERM: evaluate(SPEC, TERM) untraced at fuel 20000 and
  max_nodes 250000, then classify a converged result;
- fusion:SPEC:TERM: check_fusion_row(SPEC, [TERM], 3000,
  max_nodes=250000);
- factorial:ROW:N: evaluate(ROW, factorial_term(ROW, N)) untraced at
  fuel 250000.

TERM is an index into the seed-1337 size-30 corpus of 1,000 terms or the
name of a paper term; for example sweep:SIS:527 or factorial:hn:6.

The parent's src/lambdalab is exported with `git archive` into a
temporary directory as the package lambdalab_parent, and both trees are
imported into this one process, so both sides share the interpreter,
the heap and the host's moment-to-moment speed. Each round runs every
item once on each side, the parent first in even rounds and the change
first in odd ones, after one untimed round that warms both. Each run is
timed with time.perf_counter and corrected for host speed by
perfbench/hostclock.py. Both sides' outcomes must agree on every run,
or the script stops with exit status 1. It prints, per item, each
side's median seconds, the median of the per-round change/parent ratios
with its quartiles, and the change's wins. Standard library only; run
from the root of a checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

from benchpairs import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARENT_PACKAGE = "lambdalab_parent"
# perfbench's settings for its sweep, fusion and factorial items
SWEEP_FUEL, FUSION_FUEL, FACTORIAL_FUEL = 20000, 3000, 250000
MAX_NODES = 250000
CORPUS_SEED, CORPUS_SIZE_MAX, CORPUS_N = 1337, 30, 1000


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


def export(rev, into):
    """Extract rev's src/lambdalab under into as PARENT_PACKAGE."""
    archive = subprocess.run(["git", "archive", rev, "src/lambdalab"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        members = [m for m in tar.getmembers()
                   if m.name.startswith("src/lambdalab/")]
        for m in members:
            m.name = PARENT_PACKAGE + m.name[len("src/lambdalab"):]
        tar.extractall(into, members)


class Side:
    """One tree's package and the prepared inputs of every item."""

    def __init__(self, lab, items):
        self.lab = lab
        self._corpus = None
        self.runs = {item: self._prepare(item) for item in items}

    def _term(self, name):
        lab = self.lab
        if name.isdigit():
            if self._corpus is None:
                self._corpus = lab.generate(lab.GenConfig(
                    seed=CORPUS_SEED, size_max=CORPUS_SIZE_MAX), CORPUS_N)
            return self._corpus[int(name)]
        return dict(lab.paper_corpus())[name]

    def _prepare(self, item):
        """A function of no arguments that runs item and returns a
        summary of its outcome that compares across the two trees."""
        lab = self.lab
        kind, rest = item.split(":", 1)
        spec_text, arg = rest.rsplit(":", 1)
        spec = lab.parse_spec(spec_text)
        if kind == "sweep":
            term = self._term(arg)

            def run():
                try:
                    out = lab.evaluate(spec, term, SWEEP_FUEL,
                                       record_trace=False, max_nodes=MAX_NODES)
                except lab.ResourceLimitError as e:
                    return ("resource", str(e))
                forms = (sorted(f.value for f in lab.classify(out.result))
                         if out.status == lab.CONVERGED else None)
                return self._outcome(out) + (forms,)
        elif kind == "fusion":
            term = self._term(arg)

            def run():
                report = lab.check_fusion_row(spec, [term], FUSION_FUEL,
                                              max_nodes=MAX_NODES)
                return json.dumps(report.to_json(), sort_keys=True)
        elif kind == "factorial":
            term = lab.factorial_term(spec_text, int(arg))

            def run():
                return self._outcome(lab.evaluate(
                    spec, term, FACTORIAL_FUEL, record_trace=False))
        else:
            raise SystemExit(f"unknown item kind {kind!r} in {item!r}")
        return run

    def _outcome(self, out):
        result = (None if out.result is None
                  else self.lab.print_term(out.result))
        return (out.status, out.fuel_used, result)


def timed(run):
    gc.collect()
    a = time.perf_counter()
    outcome = run()
    b = time.perf_counter()
    return outcome, (a, b)


def interleave(sides, items, rounds, clock):
    """Host-corrected seconds {item: {side: [one per round]}}, or None
    when the two sides' outcomes differ."""
    spans = {item: {"parent": [], "change": []} for item in items}
    clock.start()
    try:
        for r in range(rounds + 1):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for item in items:
                seen = {}
                for side in order:
                    seen[side], span = timed(sides[side].runs[item])
                    if r:
                        spans[item][side].append(span)
                if seen["parent"] != seen["change"]:
                    print(f"{item}: the outcomes differ\n  parent "
                          f"{str(seen['parent'])[:300]}\n  change "
                          f"{str(seen['change'])[:300]}", file=sys.stderr)
                    return None
            if r:
                print(f"round {r}/{rounds} done", file=sys.stderr,
                      flush=True)
    finally:
        clock.stop()
    return {item: {side: [clock.corrected(a, b) for a, b in sp[side]]
                   for side in sp}
            for item, sp in spans.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("items", nargs="+", metavar="ITEM")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from hostclock import HostClock

    with tempfile.TemporaryDirectory() as tmp:
        export(args.parent, tmp)
        sys.path.insert(0, tmp)
        sides = {"parent": Side(importlib.import_module(PARENT_PACKAGE),
                                args.items),
                 "change": Side(importlib.import_module("lambdalab"),
                                args.items)}
        timings = interleave(sides, args.items, args.rounds, HostClock())
    if timings is None:
        return 1
    print(f"{'item':28} {'parent s':>9} {'change s':>9} {'ratio':>7} "
          f"{'q1':>6} {'q3':>6}  wins")
    for item, s in summarise(timings).items():
        print(f"{item:28} {s['parent_s']:9.4f} {s['change_s']:9.4f} "
              f"{s['ratio']:7.3f} {s['ratio_q1']:6.3f} {s['ratio_q3']:6.3f}"
              f"  {s['wins']}/{s['rounds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
