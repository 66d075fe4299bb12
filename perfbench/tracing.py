"""Timing wrappers for the traced run.

The traced run replaces public functions at the module attributes where
their callers look them up, so each wrapper times exactly the calls one
layer makes into another (engine's calls to substitute, lab's calls to
alpha_eq, the benchmark's own calls into the package). Wrappers nest:
each one adds its duration to its caller's child time, which gives every
layer a self time. Nothing is installed in untraced runs.

Hot leaves (substitute runs more than a million times in a sweep) are
not recorded one span per call: the tracer keeps a count and a total per
metric, and the worker snapshots them around each item to get per-item
aggregates.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, metric). A hook whose attribute is gone is an error.
HOOKS = (
    ("lambdalab", "evaluate", "engine.evaluate"),
    ("lambdalab.lab", "evaluate", "engine.evaluate"),
    ("lambdalab.cli", "evaluate", "engine.evaluate"),
    ("lambdalab.engine", "substitute", "terms.substitute"),
    ("lambdalab.lab", "alpha_eq", "terms.alpha_eq"),
    ("lambdalab", "classify", "terms.classify"),
    ("lambdalab.cli", "classify", "terms.classify"),
    ("lambdalab.engine", "parse_term", "terms.parse_term"),
    ("lambdalab.cli", "parse_term", "terms.parse_term"),
    ("lambdalab.corpus", "parse_term", "terms.parse_term"),
    ("lambdalab.lab", "print_term", "terms.print_term"),
    ("lambdalab.cli", "print_term", "terms.print_term"),
    ("lambdalab.engine", "validate", "notation.validate"),
    ("lambdalab.cli", "validate", "notation.validate"),
    ("lambdalab", "parse_spec", "notation.parse_spec"),
    ("lambdalab.engine", "parse_spec", "notation.parse_spec"),
    ("lambdalab.lab", "parse_spec", "notation.parse_spec"),
    ("lambdalab.cli", "parse_spec", "notation.parse_spec"),
    ("lambdalab.lab", "fuse", "notation.fuse"),
    ("lambdalab.cli", "fuse", "notation.fuse"),
    ("lambdalab", "generate", "corpus.generate"),
    ("lambdalab", "check_fusion_row", "lab.check_fusion_row"),
    ("lambdalab.cli", "main", "cli.main"),
)

METRICS = tuple(dict.fromkeys(h[2] for h in HOOKS))


class Tracer:
    """Per-metric [calls, seconds, child seconds], plus the sum of
    fuel_used over evaluate's outcomes (engine contractions)."""

    def __init__(self):
        self.stats = {m: [0, 0.0, 0.0] for m in METRICS}
        self.contractions = 0
        self._stack = [0.0]
        self._restore = []

    def _wrap(self, fn, metric):
        stats = self.stats[metric]
        stack = self._stack
        clock = time.perf_counter
        count_fuel = metric == "engine.evaluate"
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += child
            if count_fuel:
                tracer.contractions += result.fuel_used
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, metric in HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise RuntimeError(
                    f"traced hook {module_name}.{attr} no longer exists")
            fn = getattr(module, attr)
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, metric))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def snapshot(self) -> dict:
        return {m: (s[0], s[1]) for m, s in self.stats.items()}

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        """Per-metric [calls, seconds] between two snapshots, nonzero
        entries only."""
        out = {}
        for m, (calls, secs) in after.items():
            c0, s0 = before[m]
            if calls != c0:
                out[m] = [calls - c0, secs - s0]
        return out
