"""Print two sha256 digests: one over everything the engine observably
does, one over the lab layer built on it.

Run from the repository root with `python tests/fingerprint.py`. It
takes no options. Two commits print the same first (engine) digest when
every catalogue row, over the paper terms and the first 300 seed-1337
corpus terms at fuel 0, 3 and 300 (max_nodes 100000), gives the same:

- status, fuel_used, printed result and trace events of evaluate, traced
  and untraced;
- derivation_forest, node by node;
- error type and message, wherever one of these runs raises.

They print the same second (lab) digest when these agree:

- ALIASES, as a set of pairs, and the catalogue rows in order;
- the JSON report and mcr flag of check_fusion_row for the 22 readback
  rows, check_absorption for the pairs of acceptance criterion 5, and
  compare_corpus("no", "hr"), each over the paper terms and the first
  120 seed-1337 corpus terms at fuel 3000;
- demo_factorial for n = 0..3 at its default fuel, and the printed
  factorial_term of every row of its table for n = 0..3.

So a refactor that prints both digests of its parent has changed none
of them. pytest does not collect this file.
"""

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from lambdalab import (  # noqa: E402
    ALIASES,
    FormClass,
    GenConfig,
    ReadbackSpec,
    catalogue,
    check_absorption,
    check_fusion_row,
    compare_corpus,
    demo_factorial,
    derivation_forest,
    evaluate,
    factorial_term,
    generate,
    paper_corpus,
    print_spec,
    print_term,
)

FUELS = (0, 3, 300)
MAX_NODES = 100000
CORPUS_TERMS = 300
LAB_TERMS = 120
LAB_FUEL = 3000
# The outer/inner pairs of acceptance criterion 5.
ABSORPTION_PAIRS = (("IIS", "bn"), ("he", "bn"), ("SIS", "he"), ("SIS", "bn"),
                    ("SIS", "IIS"), ("bv", "bn"), ("ao", "bn"), ("bv", "ISI"),
                    ("ho", "ISI"))


def _term(t):
    return "-" if t is None else print_term(t)


def _event(e):
    return (f"{e.step_index}|{''.join(e.position)}|{_term(e.redex)}|"
            f"{_term(e.contractum)}")


def _outcome(o):
    lines = [f"{o.status}|{o.fuel_used}|{_term(o.result)}"]
    if o.trace is None:
        lines.append("untraced")
    else:
        lines.extend(map(_event, o.trace))
    return lines


def _forest(roots):
    lines = [f"roots|{len(roots)}"]
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        event = "-" if node.event is None else _event(node.event)
        lines.append(f"{node.kind}|{_term(node.input)}|{_term(node.output)}|"
                     f"{len(node.premises)}|{event}|{_term(node.contractum)}|"
                     f"{_term(node.operand_result)}")
        stack.extend(reversed(node.premises))
    return lines


def _attempt(run):
    try:
        return run()
    except Exception as exc:  # the error itself is part of the record
        return [f"raised|{type(exc).__name__}|{exc}"]


def _report(report):
    return [json.dumps(report.to_json(), sort_keys=True), f"mcr|{report.mcr}"]


def _factorial_entry(e):
    expected = e["expected"]
    expected = (expected.value if isinstance(expected, FormClass)
                else _term(expected))
    return (f"{e['strategy']}|{e['n']}|{e['status']}|{_term(e['result'])}|"
            f"{expected}|{e['ok']}")


def lab_digest(terms):
    terms = [t for _, t in paper_corpus()] + terms[:LAB_TERMS]
    record = [f"alias|{a}|{s}" for a, s in sorted(ALIASES.items())]
    record += [f"row|{r.alias}|{print_spec(r.spec)}|{r.classification}|"
               f"{r.result_form.value}" for r in catalogue()]
    for row in catalogue():
        if isinstance(row.spec, ReadbackSpec):
            record += _report(check_fusion_row(row.spec, terms, LAB_FUEL))
    for outer, inner in ABSORPTION_PAIRS:
        record += _report(check_absorption(outer, inner, terms, LAB_FUEL))
    record += _report(compare_corpus("no", "hr", terms, LAB_FUEL))
    entries = demo_factorial(range(4))
    record += map(_factorial_entry, entries)
    for strategy in dict.fromkeys(e["strategy"] for e in entries):
        record += [print_term(factorial_term(strategy, n)) for n in range(4)]
    return hashlib.sha256("\n".join(record).encode()).hexdigest()


def main():
    corpus = generate(GenConfig(seed=1337, size_max=30), CORPUS_TERMS)
    terms = [t for _, t in paper_corpus()] + corpus
    digest = hashlib.sha256()
    for row in catalogue():
        spec = row.spec
        for i, term in enumerate(terms):
            for fuel in FUELS:
                record = [f"{print_spec(spec)}|{i}|{fuel}"]
                for traced in (True, False):
                    record += _attempt(lambda: _outcome(evaluate(
                        spec, term, fuel, record_trace=traced,
                        max_nodes=MAX_NODES)))
                record += _attempt(lambda: _forest(derivation_forest(
                    spec, term, fuel, max_nodes=MAX_NODES)))
                digest.update("\n".join(record).encode())
                digest.update(b"\n")
    print(digest.hexdigest())
    print(lab_digest(corpus))


if __name__ == "__main__":
    main()
