"""Print one sha256 over everything the engine observably does.

Run from the repository root with `python tests/fingerprint.py`. It
takes no options. Two commits print the same digest when every catalogue
row, over the paper terms and the first 300 seed-1337 corpus terms at
fuel 0, 3 and 300 (max_nodes 100000), gives the same:

- status, fuel_used, printed result and trace events of evaluate, traced
  and untraced;
- derivation_forest, node by node;
- resume_readback from the eval stage, for the readback rows;
- error type and message, wherever one of these runs raises.

So a refactor of the engine that prints the digest of its parent has
changed none of them. pytest does not collect this file.
"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from lambdalab import (  # noqa: E402
    GenConfig,
    ReadbackSpec,
    catalogue,
    derivation_forest,
    evaluate,
    generate,
    paper_corpus,
    print_spec,
    print_term,
)
from lambdalab.engine import resume_readback  # noqa: E402

FUELS = (0, 3, 300)
MAX_NODES = 100000
CORPUS_TERMS = 300


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


def main():
    terms = ([t for _, t in paper_corpus()]
             + generate(GenConfig(seed=1337, size_max=30), CORPUS_TERMS))
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
                if isinstance(spec, ReadbackSpec):
                    record += _attempt(lambda: _outcome(resume_readback(
                        spec, evaluate(spec.ev, term, fuel, max_nodes=MAX_NODES),
                        fuel, max_nodes=MAX_NODES)))
                digest.update("\n".join(record).encode())
                digest.update(b"\n")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
