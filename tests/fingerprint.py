"""Print four sha256 digests: one over everything the engine observably
does, one over the lab layer built on it, one over the command line, and
one over the command line's strategy commands alone.

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

They print the same third (CLI) digest when in-process runs of
lambdalab.cli.main give the same argv, exit code, stdout and stderr
(usage errors included, at 80 columns) for:

- eval, trace and tree of every catalogue row over the paper terms at
  fuel 300, as text and as --json --strict-fuel;
- compare of each catalogue row with the next over the paper terms, in
  the same two modes;
- validate, fuse and defuse of every row, every alias and a few rejected
  or malformed encodings, as text and --json;
- classify, catalogue, demo-factorial, corpus-gen and corpus-run (the
  last two with --out into a scratch directory), and the error paths of
  each: parse errors, rejected specs, out-of-range numbers, missing
  files and usage errors.

They print the same fourth (notation) digest when the same in-process
runs agree for catalogue, and for validate, fuse and defuse of every
catalogue row, every alias and the odd specs, as text and --json: the
slice of the CLI digest that the strategy layer alone decides.

So a refactor that prints all four digests of its parent has changed
none of them. tests/golden.json holds the committed digests: the script
exits 1, naming the digests that differ, when it prints others; under
Python 3.13 or later, where argparse's help text changes, a CLI digest
that alone differs is also said to hold for 3.10-3.12. And
tests/test_golden.py recomputes the engine, lab and notation digests in
the test suite (the CLI digest, about two thirds of the script's time,
runs only here). pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

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
from lambdalab.cli import main as cli_main  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.json")
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


CLI_FUEL = "300"
# Encodings validate, fuse and defuse refuse or cannot parse.
ODD_SPECS = ("II.III", "EE.SSS", "I(RE).SSS", "SSS<>III", "HHH<>III",
             "HXH<>ISS", "(RE.ISS", "zz9")
BAD_TERMS = ("(((", "\\x.", "#Nope", "x )")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped error is part of the record
            code = f"raised|{type(exc).__name__}|{exc}"
    return json.dumps([list(argv), code, out.getvalue(), err.getvalue()])


def _spec_argvs(rows):
    """validate, fuse and defuse of every row, alias and odd spec."""
    for spec in rows + sorted(ALIASES) + list(ODD_SPECS):
        for command in ("validate", "fuse", "defuse"):
            yield [command, spec]
            yield [command, spec, "--json"]


def _cli_argvs(rows, terms):
    """Every command line the CLI digest runs, in order."""
    modes = ([], ["--json", "--strict-fuel"])
    for spec in rows:
        for term in terms:
            for command in ("eval", "trace", "tree"):
                for mode in modes:
                    yield [command, "-s", spec, term, "--fuel", CLI_FUEL] + mode
    for a, b in zip(rows, rows[1:]):
        for term in terms:
            for mode in modes:
                yield ["compare", a, b, term, "--fuel", CLI_FUEL] + mode
    yield from _spec_argvs(rows)
    for term in terms + list(BAD_TERMS):
        yield ["classify", term]
        yield ["classify", term, "--json"]
        yield ["eval", "-s", "bv", term, "--fuel", CLI_FUEL]
    for spec in ODD_SPECS:
        yield ["eval", "-s", spec, "x"]
        yield ["trace", "-s", spec, "x", "--json"]
        yield ["tree", "-s", spec, "x"]
        yield ["compare", "bv", spec, "x"]
    for mode in ([], ["--json"]):
        yield ["catalogue"] + mode
        yield ["demo-factorial", "--n", "2"] + mode
        yield ["demo-factorial", "-s", "no", "--n", "3", "--fuel", "40"] + mode
        yield ["corpus-gen", "--seed", "4", "--size-max", "12", "--n", "8"] + mode
        yield ["corpus-gen", "--seed", "3", "--size-max", "10", "--n", "6",
               "--pool", "x,y"] + mode
        yield ["corpus-gen", "--seed", "4", "--size-max", "12", "--n", "8",
               "--out", "c.lam"] + mode
        yield ["corpus-run", "bn", "no", "c.lam", "--fuel", "2000"] + mode
        yield ["corpus-run", "bv", "am", "c.lam", "--fuel", "300",
               "--seed", "5"] + mode
        yield ["corpus-run", "bn", "no", "missing.lam"] + mode
        yield ["corpus-run", "bn", "no", "bad.lam"] + mode
    yield ["corpus-run", "bn", "no", "c.lam", "--fuel", "2000", "--out",
           "report.json"]
    yield ["eval", "-s", "bv", "x", "--fuel", "-1"]
    yield ["trace", "-s", "bv", "x", "--fuel", "-1"]
    yield ["demo-factorial", "-s", "zz"]
    yield ["demo-factorial", "--n", "-1"]
    for argv in (["--size-max", "0"], ["--size-max", "1"], ["--n", "-5"],
                 ["--pool", "x", "--size-max", "1"]):
        yield ["corpus-gen"] + argv
    for argv in ([], ["no-such-command"], ["eval", "bv"], ["eval", "-s", "bv"],
                 ["eval", "-s", "bv", "x", "--fuel", "ten"],
                 ["compare", "bv"], ["classify", "x", "--fuel", "3"],
                 ["demo-factorial", "--n", "two"], ["corpus-gen", "--bogus"]):
        yield argv


def _update(digest, argvs):
    os.environ["COLUMNS"] = "80"  # usage lines wrap at the terminal width
    for argv in argvs:
        digest.update(_cli(argv).encode())
        digest.update(b"\n")


def notation_digest():
    rows = [print_spec(r.spec) for r in catalogue()]
    digest = hashlib.sha256()
    _update(digest, [["catalogue"], ["catalogue", "--json"]])
    _update(digest, _spec_argvs(rows))
    return digest.hexdigest()


def cli_digest():
    rows = [print_spec(r.spec) for r in catalogue()]
    terms = [print_term(t) for _, t in paper_corpus()]
    digest = hashlib.sha256()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with open("bad.lam", "w", encoding="utf-8") as handle:
                handle.write("x\n(\\y.\n")
            _update(digest, _cli_argvs(rows, terms))
            with open("report.json", encoding="utf-8") as handle:
                digest.update(handle.read().encode())
        finally:
            os.chdir(home)
    return digest.hexdigest()


def engine_digest(terms):
    terms = [t for _, t in paper_corpus()] + terms
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
    return digest.hexdigest()


def corpus():
    """The seed-1337 corpus terms the engine and lab digests run over."""
    return generate(GenConfig(seed=1337, size_max=30), CORPUS_TERMS)


def main():
    terms = corpus()
    digests = {"engine": engine_digest(terms), "lab": lab_digest(terms),
               "cli": cli_digest(), "notation": notation_digest()}
    for digest in digests.values():
        print(digest)
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    changed = [name for name, digest in digests.items()
               if digest != golden[name]]
    if changed:
        print(f"differs from tests/golden.json: {', '.join(changed)}")
        if changed == ["cli"] and sys.version_info >= (3, 13):
            print("the committed CLI digest holds for Python 3.10-3.12: "
                  "argparse 3.13 changes the help text")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
