"""Command line frontend.

Every subcommand is a thin adapter over one library operation: parse
arguments, call it, render the answer. Exit status is 0 on success, 1
for domain errors (unparsable terms, bad strategy encodings, validation
rejections), and 2 for resource exhaustion when --strict-fuel is set;
without the flag a fuel-starved run still exits 0 and says so in its
output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import GenConfig, generate, load_corpus, save_corpus
from .engine import (
    CONVERGED,
    DEFAULT_FUEL,
    EngineError,
    TraceEvent,
    derivation_forest,
    evaluate,
    reconstruct_sequence,
)
from .lab import (
    BOTH_EXHAUSTED_EQUAL_PREFIX,
    BOTH_EXHAUSTED_MCR_PREFIX,
    DEFAULT_FACTORIAL_FUEL,
    INCONCLUSIVE,
    compare,
    compare_corpus,
    demo_factorial,
    event_json,
    trace_json,
)
from .notation import (
    REJECTED,
    NotationError,
    ReadbackSpec,
    alias_of,
    catalogue,
    defuse,
    fuse,
    parse_spec,
    print_spec,
    validate,
)
from .terms import (
    FormClass,
    ParseError,
    ResourceLimitError,
    Term,
    Var,
    classify,
    parse_term,
    print_term,
)

class _Parser(argparse.ArgumentParser):
    # Exit 1 on usage errors; this tool reserves 2 for resource limits.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _indent():
    return 2 if sys.stdout.isatty() else None


def _emit(payload) -> None:
    print(json.dumps(payload, indent=_indent()))


def _dumps(value, indent) -> str:
    """json.dumps(value, indent=indent) with its own stack in place of
    recursion, so that documents as deep as a derivation tree fit. It
    is about ten times slower than json.dumps, so only tree uses it."""
    parts = []
    todo = [(value, 0)]  # (value, depth), or (text, None) to write as is
    while todo:
        value, depth = todo.pop()
        if depth is None or not value or not isinstance(value, (dict, list)):
            parts.append(value if depth is None else json.dumps(value))
            continue
        pad = "" if indent is None else "\n" + " " * (indent * depth)
        step, sep = ("", ", ") if indent is None else (" " * indent, ",")
        keyed = isinstance(value, dict)
        pairs = ([(json.dumps(k) + ": ", v) for k, v in value.items()]
                 if keyed else [("", v) for v in value])
        parts.append("{" if keyed else "[")
        todo.append((pad + ("}" if keyed else "]"), None))
        for i in reversed(range(len(pairs))):
            key, item = pairs[i]
            todo.append((item, depth + 1))
            todo.append(((sep if i else "") + pad + step + key, None))
    return "".join(parts)


def _bracketed(term: Term, event: TraceEvent) -> str:
    """Render term with the redex of event wrapped in [...]."""
    # Names print verbatim, so a variable named [redex] is the bracket.
    marker = Var(f"[{print_term(event.redex)}]")
    _, marked = reconstruct_sequence(term, [TraceEvent(
        event.step_index, event.position, event.redex, marker)])
    return print_term(marked)


def _status_line(outcome) -> str:
    if outcome.status == CONVERGED:
        return f"{outcome.fuel_used} steps, converged"
    return f"fuel exhausted after {outcome.fuel_used} steps"


def _finish(args, outcome) -> int:
    if outcome.status != CONVERGED and args.strict_fuel:
        return 2
    return 0


def _cmd_eval(args) -> int:
    traced = args.command == "trace"
    term = parse_term(args.term)
    outcome = evaluate(parse_spec(args.strategy), term, args.fuel,
                       record_trace=traced)
    if args.json:
        _emit(trace_json(args.strategy, term, outcome))
    else:
        if traced:
            states = reconstruct_sequence(term, outcome.trace)
            for state, event in zip(states, outcome.trace):
                print(_bracketed(state, event))
            print(print_term(states[-1]))
        elif outcome.status == CONVERGED:
            print(print_term(outcome.result))
        print(_status_line(outcome))
    return _finish(args, outcome)


def _tree_json(root) -> dict:
    tree = {}
    stack = [(root, tree)]
    while stack:
        node, out = stack.pop()
        out["kind"] = node.kind
        out["input"] = print_term(node.input)
        out["output"] = print_term(node.output)
        if node.contractum is not None:
            out["contractum"] = print_term(node.contractum)
        out["premises"] = [{} for _ in node.premises]
        stack.extend(zip(node.premises, out["premises"]))
    return tree


def _print_tree(root, depth) -> None:
    stack = [(root, depth)]
    while stack:
        node, depth = stack.pop()
        print(f"{'  ' * depth}{node.kind}  {print_term(node.input)}"
              f"  =>  {print_term(node.output)}")
        stack.extend((p, depth + 1) for p in reversed(node.premises))


def _cmd_tree(args) -> int:
    spec = parse_spec(args.strategy)
    term = parse_term(args.term)
    probe = evaluate(spec, term, args.fuel, record_trace=False)
    if probe.status != CONVERGED:
        if args.json:
            _emit({"status": probe.status, "fuel_used": probe.fuel_used})
        else:
            print(_status_line(probe))
        return _finish(args, probe)
    roots = derivation_forest(spec, term, args.fuel)
    stages = ("eval", "readback") if isinstance(spec, ReadbackSpec) else ("derivation",)
    if args.json:
        print(_dumps({
            "stages": [
                {"stage": name, "tree": _tree_json(root)}
                for name, root in zip(stages, roots)
            ]
        }, _indent()))
        return 0
    for name, root in zip(stages, roots):
        print(f"{name}:")
        _print_tree(root, 1)
    return 0


def _cmd_classify(args) -> int:
    term = parse_term(args.term)
    forms = classify(term)
    names = [f.value for f in FormClass if f in forms]
    if args.json:
        _emit({"term": print_term(term), "forms": names})
    else:
        print(", ".join(names) if names else "none")
    return 0


def _cmd_compare(args) -> int:
    term = parse_term(args.term)
    verdict = compare(parse_spec(args.a), parse_spec(args.b), term, args.fuel)
    witness = None
    if verdict.witness is not None:
        index, (ea, eb) = verdict.witness
        witness = {"index": index, "a": event_json(ea), "b": event_json(eb)}
    if args.json:
        _emit({
            "a": args.a,
            "b": args.b,
            "term": print_term(term),
            "verdict": verdict.kind,
            "witness": witness,
        })
    else:
        print(verdict.kind)
        if witness is not None:
            print(f"first conflict at step {index}:")
            for label, event in (("a", ea), ("b", eb)):
                if event is None:
                    print(f"  {label}: no event (trace ended)")
                else:
                    path = "".join(event.position) or "root"
                    print(f"  {label}: at {path}  "
                          f"{print_term(event.redex)}  ->  "
                          f"{print_term(event.contractum)}")
    # A run cut short leaves every verdict but differ undecided.
    undecided = (INCONCLUSIVE, BOTH_EXHAUSTED_EQUAL_PREFIX,
                 BOTH_EXHAUSTED_MCR_PREFIX)
    return 2 if verdict.kind in undecided and args.strict_fuel else 0


def _cmd_fuse(args) -> int:
    result = fuse(parse_spec(args.spec))
    text = print_spec(result.hybrid)
    alias = alias_of(result.hybrid)
    if args.json:
        _emit({
            "readback": args.spec,
            "hybrid": text,
            "alias": alias,
            "mcr": result.mcr,
        })
    else:
        shown = f"{text} ({alias})" if alias else text
        print(f"{shown}, mcr={'true' if result.mcr else 'false'}")
    return 0


def _cmd_defuse(args) -> int:
    encodings = sorted(print_spec(rb) for rb in defuse(parse_spec(args.spec)))
    if args.json:
        _emit({"hybrid": args.spec, "readbacks": encodings})
    else:
        for encoding in encodings:
            print(encoding)
    return 0


def _cmd_validate(args) -> int:
    report = validate(parse_spec(args.spec))
    if args.json:
        _emit({
            "spec": args.spec,
            "verdict": report.verdict,
            "diagnostics": [
                {"proviso": d.proviso, "message": d.message}
                for d in report.diagnostics
            ],
        })
    else:
        print(report.verdict)
        for diag in report.diagnostics:
            print(f"  {diag.proviso}: {diag.message}")
    return 1 if report.verdict in REJECTED else 0


def _cmd_catalogue(args) -> int:
    rows = catalogue()
    if args.json:
        _emit([
            {
                "alias": row.alias,
                "spec": print_spec(row.spec),
                "classification": row.classification,
                "result_form": row.result_form.value,
            }
            for row in rows
        ])
        return 0
    for row in rows:
        alias = row.alias or ""
        print(f"{alias:<8} {print_spec(row.spec):<12} "
              f"{row.classification:<18} {row.result_form.value}")
    return 0


def _cmd_corpus_gen(args) -> int:
    pool = tuple(p for p in (args.pool or "").split(",") if p)
    try:
        cfg = GenConfig(seed=args.seed, size_max=args.size_max,
                        free_var_pool=pool)
        terms = generate(cfg, args.n)
    except ValueError as exc:  # a negative count or an unfit size bound
        return _error(exc)
    if args.out:
        save_corpus(args.out, terms)
        if not args.json:
            print(f"wrote {len(terms)} terms to {args.out}")
        else:
            _emit({"n": len(terms), "out": args.out})
        return 0
    if args.json:
        _emit({"terms": [print_term(t) for t in terms]})
    else:
        for term in terms:
            print(print_term(term))
    return 0


def _cmd_corpus_run(args) -> int:
    terms = load_corpus(args.corpus)
    report = compare_corpus(parse_spec(args.a), parse_spec(args.b), terms,
                            fuel=args.fuel, seed=args.seed)
    payload = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        if args.json:
            _emit({"n": len(terms), "out": args.out})
        else:
            print(f"wrote report to {args.out}")
        return 0
    if args.json:
        _emit(payload)
        return 0
    print(f"{args.a} vs {args.b} on {len(terms)} terms (fuel {args.fuel})")
    for kind, count in sorted(payload["verdicts"].items()):
        print(f"  {kind}: {count}")
    if payload["counterexamples"]:
        print(f"  counterexamples kept: {len(payload['counterexamples'])}")
    return 0


def _cmd_demo_factorial(args) -> int:
    only = (args.strategy,) if args.strategy else None
    if args.n is None:
        rows = demo_factorial(fuel=args.fuel, strategies=only)
    elif args.n < 0:
        return _error(f"--n must be at least 0, got {args.n}")
    else:
        rows = demo_factorial((args.n,), args.fuel, strategies=only)
    if args.json:
        _emit([
            {**row, "result": _render_expected(row["result"]),
             "expected": _render_expected(row["expected"])}
            for row in rows
        ])
        return 0
    for row in rows:
        mark = {True: "ok", False: "MISMATCH", None: "inconclusive"}[row["ok"]]
        print(f"{row['strategy']:<4} n={row['n']}: {row['status']}, {mark}")
    return 0


def _render_expected(value):
    if value is None:
        return None
    if isinstance(value, FormClass):
        return value.value
    return print_term(value)


def _add_common(parser, *, fuel=True, strict=True):
    if fuel:
        parser.add_argument("--fuel", type=int, default=DEFAULT_FUEL,
                            help="contraction budget (default %(default)s)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    if strict:
        parser.add_argument("--strict-fuel", action="store_true",
                            help="exit 2 when the budget runs out")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lambdalab",
        description="Run, trace, and differentially test lambda calculus "
                    "reduction strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("eval", help="evaluate a term under a strategy")
    p.add_argument("-s", "--strategy", required=True)
    p.add_argument("term")
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("trace", help="show every contraction of a run")
    p.add_argument("-s", "--strategy", required=True)
    p.add_argument("term")
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("tree", help="show the big-step derivation")
    p.add_argument("-s", "--strategy", required=True)
    p.add_argument("term")
    _add_common(p)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("classify", help="name the form families of a term")
    p.add_argument("term")
    _add_common(p, fuel=False, strict=False)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("compare", help="grade two strategies on one term")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("term")
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fuse", help="fuse a readback encoding to its hybrid")
    p.add_argument("spec")
    _add_common(p, fuel=False, strict=False)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("defuse", help="readback encodings that fuse to a hybrid")
    p.add_argument("spec")
    _add_common(p, fuel=False, strict=False)
    p.set_defaults(func=_cmd_defuse)

    p = sub.add_parser("validate", help="check an encoding against the provisos")
    p.add_argument("spec")
    _add_common(p, fuel=False, strict=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("catalogue", help="list every named strategy")
    _add_common(p, fuel=False, strict=False)
    p.set_defaults(func=_cmd_catalogue)

    p = sub.add_parser("corpus-gen", help="generate a random term corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size-max", type=int, default=30)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--pool", default="",
                   help="comma-separated free variables (empty: closed terms)")
    p.add_argument("--out", help="write to a corpus file instead of stdout")
    _add_common(p, fuel=False, strict=False)
    p.set_defaults(func=_cmd_corpus_gen)

    p = sub.add_parser("corpus-run", help="compare two strategies over a corpus file")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("corpus")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="write the JSON report to a file")
    _add_common(p, strict=False)
    p.set_defaults(func=_cmd_corpus_run)

    p = sub.add_parser("demo-factorial", help="run the factorial strategy table")
    p.add_argument("-s", "--strategy", help="restrict to one table row")
    p.add_argument("--n", type=int, default=None,
                   help="single input instead of 0..4")
    p.add_argument("--fuel", type=int, default=DEFAULT_FACTORIAL_FUEL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_demo_factorial)

    return parser


def _error(exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2 if getattr(args, "strict_fuel", False) else 0
    except (ParseError, NotationError, EngineError, OSError) as exc:
        return _error(exc)


def entry() -> None:
    sys.exit(main())
