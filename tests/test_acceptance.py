"""Acceptance gate: the nine published claims, one test per criterion.

Each test reproduces one headline result at its stated tolerance: the
worked replay, the catalogue's result forms, the fusion table, the
fuse/defuse algebra, absorption, proviso verdicts, the non-equivalence
probes, the factorial table, and the engine's soundness properties.
"""

import math
import random
import time

import oracle
from lambdalab import (
    CONVERGED,
    GenConfig,
    HybridSpec,
    ReadbackSpec,
    UniformSpec,
    Var,
    alpha_eq,
    catalogue,
    check_absorption,
    check_fusion_row,
    churchN,
    classify,
    compare,
    defuse,
    derivation_forest,
    evaluate,
    demo_factorial,
    fuse,
    generate,
    parse_spec,
    parse_term,
    print_spec,
    print_term,
    reconstruct_sequence,
    validate,
)
from lambdalab.engine import sequence_from_tree
from lambdalab.lab import (
    BOTH_EXHAUSTED_EQUAL_PREFIX,
    BOTH_EXHAUSTED_MCR_PREFIX,
    DIFFER,
    EQUAL_MCR,
    INCONCLUSIVE,
    ONE_STEP_EQUAL,
    VIOLATED,
)
from lambdalab.terms import FormClass, ResourceLimitError

SWEEP_FUEL = 20000
SWEEP_MAX_NODES = 250000
FUSION_FUEL = 3000
# The readback rows that fuse flags mcr though the fusion step derives
# them exact.
DERIVED_EXACT = {"(RE)I.IIS", "(RE)I.ISS"}
ABSORPTION_FUEL = 5000


def test_criterion_1_worked_example_replay():
    term = parse_term("(\\x.#I z) (#I z)")
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        outcome = evaluate("bv", term)
        best = min(best, time.perf_counter() - start)
    assert outcome.status == CONVERGED
    assert outcome.result == Var("z")
    assert len(outcome.trace) == 3
    assert [print_term(e.contractum) for e in outcome.trace] == [
        "z", "(\\x.x) z", "z",
    ]
    [tree] = derivation_forest("bv", term)
    assert sequence_from_tree(tree) == outcome.trace
    assert alpha_eq(tree.output, outcome.result)
    assert best < 0.001


def test_criterion_2_catalogue_result_forms(corpus_1337):
    rows = [r for r in catalogue() if not isinstance(r.spec, ReadbackSpec)]
    assert len(rows) == 41
    violations = []
    capped = 0
    for row in rows:
        for idx, term in enumerate(corpus_1337):
            try:
                outcome = evaluate(row.spec, term, SWEEP_FUEL,
                                   record_trace=False,
                                   max_nodes=SWEEP_MAX_NODES)
            except ResourceLimitError:
                capped += 1
                continue
            if outcome.status != CONVERGED:
                continue
            if row.result_form not in classify(outcome.result):
                violations.append((print_spec(row.spec), idx))
    assert violations == []
    print(f"size-capped runs excluded: {capped}")


def test_criterion_3_fusion_table(corpus_1337, paper_terms):
    corpus = list(corpus_1337) + list(paper_terms.values())
    rows = [r for r in catalogue() if isinstance(r.spec, ReadbackSpec)]
    assert len(rows) == 22
    excluded = {}
    for row in rows:
        report = check_fusion_row(row.spec, corpus, FUSION_FUEL,
                                  max_nodes=SWEEP_MAX_NODES)
        assert report.counterexamples == [], print_spec(row.spec)
        allowed = {ONE_STEP_EQUAL, BOTH_EXHAUSTED_EQUAL_PREFIX,
                   INCONCLUSIVE, "resource"}
        if report.mcr:
            allowed |= {EQUAL_MCR, BOTH_EXHAUSTED_MCR_PREFIX}
        assert set(report.verdicts) <= allowed, print_spec(row.spec)
        if print_spec(row.spec) in DERIVED_EXACT:
            # Flagged mcr, but the fusion step needs no reordering here:
            # that takes ev.ar2 = S and rb.ar2 = R.
            assert not {EQUAL_MCR, BOTH_EXHAUSTED_MCR_PREFIX} & set(
                report.verdicts), print_spec(row.spec)
        skipped = (report.verdicts.get(INCONCLUSIVE, 0)
                   + report.verdicts.get("resource", 0))
        if skipped:
            excluded[print_spec(row.spec)] = skipped
    print(f"fuel/size-excluded comparisons per row: {excluded}")


def test_criterion_4_fuse_defuse_algebra():
    equations = {
        "(RE)(RE).III": "HIH<>III",
        "R(RE).SII": "HIH<>SII",
        "(RE)I.III": "HII<>III",
        "(RE)R.ISS": "HSH<>ISS",
        "(RE)I.ISS": "HSS<>ISS",
    }
    for source, hybrid in equations.items():
        assert print_spec(fuse(parse_spec(source)).hybrid) == hybrid
    rows = [r.spec for r in catalogue() if isinstance(r.spec, ReadbackSpec)]
    assert len(rows) == 22
    for spec in rows:
        assert spec in defuse(fuse(spec).hybrid), print_spec(spec)
    assert defuse(parse_spec("ha")) == frozenset()
    assert defuse(parse_spec("so")) == frozenset()


def test_criterion_5_absorption_suite(corpus_1337, paper_terms):
    for outer, inner in [("IIS", "bn"), ("he", "bn")]:
        report = check_absorption(outer, inner, corpus_1337, ABSORPTION_FUEL,
                                  max_nodes=SWEEP_MAX_NODES)
        assert report.verdicts.get(VIOLATED, 0) == 0, (outer, inner)
    negatives = [
        ("SIS", "he", "sis-counterexample"),
        ("SIS", "bn", "sis-counterexample"),
        ("SIS", "IIS", "sis-counterexample"),
        ("bv", "bn", "strictness-counterexample"),
        ("ao", "bn", "strictness-counterexample"),
        ("ao", "bn", "ao-counterexample"),
        ("bv", "ISI", "bv-counterexample"),
        ("ho", "ISI", "ho-counterexample"),
    ]
    for outer, inner, name in negatives:
        report = check_absorption(outer, inner, [paper_terms[name]],
                                  ABSORPTION_FUEL)
        assert report.verdicts.get(VIOLATED, 0) == 1, (outer, inner, name)


def test_criterion_6_proviso_validation():
    for text in ("HIH<>SIS", "HSI<>SSI", "IHH<>ISS", "HHI<>SSI"):
        assert validate(parse_spec(text)).verdict == "spurious", text
    assert validate(parse_spec("SIS<>SIS")).verdict == "degenerate-uniform"
    assert validate(parse_spec("II.III")).verdict == "invalid"
    for row in catalogue():
        verdict = validate(row.spec).verdict
        if isinstance(row.spec, UniformSpec):
            assert verdict == "valid-uniform", print_spec(row.spec)
        elif isinstance(row.spec, ReadbackSpec):
            assert verdict == "valid-readback", print_spec(row.spec)
        elif row.classification == "uniform":
            assert verdict == "degenerate-uniform", print_spec(row.spec)
        else:
            assert verdict == f"valid-{row.classification.replace(' ', '-')}", \
                print_spec(row.spec)


def test_criterion_7_non_equivalence_probes(paper_terms):
    # The first three pairs produce distinct results (or irreconcilable
    # exhausted prefixes) on their witnesses; the last pair converges to
    # one result by two incomparable traces, which still refutes
    # one-step equivalence, even modulo commuting redexes.
    differ_pairs = [
        ("no", "hr", "neutral-nested-redex"),
        ("no", "hn", "eta-fixpoint"),
        ("HIS<>III", "HIS<>IIS", "neutral-nested-redex"),
    ]
    for a, b, name in differ_pairs:
        kinds = {n: compare(a, b, t, ABSORPTION_FUEL).kind
                 for n, t in paper_terms.items()}
        assert kinds[name] == DIFFER, (a, b, name, kinds[name])
    verdict = compare("HSH<>ISI", "sn",
                      paper_terms["operator-neutral-redex"], ABSORPTION_FUEL)
    assert verdict.kind == "big-step-equal-only"


def test_criterion_8_factorial_table():
    rows = demo_factorial()
    assert len(rows) == 65
    assert all(row["ok"] for row in rows)
    full_reducing = {"no", "hn", "sn", "ha", "so", "bs"}
    partial = {"bn": FormClass.WHNF, "hr": FormClass.HNF,
               "he": FormClass.HNF, "bv": FormClass.WNF,
               "am": FormClass.VHNF, "ho": FormClass.HNF,
               "IIS": FormClass.WNF}
    assert full_reducing | set(partial) == {r["strategy"] for r in rows}
    for row in rows:
        if row["strategy"] in full_reducing:
            assert oracle.church_decode(row["result"]) \
                == math.factorial(row["n"])
            assert alpha_eq(row["result"], churchN(math.factorial(row["n"])))
        else:
            assert row["expected"] == partial[row["strategy"]]
            assert row["expected"] in classify(row["result"])


def test_criterion_9_engine_properties():
    rng = random.Random(2026)
    terms = generate(GenConfig(seed=2026, size_max=16), 2000)
    specs = [row.spec for row in catalogue()]
    violations = []
    for i, term in enumerate(terms):
        spec = specs[rng.randrange(len(specs))]
        first = evaluate(spec, term, 400)
        if first != evaluate(spec, term, 400):
            violations.append((i, "determinism"))
            continue
        states = reconstruct_sequence(term, first.trace)
        if len(states) != len(first.trace) + 1:
            violations.append((i, "replay-length"))
        for event in first.trace:
            want = oracle.beta(oracle.to_db(event.redex)[1][1],
                               oracle.to_db(event.redex.operand))
            if oracle.to_db(event.contractum) != want:
                violations.append((i, "contractum"))
                break
        if first.status != CONVERGED:
            continue
        if not alpha_eq(states[-1], first.result):
            violations.append((i, "replay"))
        more = evaluate(spec, term, 437)
        if (more.status != CONVERGED or more.fuel_used != first.fuel_used
                or not alpha_eq(more.result, first.result)
                or more.trace != first.trace):
            violations.append((i, "fuel-monotonicity"))
        forest = derivation_forest(spec, term, 400)
        if (sum(map(sequence_from_tree, forest), ()) != first.trace
                or not alpha_eq(forest[-1].output, first.result)):
            violations.append((i, "tree-coherence"))
    assert violations == []
