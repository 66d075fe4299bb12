"""Differential laboratory: compare ladder, absorption, fusion checks."""

import pytest
from hypothesis import given, settings, strategies as st

from lambdalab import (
    ABSORBED,
    BIG_STEP_EQUAL_ONLY,
    BOTH_EXHAUSTED_EQUAL_PREFIX,
    BOTH_EXHAUSTED_MCR_PREFIX,
    COMPARE_KINDS,
    DIFFER,
    EQUAL_MCR,
    INCONCLUSIVE,
    ONE_STEP_EQUAL,
    VIOLATED,
    FormClass,
    NotationError,
    ReadbackSpec,
    alpha_eq,
    canonicalize,
    catalogue,
    check_absorption,
    check_fusion_row,
    compare,
    compare_corpus,
    demo_factorial,
    evaluate,
    factorial_term,
    parse_term,
    reconstruct_sequence,
)
from lambdalab import lab
from lambdalab.lab import _trace_equivalent
from lambdalab.terms import _alpha_sig
from strategies import closed_terms

LADDER = [
    (ONE_STEP_EQUAL, "byValue", "sn", "x ((\\a.a) u1) ((\\b.b) v1)", 100),
    (EQUAL_MCR, "byValue", "sn", "x (\\y.(\\a.a) u1) ((\\b.b) v1)", 100),
    (BIG_STEP_EQUAL_ONLY, "ao", "no", "(\\x.x x) ((\\a.a) (\\b.b))", 100),
    (DIFFER, "no", "hr", "x (x ((\\a.a) u))", 1000),
    (INCONCLUSIVE, "bn", "bv", "(\\x.y) #Omega", 50),
    (BOTH_EXHAUSTED_EQUAL_PREFIX, "bn", "bn", "#Omega", 30),
    (BOTH_EXHAUSTED_MCR_PREFIX, "byValue", "sn", "x (\\y.(\\a.a) u1) #Omega", 60),
]


@pytest.mark.parametrize("kind,a,b,source,fuel", LADDER)
def test_compare_ladder(kind, a, b, source, fuel):
    assert kind in COMPARE_KINDS
    verdict = compare(a, b, parse_term(source), fuel=fuel)
    assert verdict.kind == kind


@pytest.mark.parametrize("kind,a,b,source,fuel", LADDER)
def test_compare_is_symmetric(kind, a, b, source, fuel):
    forward = compare(a, b, parse_term(source), fuel=fuel)
    backward = compare(b, a, parse_term(source), fuel=fuel)
    assert forward.kind == backward.kind


def test_differ_witness_points_at_first_conflict():
    verdict = compare("no", "hr", parse_term("x (x ((\\a.a) u))"))
    assert verdict.kind == DIFFER
    assert verdict.witness is not None
    step, (ea, eb) = verdict.witness
    assert step == 0
    assert ea is not None or eb is not None


def test_canonicalize_moves_disjoint_work_leftward():
    outcome = evaluate("byValue", "x (\\y.(\\a.a) u1) ((\\b.b) v1)")
    assert [tuple(e.position) for e in outcome.trace] == [("A",), ("F", "A", "B")]
    canon = canonicalize(outcome.trace)
    assert [tuple(e.position) for e in canon] == [("F", "A", "B"), ("A",)]
    assert sorted(canon, key=repr) == sorted(outcome.trace, key=repr)
    assert canonicalize(canon) == canon
    assert canonicalize(()) == ()


def test_canonical_equality_decides_trace_equivalence():
    # Canonical forms agree on the contraction sequence itself; step
    # indices stay verbatim, so project them away before comparing.
    def shape(trace):
        return [(tuple(e.position), e.redex, e.contractum) for e in trace]

    term = parse_term("x (\\y.(\\a.a) u1) ((\\b.b) v1)")
    ta = evaluate("byValue", term).trace
    tb = evaluate("sn", term).trace
    assert _trace_equivalent(ta, tb)
    assert shape(canonicalize(ta)) == shape(canonicalize(tb))
    tc = evaluate("bn", term).trace
    assert not _trace_equivalent(ta, tc)
    assert shape(canonicalize(ta)) != shape(canonicalize(tc))


@settings(max_examples=60)
@given(closed_terms(max_leaves=12))
def test_canonicalize_is_sound_on_real_traces(term):
    outcome = evaluate("no", term, fuel=120)
    trace = outcome.trace
    canon = canonicalize(trace)
    assert sorted(canon, key=repr) == sorted(trace, key=repr)
    assert canonicalize(canon) == canon
    assert _trace_equivalent(trace, canon)
    states = reconstruct_sequence(term, canon)
    if outcome.status == "converged":
        assert alpha_eq(states[-1], outcome.result)


SMALL_CORPUS = [parse_term(s) for s in (
    "(\\x.x) (\\y.y)",
    "(\\x.\\y.y x) (\\w.w) (\\v.v)",
    "(\\x.x x) (\\y.y)",
    "(\\f.f (f (\\x.x))) (\\g.g)",
    "(\\x.(\\y.x) x) (\\z.z)",
)]


def test_absorption_positive_rows():
    for outer, inner in [("IIS", "bn"), ("he", "bn")]:
        report = check_absorption(outer, inner, SMALL_CORPUS, fuel=5000)
        assert report.verdicts.get(VIOLATED, 0) == 0
        assert report.verdicts.get(ABSORBED, 0) == len(SMALL_CORPUS)
        assert report.counterexamples == []


def test_absorption_negative_rows():
    cases = [
        ("SIS", "he", "(\\k.k #Omega) (\\x.y)"),
        ("bv", "bn", "(\\x.y) #Omega"),
        ("ao", "bn", "(\\x.y) (\\k.k #Omega)"),
    ]
    for outer, inner, source in cases:
        report = check_absorption(outer, inner, [parse_term(source)], fuel=5000)
        assert report.verdicts.get(VIOLATED, 0) == 1, (outer, inner)
        assert len(report.counterexamples) == 1
        entry = report.counterexamples[0]
        assert entry["verdict"] == VIOLATED
        assert set(entry["witness"]) == {"composed", "alone"}


def test_absorption_counterexample_cap():
    terms = [parse_term("(\\x.y) #Omega")] * 4
    report = check_absorption("bv", "bn", terms, fuel=2000, cap=2)
    assert report.verdicts[VIOLATED] == 4
    assert len(report.counterexamples) == 2


def test_fusion_row_clean_on_small_corpus():
    cache = {}
    for row, mcr in [("byValue", True), ("(RE)I.III", False)]:
        report = check_fusion_row(row, SMALL_CORPUS, fuel=5000,
                                  stage1_cache=cache)
        assert report.mcr is mcr
        assert report.counterexamples == []
        allowed = {ONE_STEP_EQUAL, BOTH_EXHAUSTED_EQUAL_PREFIX, INCONCLUSIVE}
        if mcr:
            allowed |= {EQUAL_MCR, BOTH_EXHAUSTED_MCR_PREFIX}
        assert set(report.verdicts) <= allowed
        assert sum(report.verdicts.values()) == len(SMALL_CORPUS)
    assert cache
    again = check_fusion_row("byValue", SMALL_CORPUS, fuel=5000,
                             stage1_cache=cache)
    assert again.verdicts == check_fusion_row(
        "byValue", SMALL_CORPUS, fuel=5000).verdicts


def test_fusion_stage1_cache_respects_smaller_fuel():
    cache = {}
    check_fusion_row("byValue", SMALL_CORPUS, fuel=5000, stage1_cache=cache)
    warm = check_fusion_row("byValue", SMALL_CORPUS, fuel=1,
                            stage1_cache=cache)
    cold = check_fusion_row("byValue", SMALL_CORPUS, fuel=1)
    assert warm.to_json() == cold.to_json()


def test_fusion_stage1_cache_is_keyed_by_term():
    cache = {}
    check_fusion_row("(RE)I.III", SMALL_CORPUS[:1], fuel=5000,
                     stage1_cache=cache)
    other = [parse_term("(\\x.x x) \\y.y")]
    warm = check_fusion_row("(RE)I.III", other, fuel=5000, stage1_cache=cache)
    assert warm.verdicts == {ONE_STEP_EQUAL: 1}
    assert warm.counterexamples == []


def test_fusion_stage1_cache_under_smaller_max_nodes():
    term = [parse_term("(\\x.\\y.x) (\\z.z)")]
    cache = {}
    check_fusion_row("(RE)I.III", term, fuel=5000, stage1_cache=cache)
    warm = check_fusion_row("(RE)I.III", term, fuel=5000, max_nodes=0,
                            stage1_cache=cache)
    cold = check_fusion_row("(RE)I.III", term, fuel=5000, max_nodes=0)
    assert warm.to_json() == cold.to_json()


def _sig_eq(a, b):
    intern = {}
    return _alpha_sig(a, intern) is _alpha_sig(b, intern)


def test_redex_only_event_equality_matches_full_check(corpus_1337,
                                                      paper_terms,
                                                      monkeypatch):
    # Every event pair the fusion table compares is also judged by the
    # full definition: same address, alpha-equal redexes and contracta.
    fast = lab._events_equal
    compared = []

    def both(e, f):
        got = fast(e, f)
        full = (e.position == f.position and _sig_eq(e.redex, f.redex)
                and _sig_eq(e.contractum, f.contractum))
        compared.append((got, full))
        return got

    monkeypatch.setattr(lab, "_events_equal", both)
    corpus = list(paper_terms.values()) + list(corpus_1337[:100])
    rows = [r.spec for r in catalogue() if isinstance(r.spec, ReadbackSpec)]
    assert len(rows) == 22
    for row in rows:
        check_fusion_row(row, corpus, 3000, max_nodes=250000)
    assert all(got == full for got, full in compared)
    assert {got for got, _ in compared} == {True, False}


def test_fusion_row_rejects_invalid_readback():
    with pytest.raises(NotationError):
        check_fusion_row("II.III", SMALL_CORPUS)


def test_compare_corpus_aggregates_and_reports():
    corpus = SMALL_CORPUS + [parse_term("x (x ((\\a.a) u))")]
    report = compare_corpus("no", "hr", corpus, fuel=5000)
    assert sum(report.verdicts.values()) == len(corpus)
    assert report.verdicts.get(DIFFER, 0) >= 1
    assert report.counterexamples
    entry = report.counterexamples[0]
    assert set(entry) == {"term", "verdict", "witness"}
    assert entry["verdict"] == DIFFER
    blob = report.to_json()
    assert set(blob) == {"a", "b", "seed", "fuel", "n", "verdicts",
                         "counterexamples"}
    assert blob["n"] == len(corpus)


def test_compare_corpus_process_pool_matches_serial():
    corpus = SMALL_CORPUS + [parse_term("x (x ((\\a.a) u))"),
                             parse_term("(\\x.y) #Omega")]
    serial = compare_corpus("no", "hr", corpus, fuel=2000)
    pooled = compare_corpus("no", "hr", corpus, fuel=2000, processes=2)
    assert pooled.to_json() == serial.to_json()
    assert serial.counterexamples


def test_absorption_process_pool_matches_serial():
    corpus = SMALL_CORPUS + [parse_term("(\\x.y) #Omega"),
                             parse_term("(\\x.y) (\\k.k #Omega)")]
    serial = check_absorption("ao", "bn", corpus, fuel=2000)
    pooled = check_absorption("ao", "bn", corpus, fuel=2000, processes=2)
    assert pooled.to_json() == serial.to_json()
    assert serial.counterexamples


def test_factorial_term_group_routing():
    for alias, source in [("bn", "#Y #F_direct #church:2"),
                          ("bv", "#Z #F_thunkLambda #church:2 #I"),
                          ("ho", "#Y #F_delimcps #church:2 #I")]:
        assert alpha_eq(factorial_term(alias, 2), parse_term(source))


def test_demo_factorial_filter_and_rows():
    rows = demo_factorial(n_values=(0, 1), strategies=("bn", "bv", "no"))
    assert len(rows) == 6
    assert {r["strategy"] for r in rows} == {"bn", "bv", "no"}
    assert all(r["ok"] for r in rows)
    by_key = {(r["strategy"], r["n"]): r for r in rows}
    assert by_key[("bn", 1)]["expected"] == FormClass.WHNF
    assert alpha_eq(by_key[("no", 1)]["expected"], parse_term("#church:1"))


def test_demo_factorial_rejects_unknown_row():
    with pytest.raises(NotationError):
        demo_factorial(strategies=("bn", "zz"))
