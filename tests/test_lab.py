"""Differential laboratory: compare ladder, absorption, fusion checks."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lambdalab import (
    ABSORBED,
    BIG_STEP_EQUAL_ONLY,
    BOTH_EXHAUSTED_EQUAL_PREFIX,
    BOTH_EXHAUSTED_MCR_PREFIX,
    CONVERGED,
    DIFFER,
    EQUAL_MCR,
    FUEL_EXHAUSTED,
    INCONCLUSIVE,
    ONE_STEP_EQUAL,
    VIOLATED,
    EngineError,
    FormClass,
    FusionResult,
    NotationError,
    Outcome,
    ReadbackSpec,
    TraceEvent,
    alpha_eq,
    catalogue,
    check_absorption,
    check_fusion_row,
    compare,
    compare_corpus,
    demo_factorial,
    evaluate,
    factorial_term,
    paper_corpus,
    parse_spec,
    parse_term,
    print_term,
)
from lambdalab import lab
from lambdalab.lab import COMPARE_KINDS
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


def test_canonical_equality_decides_trace_equivalence():
    term = parse_term("x (\\y.(\\a.a) u1) ((\\b.b) v1)")
    ta = evaluate("byValue", term).trace
    tb = evaluate("sn", term).trace
    assert lab._match(ta, tb, False) == (0, None)
    assert lab._match(ta, ta, False) == (None, None)
    tc = evaluate("bn", term).trace
    assert lab._match(ta, tc, False)[1] is not None


_REDEXES = [parse_term(s) for s in ("(\\a.a) u", "(\\b.b) u", "(\\a.a) v")]
_CONTRACTA = [parse_term(s) for s in ("u", "u", "v")]
# Each redex's alpha class: the index of the first redex alpha-equal to it.
_CLASS = [next(j for j in range(3) if alpha_eq(_REDEXES[j], r))
          for r in _REDEXES]
_ADDRESSES = [()] + [(x,) for x in "FAB"] + [(x, y) for x in "FAB" for y in "FAB"]
_STEPS = st.lists(st.tuples(st.sampled_from(_ADDRESSES), st.integers(0, 2)),
                  max_size=6)


def _trace(steps):
    return tuple(TraceEvent(k, p, _REDEXES[r], _CONTRACTA[r])
                 for k, (p, r) in enumerate(steps))


def _disjoint(p, q):
    n = min(len(p), len(q))
    return p[:n] != q[:n]


def _commutes_to(sa, sb):
    """Brute force: can swaps of adjacent events at disjoint addresses
    turn sa into sb, alpha-equal redexes counting as the same?"""
    start = tuple((p, _CLASS[r]) for p, r in sa)
    goal = tuple((p, _CLASS[r]) for p, r in sb)
    seen, todo = {start}, [start]
    while todo:
        t = todo.pop()
        for j in range(len(t) - 1):
            if _disjoint(t[j][0], t[j + 1][0]):
                u = t[:j] + (t[j + 1], t[j]) + t[j + 2:]
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
    return goal in seen


def _draw_pair(data):
    sa = data.draw(_STEPS)
    if data.draw(st.booleans()):
        sb = data.draw(st.permutations(sa))
        if sb and data.draw(st.booleans()):
            j = data.draw(st.integers(0, len(sb) - 1))
            sb[j] = (sb[j][0], data.draw(st.integers(0, 2)))
    else:
        sb = data.draw(_STEPS)
    return sa, sb


@settings(max_examples=400)
@given(data=st.data())
def test_match_decides_commutation_like_brute_force(data):
    sa, sb = _draw_pair(data)
    ta, tb = _trace(sa), _trace(sb)
    result = parse_term("u")
    verdict = lab._compare_outcomes(Outcome(CONVERGED, result, ta, len(ta)),
                                    Outcome(CONVERGED, result, tb, len(tb)))
    equal = verdict.kind in (ONE_STEP_EQUAL, EQUAL_MCR)
    assert equal == _commutes_to(sa, sb)


@settings(max_examples=400)
@given(data=st.data())
def test_exhausted_differ_witness_is_ordered_a_then_b(data):
    sa, sb = _draw_pair(data)
    ta, tb = _trace(sa), _trace(sb)
    verdict = lab._compare_outcomes(Outcome(FUEL_EXHAUSTED, None, ta, len(ta)),
                                    Outcome(FUEL_EXHAUSTED, None, tb, len(tb)))
    # The exhausted grade reads one direction only; the other must agree.
    assert ((lab._match(ta, tb, True)[1] is None)
            == (lab._match(tb, ta, True)[1] is None))
    if verdict.kind == DIFFER:
        i, (ea, eb) = verdict.witness
        assert any(ea is e for e in ta)
        assert any(eb is f for f in tb)
        assert i == ea.step_index


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
    terms = [parse_term("(\\x.y) #Omega")] * 12
    report = check_absorption("bv", "bn", terms, fuel=2000)
    assert report.verdicts == {VIOLATED: 12}
    assert len(report.counterexamples) == 10


def test_compare_corpus_counterexample_cap():
    terms = [parse_term("x (x ((\\a.a) u))")] * 12
    report = compare_corpus("no", "hr", terms, fuel=1000)
    assert report.verdicts == {DIFFER: 12}
    assert len(report.counterexamples) == 10


def test_fusion_row_clean_on_small_corpus():
    for row, mcr in [("byValue", True), ("(RE)I.III", False)]:
        report = check_fusion_row(row, SMALL_CORPUS, fuel=5000)
        assert report.mcr is mcr
        assert report.counterexamples == []
        allowed = {ONE_STEP_EQUAL, BOTH_EXHAUSTED_EQUAL_PREFIX, INCONCLUSIVE}
        if mcr:
            allowed |= {EQUAL_MCR, BOTH_EXHAUSTED_MCR_PREFIX}
        assert set(report.verdicts) <= allowed
        assert sum(report.verdicts.values()) == len(SMALL_CORPUS)


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


def _event(position, redex):
    redex = parse_term(redex)
    return TraceEvent(0, position, redex, evaluate("bn", redex, 1).result)


@pytest.mark.parametrize("e, f, equal", [
    pytest.param(_event(("A",), "(\\a.a) u"), _event(("A",), "(\\a.a) v"),
                 False, id="different-redexes"),
    pytest.param(_event(("A",), "(\\a.a) u"), _event(("A",), "(\\b.b) u"),
                 True, id="alpha-renamed-redexes"),
    pytest.param(_event(("A",), "(\\a.a) u"), _event(("F",), "(\\a.a) u"),
                 False, id="different-addresses"),
])
def test_events_equal_compares_address_and_redex(e, f, equal):
    assert lab._events_equal(e, f) is equal
    assert lab._events_equal(f, e) is equal


_WRONG_FUSION_TERMS = [t for _, t in paper_corpus()]
_THREE_OPERANDS = "x (\\x.(\\a.a) u1) ((\\a.a) u2) ((\\a.a) u3)"


def _wrongly_fused(monkeypatch, hybrid):
    """(RE)R.ISS checked against hybrid, with no mcr flag, in place of
    its fused HSH<>ISS."""
    monkeypatch.setattr(
        lab, "fuse", lambda spec: FusionResult(parse_spec(hybrid), False))
    return check_fusion_row("(RE)R.ISS", _WRONG_FUSION_TERMS, 3000)


def _examples(report):
    return [(c["term"], c["verdict"],
             None if c["witness"] is None else c["witness"]["step"])
            for c in report.counterexamples]


def test_a_wrong_fusion_reports_its_counterexamples(monkeypatch):
    report = _wrongly_fused(monkeypatch, "HSS<>ISS")
    assert report.verdicts == {BOTH_EXHAUSTED_EQUAL_PREFIX: 5,
                               ONE_STEP_EQUAL: 7, DIFFER: 1}
    assert _examples(report) == [(_THREE_OPERANDS, DIFFER, 2)]
    # Without the mcr flag a reordering is a failure too.
    report = _wrongly_fused(monkeypatch, "SSH<>ISS")
    assert report.verdicts == {BOTH_EXHAUSTED_EQUAL_PREFIX: 5,
                               ONE_STEP_EQUAL: 7, EQUAL_MCR: 1}
    assert _examples(report) == [(_THREE_OPERANDS, EQUAL_MCR, None)]
    report = _wrongly_fused(monkeypatch, "HSI<>ISI")
    violated = "hybrid-absorb-eval-violated"
    assert _examples(report) == [
        (_THREE_OPERANDS, violated, 0),
        ("(\\x.x x) (x ((\\a.a) u)) \\w.w", violated, 0),
        ("x (x ((\\a.a) u))", violated, 0),
    ]


def test_a_failing_eval_stage_reports_idempotence(monkeypatch):
    # The eval stage run again on its own result comes back exhausted.
    ev = parse_spec("(RE)R.ISS").ev
    then = lab._then

    def broken(spec, first, fuel, max_nodes):
        if spec == ev:
            return Outcome(FUEL_EXHAUSTED, None, None, fuel)
        return then(spec, first, fuel, max_nodes)

    monkeypatch.setattr(lab, "_then", broken)
    report = check_fusion_row("(RE)R.ISS", _WRONG_FUSION_TERMS, 3000)
    assert report.verdicts == {BOTH_EXHAUSTED_EQUAL_PREFIX: 5,
                               ONE_STEP_EQUAL: 7, EQUAL_MCR: 1}
    staged = [print_term(t) for t in _WRONG_FUSION_TERMS
              if evaluate("(RE)R.ISS", t, 3000).stage is not None]
    assert len(staged) == 8
    assert _examples(report) == [
        (t, "eval-idempotence-violated", None) for t in staged]


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


@pytest.mark.parametrize("driver", [
    lambda terms: compare_corpus("no", "bn", terms, 1000, max_nodes=50),
    lambda terms: check_absorption("no", "bn", terms, 1000, max_nodes=50),
    lambda terms: check_fusion_row("byValue", terms, 1000, max_nodes=50),
], ids=["compare_corpus", "check_absorption", "check_fusion_row"])
def test_node_limit_gives_the_resource_verdict(driver):
    report = driver([parse_term("(\\x.x x x) (\\x.x x x)")])
    assert report.verdicts == {"resource": 1}
    assert report.counterexamples == []


@pytest.mark.parametrize("max_nodes", [None, "5", -1])
@pytest.mark.parametrize("driver", [compare_corpus, check_absorption,
                                    check_fusion_row])
def test_a_bad_max_nodes_is_refused_not_counted_as_resource(driver, max_nodes):
    specs = ("byValue",) if driver is check_fusion_row else ("no", "bn")
    with pytest.raises(EngineError, match="^max_nodes must be a "
                       "nonnegative integer, got "):
        driver(*specs, [parse_term("(\\x.x x) (\\y.y)")],
               max_nodes=max_nodes)


DRIVERS = {
    "compare_corpus": lambda terms: compare_corpus("no", "hr", terms, fuel=300),
    "check_absorption": lambda terms: check_absorption(
        "ao", "bn", terms, fuel=300),
    "check_fusion_row": lambda terms: check_fusion_row(
        "byValue", terms, fuel=300),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@settings(max_examples=25)
@given(data=st.data())
def test_verdicts_ignore_corpus_order_and_chunking(driver, data):
    run = DRIVERS[driver]
    terms = data.draw(st.lists(closed_terms(8), min_size=1, max_size=8))
    whole = run(terms).verdicts
    shuffled = data.draw(st.permutations(terms))
    assert run(shuffled).verdicts == whole
    cut = data.draw(st.integers(0, len(terms)))
    chunks = Counter(run(terms[:cut]).verdicts)
    chunks.update(run(terms[cut:]).verdicts)
    assert dict(chunks) == whole


def test_factorial_term_group_routing():
    programs = {
        "#Y #F_direct #church:2": ("bn", "IIS", "hr", "he", "no", "hn",
                                   "not-a-row"),
        "#Z #F_thunkLambda #church:2 #I": ("bv", "am", "sn", "ha"),
        "#Y #F_delimcps #church:2 #I": ("ho", "so", "bs"),
    }
    for source, names in programs.items():
        for name in names:
            assert alpha_eq(factorial_term(name, 2), parse_term(source)), name
    table = [r["strategy"] for r in demo_factorial(n_values=(0,), fuel=0)]
    assert len(table) == 13
    assert set(table) | {"not-a-row"} == {n for ns in programs.values()
                                          for n in ns}
    assert lab.FULL_REDUCING == ("no", "hn", "sn", "ha", "so", "bs")


def test_demo_factorial_filter_and_rows():
    rows = demo_factorial(n_values=(0, 1), strategies=("bn", "bv", "no"))
    assert len(rows) == 6
    assert {r["strategy"] for r in rows} == {"bn", "bv", "no"}
    assert all(r["ok"] for r in rows)
    by_key = {(r["strategy"], r["n"]): r for r in rows}
    assert by_key[("bn", 1)]["expected"] == FormClass.WHNF
    assert alpha_eq(by_key[("no", 1)]["expected"], parse_term("#church:1"))


def test_demo_factorial_marks_unconverged_rows_inconclusive():
    rows = demo_factorial(n_values=(2, 3), fuel=40, strategies=("no",))
    assert [r["status"] for r in rows] == [FUEL_EXHAUSTED, FUEL_EXHAUSTED]
    assert [r["ok"] for r in rows] == [None, None]
    assert [r["result"] for r in rows] == [None, None]


def test_demo_factorial_rejects_unknown_row():
    with pytest.raises(NotationError):
        demo_factorial(strategies=("bn", "zz"))


def test_demo_factorial_default_fuel_finishes_the_n6_rows():
    # no and hn are the table's costliest rows at n = 6 (218,878
    # contractions each); the default budget must cover them.
    [row] = demo_factorial(n_values=(6,), strategies=("no",))
    assert row["status"] == CONVERGED
    assert row["ok"] is True
