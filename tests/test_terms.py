"""Term algebra: parsing, printing, substitution, classification."""

import contextlib
import gc
import inspect
import re
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given

import oracle
from strategies import NAMES, close_term, contractions, copy_term, terms

from lambdalab import (
    App,
    FormClass,
    GenConfig,
    Lam,
    ParseError,
    ResourceLimitError,
    Var,
    alpha_eq,
    catalogue,
    classify,
    evaluate,
    factorial_term,
    generate,
    paper_corpus,
    parse_term,
    print_term,
)
from lambdalab import engine
from lambdalab import terms as terms_module
from lambdalab.terms import (builtins, churchN, free_vars, fresh_var,
                             substitute)


def test_parse_identity():
    assert parse_term("\\x.x") == Lam("x", Var("x"))


def test_parse_omega_is_closed():
    omega = parse_term("(\\x.x x)(\\x.x x)")
    assert omega == App(Lam("x", App(Var("x"), Var("x"))),
                        Lam("x", App(Var("x"), Var("x"))))
    assert free_vars(omega) == frozenset()


def test_parse_application_associates_left():
    assert parse_term("x y z") == App(App(Var("x"), Var("y")), Var("z"))


def test_parse_accepts_lambda_glyph_and_multi_binders():
    assert parse_term("λx.x") == Lam("x", Var("x"))
    assert parse_term("\\x y.x") == Lam("x", Lam("y", Var("x")))
    assert parse_term("x' y_2") == App(Var("x'"), Var("y_2"))


def test_parse_comments_and_church_builtin():
    assert parse_term("x -- the rest is ignored") == Var("x")
    assert alpha_eq(parse_term("#church:3"), churchN(3))


@pytest.mark.parametrize("text", ["#church:1000001", "#church:" + "9" * 5000,
                                  "#church:0" + "1" * 7,
                                  "#church:600000 #church:600000"],
                         ids=["one-above", "5000-digits", "leading-zero",
                              "sum-above"])
def test_parse_refuses_a_church_numeral_above_the_node_limit(text, monkeypatch):
    # Refused before int() (which refuses 4,300 digits) and before any
    # numeral is built; the bound holds for the sum over one term.
    monkeypatch.setattr(terms_module, "churchN",
                        lambda n: pytest.fail(f"built #church:{n}"))
    with pytest.raises(ParseError, match="above 1,000,000"):
        parse_term(text)


def test_parse_builds_a_church_numeral_up_to_the_node_limit(monkeypatch):
    built = []
    monkeypatch.setattr(terms_module, "churchN", lambda n: built.append(n) or Var("n"))
    parse_term("#church:1000000")
    parse_term("#church:0001000000 #church:000")
    parse_term("#church:999999 (#church:1)")
    assert built == [1000000, 1000000, 0, 999999, 1]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_church_numerals_are_built_with_the_collector_paused(enabled,
                                                             monkeypatch):
    seen = []
    app = terms_module.App
    monkeypatch.setattr(terms_module, "App",
                        lambda f, a: seen.append(gc.isenabled()) or app(f, a))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        numerals = [churchN(n) for n in (0, 1, 3)]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 4
    assert numerals == [parse_term("\\s.\\z.z"), parse_term("\\s.\\z.s z"),
                        parse_term("\\s.\\z.s (s (s z))")]


@pytest.mark.parametrize("bad", ["(((", "\\.x", ")", "", "\\x", "x )"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_term(bad)


def test_parse_error_reports_offset():
    with pytest.raises(ParseError, match="offset"):
        parse_term("x ? y")


def test_parse_unknown_builtin_lists_the_known_ones():
    with pytest.raises(ParseError) as exc:
        parse_term("x #Nope")
    known = ", ".join(sorted(builtins()) + ["church:<n>"])
    assert str(exc.value) == f"unknown builtin #Nope at offset 2; known: {known}"


def test_print_identity():
    assert print_term(Lam("x", Var("x"))) == "\\x.x"


def test_print_flat_application():
    assert print_term(App(App(Var("x"), Var("y")), Var("z"))) == "x y z"


def test_print_parenthesizes_right_operand():
    assert print_term(App(Var("x"), App(Var("y"), Var("z")))) == "x (y z)"


def test_print_parse_roundtrip_on_corpus():
    cfg = GenConfig(seed=11, size_max=25, free_var_pool=("x", "y", "u"))
    for t in generate(cfg, 500):
        again = parse_term(print_term(t))
        assert oracle.db_eq(again, t)


def test_free_vars_examples():
    assert free_vars(parse_term("\\x.x y")) == frozenset({"y"})
    assert free_vars(Var("x")) == frozenset({"x"})
    assert free_vars(parse_term("#Omega")) == frozenset()


def test_substitute_variable_hit():
    assert substitute(Var("z"), "x", Var("x")) == Var("z")


def test_substitute_leaves_closed_body_alone():
    body = parse_term("#I z")
    assert alpha_eq(substitute(Var("z"), "x", body), body)


def test_substitute_renames_capturing_binder():
    # Pushing a free x under a binder named x must rename the binder.
    got = substitute(Var("x"), "z", Lam("x", Var("z")))
    assert alpha_eq(got, Lam("x1", Var("x")))
    assert not alpha_eq(got, parse_term("\\x.x"))
    assert free_vars(got) == frozenset({"x"})


def test_fresh_var_scheme():
    assert fresh_var({"x", "x1"}, "x") == "x2"
    assert fresh_var(set(), "y") == "y1"
    assert fresh_var({"y5"}, "y") == "y6"


def test_alpha_eq_examples():
    assert alpha_eq(parse_term("\\x.x"), parse_term("\\y.y"))
    assert not alpha_eq(parse_term("\\x.y"), parse_term("\\y.y"))
    assert alpha_eq(parse_term("\\x.\\y.x y"), parse_term("\\a.\\b.a b"))


def _numeral(n, f, x, innermost):
    body = Var(innermost)
    for _ in range(n):
        body = App(Var(f), body)
    return Lam(f, Lam(x, body))


@pytest.mark.parametrize("innermost, equal", [("y", True), ("g", False)])
def test_alpha_eq_is_flat_and_linear_on_deep_terms(innermost, equal):
    # Signatures are interned as ints, so nothing hashes a nested tuple:
    # a 50,000-deep numeral once took minutes, and a million-deep one
    # overflowed the C stack in hash().
    a = _numeral(50_000, "f", "x", "x")
    b = _numeral(50_000, "g", "y", innermost)
    start = time.perf_counter()
    assert alpha_eq(a, b) is equal
    assert time.perf_counter() - start < 2.0


def test_classify_examples():
    assert classify(parse_term("\\x.#Omega")) == {
        FormClass.WNF, FormClass.WHNF,
    }
    assert classify(parse_term("x (\\y.#Omega)")) == {
        FormClass.NEUTRAL, FormClass.WNF, FormClass.WHNF,
        FormClass.HNF, FormClass.VHNF,
    }
    assert classify(parse_term("\\x.x")) == {
        FormClass.NF, FormClass.WNF, FormClass.HNF,
        FormClass.WHNF, FormClass.VHNF,
    }


def test_classify_shape_flags():
    assert FormClass.REDEX in classify(parse_term("(\\x.x) y"))
    assert FormClass.NEUTRAL in classify(parse_term("x y"))
    assert FormClass.NEUTRAL not in classify(parse_term("(\\x.x) y"))


def test_builtin_fixed_point_combinator():
    assert alpha_eq(builtins()["Y"],
                    parse_term("\\f.(\\x.f (x x)) (\\x.f (x x))"))


def test_builtin_church_two():
    assert alpha_eq(churchN(2), parse_term("\\f.\\x.f (f x)"))


def test_builtin_factorial_body():
    want = parse_term("\\f.\\n.#Cond (#IsZero n) #One (#Mult n (f (#Pred n)))")
    assert alpha_eq(builtins()["F_direct"], want)


def test_church_arithmetic_against_oracle():
    b = builtins()
    six = oracle.normalize(App(App(b["Mult"], churchN(2)), churchN(3)))
    assert oracle.church_decode(six) == 6
    assert alpha_eq(oracle.normalize(App(b["IsZero"], churchN(0))), b["True"])
    assert alpha_eq(oracle.normalize(App(b["IsZero"], churchN(2))), b["False"])
    two = oracle.normalize(App(b["Pred"], churchN(3)))
    assert oracle.church_decode(two) == 2
    picked = oracle.normalize(
        App(App(App(b["Cond"], b["True"]), Var("a")), Var("b"))
    )
    assert picked == Var("a")


def test_strict_fixed_point_combinator_against_oracle():
    b = builtins()
    term = App(App(App(b["Z"], b["F_thunkLambda"]), churchN(3)), b["I"])
    assert oracle.church_decode(oracle.normalize(term)) == 6


@given(terms())
def test_classify_lattice(t):
    forms = classify(t)
    if FormClass.NF in forms:
        assert FormClass.HNF in forms and FormClass.WNF in forms
    if FormClass.HNF in forms or FormClass.WNF in forms:
        assert FormClass.WHNF in forms
    assert (FormClass.VHNF in forms) == (
        FormClass.WNF in forms and FormClass.HNF in forms
    )


def _families_by_definition(t):
    """classify's answer read off the definitions, with every node
    walked: no node's redex-free height is read."""
    nf, wnf = {}, {}
    stack = [(t, False)]
    while stack:
        node, done = stack.pop()
        key = id(node)
        if key in nf:
            continue
        if type(node) is Var:
            nf[key] = wnf[key] = True
        elif not done:
            stack.append((node, True))
            stack += [(child, False) for child in (
                (node.body,) if type(node) is Lam
                else (node.operator, node.operand))]
        elif type(node) is Lam:
            nf[key], wnf[key] = nf[id(node.body)], True
        else:
            redex = type(node.operator) is Lam
            parts = (id(node.operator), id(node.operand))
            nf[key] = not redex and all(nf[p] for p in parts)
            wnf[key] = not redex and all(wnf[p] for p in parts)
    body = t
    while type(body) is Lam:
        body = body.body
    head, inner_head = t, body
    while type(head) is App:
        head = head.operator
    while type(inner_head) is App:
        inner_head = inner_head.operator
    shapes = {
        FormClass.NF: nf[id(t)],
        FormClass.WNF: wnf[id(t)],
        FormClass.HNF: type(inner_head) is Var,
        FormClass.WHNF: type(t) is Lam or type(head) is Var,
        FormClass.NEUTRAL: type(t) is App and type(head) is Var,
        FormClass.REDEX: type(t) is App and type(t.operator) is Lam,
    }
    shapes[FormClass.VHNF] = shapes[FormClass.WNF] and shapes[FormClass.HNF]
    return {form for form, holds in shapes.items() if holds}


def _with_results(named_terms):
    """The terms, and their converged results under no, bn and bv."""
    out = list(named_terms)
    for spec in ("no", "bn", "bv"):
        for t in named_terms:
            try:
                outcome = evaluate(spec, t, 1000, record_trace=False,
                                   max_nodes=20000)
            except ResourceLimitError:
                continue
            if outcome.result is not None:
                out.append(outcome.result)
    return out


@given(terms())
def test_classify_matches_the_full_walk(t):
    assert classify(t) == _families_by_definition(t)
    for result in _with_results([t])[1:]:
        assert classify(result) == _families_by_definition(result)


def test_classify_matches_the_full_walk_on_the_corpora(corpus_1337,
                                                       paper_terms):
    checked = _with_results(list(corpus_1337) + list(paper_terms.values()))
    assert len(checked) > 3000
    families = {}
    for t in checked:
        got = classify(t)
        assert got == _families_by_definition(t), print_term(t)
        families[frozenset(got)] = families.get(frozenset(got), 0) + 1
    # The walk's shortcut and its full descent both run: some checked
    # terms hold a redex under a binder, or under a neutral's operand.
    assert any(FormClass.NF not in f and FormClass.WNF in f
               for f in families)
    assert any(FormClass.NF not in f and FormClass.HNF in f
               for f in families)
    # classify hands out a set of its own.
    first = classify(checked[0])
    first.clear()
    assert classify(checked[0]) == _families_by_definition(checked[0])


@given(terms())
def test_classify_nf_matches_oracle(t):
    assert (FormClass.NF in classify(t)) == (
        oracle.step_normal(oracle.to_db(t)) is None
    )


@given(terms())
def test_classify_whnf_matches_oracle(t):
    assert (FormClass.WHNF in classify(t)) == (
        oracle.step_weak_head(oracle.to_db(t)) is None
    )


# substitute recurses for terms_module._RECURSION_DEPTH levels and walks
# the rest of a subterm on an explicit stack; free_vars walks nothing, as
# every node gets its set when it is made. At 0 every walk is the stack
# loop; at 2 hypothesis terms cross from one walk to the other, renames
# included.
DEFAULT_DEPTH = terms_module._RECURSION_DEPTH
HANDOFF_DEPTHS = pytest.mark.parametrize("depth", [DEFAULT_DEPTH, 0, 2],
                                         ids=["default", "0", "2"])


@contextlib.contextmanager
def at_depth(depth):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(terms_module, "_RECURSION_DEPTH", depth)
        yield


@HANDOFF_DEPTHS
@given(st.sampled_from(NAMES), terms(), terms())
def test_substitute_matches_oracle_beta(depth, x, body, operand):
    with at_depth(depth):
        mine = substitute(operand, x, body)
    lam = oracle.to_db(Lam(x, body))
    assert oracle.to_db(mine) == oracle.beta(lam[1], oracle.to_db(operand))


@HANDOFF_DEPTHS
@given(st.sampled_from(NAMES), terms(), terms())
def test_substitute_free_vars_bound(depth, x, body, operand):
    with at_depth(depth):
        got = free_vars(substitute(operand, x, body))
    bound = (free_vars(body) - {x}) | free_vars(operand)
    if x in free_vars(body):
        assert got == bound
    else:
        assert got == free_vars(body)


def replay(call, depth):
    """One recorded engine call of substitute at depth: its result, the
    nodes it allocated, and the free variables of the result."""
    operand, var, body = call
    with at_depth(depth):
        alloc = [10**9]
        out = substitute(operand, var, body, alloc)
        return out, 10**9 - alloc[0], free_vars(out)


def one_short_raises(call, spent, depth):
    operand, var, body = call
    with at_depth(depth), pytest.raises(ResourceLimitError):
        substitute(operand, var, body, [spent - 1])


@pytest.mark.parametrize("run", ["SSI on corpus term 527",
                                 "SIS on corpus term 527", "sn", "hn"])
def test_recursion_and_stack_loop_agree_on_engine_calls(run, corpus_1337,
                                                        monkeypatch):
    # Term 527 grows until SSI and SIS hit sweep's max_nodes cap. Most
    # of SSI's calls hand off to the stack loop; SIS builds every node
    # by recursion. Both rename stacks of shadowing binders, whose fresh
    # names the recursion keeps and the stack loop draws anew; factorial
    # never hands off. Only hn's bodies share subterms that the memo
    # must walk once. Equal allocation counts and sharing (the blackhole
    # compares it with _same_dag) mean the default walk is the stack
    # loop's twin.
    calls = []
    real = engine.substitute

    def spy(operand, var, body, alloc=None):
        calls.append((operand, var, body))
        return real(operand, var, body, alloc)

    monkeypatch.setattr(engine, "substitute", spy)
    if run in ("sn", "hn"):
        assert evaluate(run, factorial_term(run, 4), 250_000,
                        record_trace=False).status == "converged"
    else:
        with pytest.raises(ResourceLimitError):
            evaluate(run.split()[0], corpus_1337[527], 20_000,
                     record_trace=False, max_nodes=250_000)
    assert len(calls) > 1000
    for call in calls:
        fast, spent, fv = replay(call, DEFAULT_DEPTH)
        slow, spent_slow, fv_slow = replay(call, 0)
        assert spent == spent_slow
        assert engine._same_dag(fast, slow)
        assert fv == fv_slow
        if spent:
            one_short_raises(call, spent, DEFAULT_DEPTH)
            one_short_raises(call, spent, 0)


DEEP = 10_000


def deep_spine():
    """x y y ... y, DEEP applications deep, fresh with every call."""
    t = Var("x")
    for _ in range(DEEP):
        t = App(t, Var("y"))
    return t


def deep_binders():
    """\\y.\\y. ... \\y.x y under DEEP binders, fresh with every call."""
    t = App(Var("x"), Var("y"))
    for _ in range(DEEP):
        t = Lam("y", t)
    return t


def deep_rename_at_the_hand_off():
    """(\\y.x (y (y ... y))) w ... w: the binder sits where substitute
    hands off, and renaming it copies a spine DEEP levels deep, whose
    free variables are then walked from there."""
    t = Var("y")
    for _ in range(DEEP):
        t = App(Var("y"), t)
    t = Lam("y", App(Var("x"), t))
    for _ in range(DEFAULT_DEPTH - 1):
        t = App(t, Var("w"))
    return t


def deep_renamed_chains():
    """(\\y.\\y.\\y.(...) x) x, chains of three binders \\y alternating
    with application levels, DEEP levels deep, fresh with every call:
    [y/x] renames every binder, all to one fresh name."""
    t = Var("x")
    for _ in range(DEEP // 4):
        t = App(Lam("y", Lam("y", Lam("y", t))), Var("x"))
    return t


DEEP_TERMS = pytest.mark.parametrize(
    "build", [deep_spine, deep_binders, deep_rename_at_the_hand_off,
              deep_renamed_chains])


@DEEP_TERMS
def test_deep_terms_hand_off_to_the_stack_loop(build):
    # [y/x] renames every binder of the last three. substitute, the one
    # walk that recurses, must stay well under half of the default limit
    # of 1000 frames.
    here = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(here + 450)
    try:
        got = substitute(Var("y"), "x", build())
        fv = free_vars(got)
    finally:
        sys.setrecursionlimit(limit)
    with at_depth(0):
        want = substitute(Var("y"), "x", build())
        assert free_vars(want) == fv
    assert got == want
    assert fv == free_vars(build()) - {"x"} | {"y"}


def sibling_renames(count=60):
    """[p/x] over count sibling binders \\p, each over one shared DAG
    and a part of its own, all holding x and p: every binder is renamed,
    and each renamed copy is garbage once its sibling is done, unless
    the call keeps its rename table."""
    x, p = Var("x"), Var("p")
    leaf = App(x, p)
    shared = App(leaf, App(leaf, leaf))
    spine = None
    for i in range(count):
        own = App(p, x)
        for _ in range(i % 5):
            own = App(own, Lam("z", App(x, App(Var("z"), p))))
        sibling = Lam("p", App(shared, own))
        spine = sibling if spine is None else App(spine, sibling)
    return p, "x", spine


@HANDOFF_DEPTHS
def test_rename_tables_live_for_the_whole_call(depth):
    # Once a renamed copy dies, a node built later in the call can take
    # its id; a table of [p/x] still holding that id would hand back the
    # dead copy's result for an unrelated node.
    call = sibling_renames()
    operand, var, body = call
    out, spent, _ = replay(call, depth)
    lam = oracle.to_db(Lam(var, body))
    assert oracle.to_db(out) == oracle.beta(lam[1], oracle.to_db(operand))
    slow, spent_slow, _ = replay(call, 0)
    assert spent == spent_slow
    assert engine._same_dag(out, slow)


def stack_binders(params, body):
    for p in reversed(params):
        body = Lam(p, body)
    return body


@st.composite
def binder_stacks(draw):
    """[operand/x] over a body whose abstractions come in stacks of
    binders named after the operand's free variables, or q9, which is
    not free in the operand and whose number moves a fresh name's
    suffix; some stacks sit over a subterm that the body also holds
    elsewhere, so the memo may answer it."""
    operand = draw(terms(6).filter(lambda t: free_vars(t) - {"x"}))
    names = sorted(free_vars(operand) - {"x"}) + ["q9"]
    binders = st.sampled_from(names)

    def grow(inner):
        stacks = st.tuples(st.lists(binders, min_size=2, max_size=4),
                           inner).map(lambda c: stack_binders(*c))
        apps = st.tuples(inner, inner).map(lambda p: App(*p))
        shared = st.tuples(binders, inner).map(
            lambda p: App(p[1], Lam(p[0], p[1])))
        return stacks | apps | shared

    leaves = (st.just("x") | st.sampled_from(names)).map(Var)
    return operand, "x", draw(st.recursive(leaves, grow, max_leaves=20))


@HANDOFF_DEPTHS
@given(binder_stacks())
def test_stacks_of_renamed_binders_match_the_stack_loop(depth, call):
    out, spent, fv = replay(call, depth)
    slow, spent_slow, fv_slow = replay(call, 0)
    assert spent == spent_slow
    assert engine._same_dag(out, slow)
    assert fv == fv_slow
    for node in nodes(out):
        assert free_vars(node) == db_free(oracle.to_db(node))
    operand, var, body = call
    lam = oracle.to_db(Lam(var, body))
    assert oracle.to_db(out) == oracle.beta(lam[1], oracle.to_db(operand))


@HANDOFF_DEPTHS
def test_a_renamed_binder_over_a_node_in_the_memo_shares_it(depth):
    # Both \a.v are one node. The operator's walk puts it in the memo
    # before the walk under the operand's \a reaches it, which shares
    # its result and does not charge for it again.
    lam = parse_term(r"\a.v")
    out, spent, _ = replay((Var("a"), "v", App(lam, Lam("a", lam))), depth)
    assert print_term(out) == r"(\a1.a) \a1.\a1.a"
    assert spent == 3
    assert out.operand.body is out.operator


@HANDOFF_DEPTHS
def test_a_fresh_name_is_drawn_again_when_the_body_s_free_variables_change(
        depth):
    # The two \p have one name, but q9 is free under the second and not
    # under the first, so the second draws a fresh name of its own.
    out, spent, _ = replay((Var("p"), "v", parse_term(r"\p.\q9.\p.v q9")),
                           depth)
    assert print_term(out) == r"\p1.\q9.\p10.p q9"
    assert spent == 4


@HANDOFF_DEPTHS
def test_a_fresh_name_is_drawn_again_for_another_binder(depth):
    # Both bodies are v, one free-variable set, but the binders differ.
    out, spent, _ = replay((parse_term("p q"), "v",
                            parse_term(r"(\p.v) \q.v")), depth)
    assert print_term(out) == r"(\p1.p q) \q1.p q"
    assert spent == 3


@HANDOFF_DEPTHS
def test_fresh_names_are_drawn_anew_in_each_call(depth):
    # Both bodies are v, one free-variable set shared by every Var("v"),
    # but p1 is free in the second operand: a name kept from the first
    # call would capture it.
    body = parse_term(r"\p.v")
    first, _, _ = replay((Var("p"), "v", body), depth)
    second, _, _ = replay((parse_term("p p1"), "v", body), depth)
    assert print_term(first) == r"\p1.p"
    assert print_term(second) == r"\p2.p p1"


def test_renamed_binders_share_a_fresh_name():
    # Where the binder and its body's free variables repeat, the renamed
    # binders share one fresh name, string and all.
    out = substitute(Var("p"), "v", parse_term(r"\p.\p.\p.v"))
    assert print_term(out) == r"\p1.\p1.\p1.p"
    assert out.param is out.body.param is out.body.body.param


def db_free(db):
    """The free names of a de Bruijn tree made by oracle.to_db."""
    out, stack = set(), [db]
    while stack:
        t = stack.pop()
        if t[0] == "f":
            out.add(t[1])
        elif t[0] == "l":
            stack.append(t[1])
        elif t[0] == "a":
            stack += [t[1], t[2]]
    return frozenset(out)


def nodes(t):
    """Every node of t, each shared one once."""
    seen, stack = {}, [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if type(node) is Lam:
                stack.append(node.body)
            elif type(node) is App:
                stack += [node.operator, node.operand]
    return list(seen.values())


@given(terms())
def test_free_vars_matches_the_oracle(t):
    for node in nodes(t):
        assert free_vars(node) == db_free(oracle.to_db(node))


@HANDOFF_DEPTHS
@given(st.sampled_from(NAMES), terms(), terms())
def test_free_vars_of_every_substitute_result_matches_the_oracle(
        depth, x, body, operand):
    # Each node substitute builds, rename copies included, gets its set
    # from its children when it is made.
    with at_depth(depth):
        got = substitute(operand, x, body)
    for node in nodes(got):
        assert free_vars(node) == db_free(oracle.to_db(node))


@DEEP_TERMS
def test_free_vars_of_deep_terms_matches_the_oracle(build):
    term = build()
    for t in (term, substitute(Var("y"), "x", term)):
        assert free_vars(t) == db_free(oracle.to_db(t))


TRAILING_NUMBER = re.compile(r"[0-9]+$")


def fresh_by_regex(used, base):
    """fresh_var with each trailing number read by a regular expression."""
    m = TRAILING_NUMBER.search(base)
    stem = base[:m.start()] if m else base
    best = int(m.group()) if m else 0
    for name in used:
        m = TRAILING_NUMBER.search(name)
        if m:
            best = max(best, int(m.group()))
    return f"{stem}{best + 1}"


NUMBERED_NAMES = st.builds(
    str.__add__, st.sampled_from(["x", "y", "v", "q'", "_", "x_1a"]),
    st.sampled_from(["", "0", "007", "1", "10", "99"])
    | st.integers(0, 10**12).map(str))


@given(st.frozensets(NUMBERED_NAMES, max_size=6),
       st.frozensets(NUMBERED_NAMES, max_size=6), NUMBERED_NAMES,
       NUMBERED_NAMES)
def test_the_rename_rule_is_fresh_var_over_the_union(a, b, v, p):
    got = terms_module._fresh(p, a, b, v)
    assert got == fresh_var(a | b | {v}, p) == fresh_by_regex(a | b | {v}, p)
    assert got not in a | b | {v}


@given(terms(), terms(), st.sampled_from(NAMES))
def test_free_vars_shares_a_containing_set(a, b, x):
    # A union whose answer is one child's set returns that set itself.
    for m in (App(a, b), Lam(x, App(a, b))):
        fvm = free_vars(m)
        for n in (m, close_term(b), *(Var(name) for name in sorted(fvm))):
            assert free_vars(App(m, n)) is fvm


@given(terms(), terms())
def test_substitute_no_op_without_free_occurrence(body, operand):
    name = fresh_var(free_vars(body), "q")
    assert alpha_eq(substitute(operand, name, body), body)


@given(terms())
def test_alpha_eq_reflexive_and_rename_invariant(t):
    canon = oracle.from_db(oracle.to_db(t))
    assert alpha_eq(t, t)
    assert alpha_eq(t, canon) and alpha_eq(canon, t)


@given(terms(), terms())
def test_alpha_eq_agrees_with_oracle(a, b):
    assert alpha_eq(a, b) == oracle.db_eq(a, b)


CORPUS_TERMS = ([t for _, t in paper_corpus()]
                + generate(GenConfig(seed=1337, size_max=30), 100))


@given(terms() | st.sampled_from(CORPUS_TERMS))
def test_alpha_eq_fast_path_agrees_with_oracle(t):
    # Equal copies take the structural fast path, renamed copies the
    # signature path. Alpha-equal redexes have alpha-equal contracta,
    # which trace comparison relies on.
    renamed = copy_term(t, rename=True)
    steps = contractions(t) + contractions(renamed)
    for r1, c1 in steps:
        for r2, c2 in steps:
            if oracle.db_eq(r1, r2):
                assert oracle.db_eq(c1, c2)
    family = [t, copy_term(t), renamed] + [c for _, c in steps]
    for a in family:
        for b in family:
            assert alpha_eq(a, b) == oracle.db_eq(a, b)


@given(st.sets(st.sampled_from(["x", "x1", "x2", "x3", "y5"]), max_size=5))
def test_fresh_var_avoids_used(used):
    got = fresh_var(used, "x")
    assert got not in used
    assert got == fresh_var(used, "x")


def slot_reference(t, memo):
    """(t's height, whether t holds a redex), by plain recursion from the
    definitions: a variable has height 0, any other node one more than
    its highest child, and a redex is an application whose operator is
    an abstraction. memo maps id(node) to (node, answer)."""
    got = memo.get(id(t))
    if got is not None:
        return got[1]
    if type(t) is Var:
        answer = (0, False)
    elif type(t) is Lam:
        height, redex = slot_reference(t.body, memo)
        answer = (height + 1, redex)
    else:
        (g, r), (h, s) = (slot_reference(t.operator, memo),
                          slot_reference(t.operand, memo))
        answer = (max(g, h) + 1, r or s or type(t.operator) is Lam)
    memo[id(t)] = (t, answer)
    return answer


def check_slots(t, memo):
    """Every node of t holds its height if it holds no redex and None if
    it does, and a 60-bit hash that an equal copy shares."""
    for node in nodes(t):
        height, redex = slot_reference(node, memo)
        assert node._height == (None if redex else height)
        assert 0 <= hash(node) < 2**60
        copy = copy_term(node)
        assert copy == node and hash(copy) == hash(node)


@given(terms())
def test_each_node_records_its_height_unless_it_holds_a_redex(t):
    memo = {}
    check_slots(t, memo)
    for _, contractum in contractions(t):
        check_slots(contractum, memo)


def test_corpus_terms_record_their_heights(corpus_1337):
    memo = {}
    for t in corpus_1337:
        check_slots(t, memo)


def test_every_contractum_and_result_records_its_height(paper_terms):
    memo = {}
    checked = 0
    for row in catalogue():
        for term in paper_terms.values():
            outcome = evaluate(row.spec, term, 300, max_nodes=100_000)
            for event in outcome.trace:
                check_slots(event.contractum, memo)
            if outcome.result is not None:
                check_slots(outcome.result, memo)
            checked += 1
    assert checked == 63 * 13


@pytest.mark.parametrize("build", [deep_spine, deep_binders])
def test_deep_terms_record_heights_past_the_small_ints(build):
    t = build()
    assert t._height == DEEP + 1 if build is deep_binders else DEEP
    redex = App(Lam("x", Var("x")), t)
    assert redex._height is None
    assert Lam("z", App(Var("z"), redex))._height is None
