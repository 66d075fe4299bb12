"""Term algebra: parsing, printing, substitution, classification."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

import oracle
from strategies import NAMES, contractions, copy_term, terms

from lambdalab import (
    App,
    FormClass,
    GenConfig,
    Lam,
    ParseError,
    Var,
    alpha_eq,
    builtins,
    churchN,
    classify,
    free_vars,
    fresh_var,
    generate,
    paper_corpus,
    parse_term,
    print_term,
    substitute,
)


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


@pytest.mark.parametrize("bad", ["(((", "\\.x", ")", "", "\\x", "x )"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_term(bad)


def test_parse_error_reports_offset():
    with pytest.raises(ParseError, match="offset"):
        parse_term("x ? y")


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


@given(st.sampled_from(NAMES), terms(), terms())
def test_substitute_matches_oracle_beta(x, body, operand):
    mine = substitute(operand, x, body)
    lam = oracle.to_db(Lam(x, body))
    assert oracle.to_db(mine) == oracle.beta(lam[1], oracle.to_db(operand))


@given(st.sampled_from(NAMES), terms(), terms())
def test_substitute_free_vars_bound(x, body, operand):
    got = free_vars(substitute(operand, x, body))
    bound = (free_vars(body) - {x}) | free_vars(operand)
    if x in free_vars(body):
        assert got == bound
    else:
        assert got == free_vars(body)


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
