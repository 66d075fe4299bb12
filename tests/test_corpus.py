"""Corpus generation, persistence, and the fixed example terms."""

import pytest

from lambdalab import (
    CONVERGED,
    FUEL_EXHAUSTED,
    App,
    GenConfig,
    Lam,
    ParseError,
    Var,
    evaluate,
    generate,
    load_corpus,
    paper_corpus,
    parse_term,
    print_term,
    save_corpus,
)
from lambdalab.lab import trace_json
from lambdalab.terms import free_vars


def term_size(term):
    n = 0
    stack = [term]
    while stack:
        t = stack.pop()
        n += 1
        if isinstance(t, Lam):
            stack.append(t.body)
        elif isinstance(t, App):
            stack.extend((t.operator, t.operand))
    return n


def test_generate_minimal_config():
    terms = generate(GenConfig(seed=1, size_max=1, free_var_pool=("x",)), 1)
    assert terms == [Var("x")]


def test_generate_is_deterministic():
    cfg = GenConfig(seed=99, size_max=20, free_var_pool=("x", "y"))
    assert generate(cfg, 50) == generate(cfg, 50)
    # A prefix of a longer run is the shorter run.
    assert generate(cfg, 50)[:20] == generate(cfg, 20)


def test_generate_closed_terms():
    terms = generate(GenConfig(seed=7, size_max=25), 100)
    assert len(terms) == 100
    assert all(free_vars(t) == frozenset() for t in terms)


def test_generate_respects_size_bound():
    cfg = GenConfig(seed=3, size_max=30, free_var_pool=("x",))
    assert all(term_size(t) <= 30 for t in generate(cfg, 200))


def test_generate_closed_needs_room_for_a_binder():
    with pytest.raises(ValueError):
        generate(GenConfig(seed=1, size_max=1), 1)


def test_generate_refuses_a_negative_count():
    cfg = GenConfig(seed=1, size_max=5, free_var_pool=("x",))
    with pytest.raises(ValueError, match="n must be at least 0"):
        generate(cfg, -5)
    assert generate(cfg, 0) == []


def test_gen_config_validates():
    with pytest.raises(ValueError):
        GenConfig(seed=1, size_max=0)


@pytest.mark.parametrize("name", ["x y", "#I", "x--c", "(x)", "", "\u03bb",
                                  "v1", "v12", "v0"])
def test_gen_config_refuses_a_pool_name_that_is_no_free_variable(name):
    with pytest.raises(ValueError, match="must be a variable of the term"):
        GenConfig(seed=1, size_max=5, free_var_pool=("x", name))


def test_pool_names_stay_free_and_round_trip(tmp_path):
    pool = ("x", "v", "u'", "_w2")
    terms = generate(GenConfig(seed=3, size_max=12, free_var_pool=pool), 300)
    assert all(free_vars(t) <= set(pool) for t in terms)
    assert set().union(*map(free_vars, terms)) == set(pool)
    path = tmp_path / "corpus.lam"
    save_corpus(str(path), terms)
    assert load_corpus(str(path)) == terms


def test_a_pool_changed_after_construction_does_not_reach_generate():
    pool = ["x"]
    cfg = GenConfig(seed=3, size_max=12, free_var_pool=pool)
    pool.append("v1")  # a binder's name, which the check refuses
    assert cfg.free_var_pool == ("x",)
    terms = generate(cfg, 40)
    assert terms == generate(GenConfig(3, 12, ("x",)), 40)
    assert all(free_vars(t) <= {"x"} for t in terms)


def test_a_pool_given_as_a_list_equals_and_hashes_as_a_tuple():
    from_list = GenConfig(3, 12, ["x", "y"])
    from_tuple = GenConfig(3, 12, ("x", "y"))
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    assert repr(from_list) == repr(from_tuple)


def test_save_load_round_trip(tmp_path):
    terms = generate(GenConfig(seed=12, size_max=18, free_var_pool=("x",)), 30)
    path = tmp_path / "corpus.lam"
    save_corpus(path, terms)
    assert load_corpus(path) == terms


def test_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "mixed.lam"
    path.write_text(
        "-- a corpus with commentary\n"
        "\n"
        "(\\x.x) y\n"
        "   -- indented comment\n"
        "\\z.z z\n",
        encoding="utf-8",
    )
    terms = load_corpus(path)
    assert len(terms) == 2
    assert terms[0] == parse_term("(\\x.x) y")


def test_load_reports_offending_line(tmp_path):
    path = tmp_path / "bad.lam"
    path.write_text("x\ny\n(((\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_corpus(path)
    assert "line 3" in str(exc.value)
    assert "bad.lam" in str(exc.value)


def test_load_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "binary.lam"
    path.write_bytes(b"x\n\xff\xfe y\n")
    with pytest.raises(ParseError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}: not UTF-8 text: invalid start byte"


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.lam"
    path.write_text("", encoding="utf-8")
    assert load_corpus(path) == []


def test_paper_corpus_names_and_closure():
    entries = paper_corpus()
    assert [name for name, _ in entries] == [
        "divergent-operand",
        "neutral-operand",
        "strictness-counterexample",
        "sis-counterexample",
        "ao-counterexample",
        "bv-counterexample",
        "ho-counterexample",
        "neutral-three-operands",
        "operator-neutral-redex",
        "double-use",
        "eta-fixpoint",
        "worked-example",
        "neutral-nested-redex",
    ]
    for _, term in entries:
        assert print_term(term)  # every entry is a real term


def test_paper_corpus_key_behaviors():
    table = dict(paper_corpus())
    strict = evaluate("bv", table["strictness-counterexample"], fuel=2000)
    assert strict.status == FUEL_EXHAUSTED
    lazy = evaluate("bn", table["strictness-counterexample"], fuel=2000)
    assert lazy.status == CONVERGED
    sis = evaluate("SIS", table["sis-counterexample"], fuel=2000)
    assert sis.status == FUEL_EXHAUSTED
    he = evaluate("he", table["sis-counterexample"], fuel=2000)
    assert he.status == CONVERGED
    assert he.result == Var("y")


def test_trace_json_schema():
    from lambdalab import parse_spec

    term = parse_term("(\\x.#I z) (#I z)")
    blob = trace_json("bv", term, evaluate("bv", term))
    assert set(blob) == {"spec", "term", "status", "result", "fuel_used",
                         "trace"}
    # Text specs pass through as written; parsed specs print systematically.
    assert blob["spec"] == "bv"
    assert trace_json(parse_spec("bv"), term, evaluate("bv", term))["spec"] \
        == "ISS"
    assert blob["status"] == "converged"
    assert blob["result"] == "z"
    assert blob["fuel_used"] == 3
    assert [set(e) for e in blob["trace"]] == [
        {"i", "path", "redex", "contractum"}] * 3
    assert [e["path"] for e in blob["trace"]] == ["A", "", ""]
    assert [e["i"] for e in blob["trace"]] == [0, 1, 2]


def test_trace_json_exhausted_run():
    term = parse_term("#Omega")
    blob = trace_json("bn", term, evaluate("bn", term, fuel=10))
    assert blob["status"] == "fuel-exhausted"
    assert blob["result"] is None
    assert blob["fuel_used"] == 10
    assert len(blob["trace"]) == 10
