"""Command line coverage: every subcommand, both output modes, exit codes."""

import json

import pytest

from lambdalab import GenConfig, Var, generate, parse_term, print_term
from lambdalab import engine
from lambdalab import terms as terms_module
from lambdalab.cli import build_parser, main
from lambdalab.lab import DEFAULT_FACTORIAL_FUEL
from lambdalab.terms import free_vars


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_human(capsys):
    code, out, _ = run(capsys, "eval", "-s", "bv", "(\\x.#I z) (#I z)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z"
    assert "3 steps" in lines[1]
    assert "converged" in lines[1]


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "-s", "bv", "(\\x.#I z) (#I z)",
                       "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["result"] == "z"
    assert blob["status"] == "converged"
    assert blob["fuel_used"] == 3


def test_trace_human_brackets_each_redex(capsys):
    code, out, _ = run(capsys, "trace", "-s", "bv", "(\\x.#I z) (#I z)")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if "[" in line) == 3
    assert lines[3] == "z"


def test_trace_json_matches_schema(capsys):
    code, out, _ = run(capsys, "trace", "-s", "bv", "(\\x.#I z) (#I z)",
                       "--json")
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"spec", "term", "status", "result", "fuel_used",
                         "trace"}
    assert [e["path"] for e in blob["trace"]] == ["A", "", ""]


def test_tree_shows_stages_for_readback(capsys):
    code, out, _ = run(capsys, "tree", "-s", "byValue", "(\\x.x) (\\y.y)")
    assert code == 0
    assert "eval:" in out
    assert "readback:" in out


def test_tree_plain_strategy(capsys):
    code, out, _ = run(capsys, "tree", "-s", "bv", "(\\x.x) (\\y.y)")
    assert code == 0
    assert "CON" in out
    assert "readback:" not in out


def test_tree_out_of_fuel_reports_status(capsys):
    argv = ("tree", "-s", "bv", "(\\x.y) #Omega", "--fuel", "40")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == ["fuel exhausted after 40 steps"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out) == {"status": "fuel-exhausted", "fuel_used": 40}
    code, _, _ = run(capsys, *argv, "--strict-fuel")
    assert code == 2


@pytest.mark.parametrize("strategy,stages", [
    ("byValue", ["eval", "readback"]),
    ("bv", ["derivation"]),
])
def test_tree_json_names_its_stages(capsys, strategy, stages):
    code, out, _ = run(capsys, "tree", "-s", strategy, "(\\x.x) (\\y.y)",
                       "--json")
    assert code == 0
    blob = json.loads(out)
    assert [s["stage"] for s in blob["stages"]] == stages
    assert blob["stages"][-1]["tree"]["output"] == "\\y.y"
    assert out == json.dumps(blob) + "\n"


# bn walks the 1,500 nested applications of the numeral's body one
# derivation level each, past Python's recursion limit.
DEEP_TREE = ("tree", "-s", "bn", "#church:1500 (\\y.y) z")


def test_tree_text_prints_a_deep_derivation(capsys):
    code, out, _ = run(capsys, *DEEP_TREE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "derivation:"
    assert max(len(line) - len(line.lstrip()) for line in lines) > 2 * 1500
    assert lines[-1].strip() == "VAR  z  =>  z"


def test_tree_json_writes_a_deep_derivation(capsys):
    code, out, _ = run(capsys, *DEEP_TREE, "--json")
    assert code == 0
    # json.loads recurses as well, so check the nesting by hand; printed
    # terms hold no brackets or braces.
    depth = deepest = 0
    for char in out:
        if char in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif char in "]}":
            depth -= 1
    assert depth == 0
    assert deepest > 2 * 1500
    assert out.count('"kind": ') == len(
        run(capsys, *DEEP_TREE)[1].splitlines()) - 1


def test_classify_lists_forms(capsys):
    code, out, _ = run(capsys, "classify", "\\x.x")
    assert code == 0
    for form in ("NF", "HNF", "WNF", "WHNF", "VHNF"):
        assert form in out


def test_compare_json_reports_witness(capsys):
    code, out, _ = run(capsys, "compare", "no", "hr", "x (x ((\\a.a) u))",
                       "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "differ"
    assert blob["witness"]["index"] == 0
    assert blob["witness"]["a"] != blob["witness"]["b"]


def test_compare_human_explains_conflict(capsys):
    code, out, _ = run(capsys, "compare", "no", "hr", "x (x ((\\a.a) u))")
    assert code == 0
    assert out.splitlines()[0] == "differ"
    assert "first conflict at step 0" in out


def test_fuse_prints_alias_and_mcr(capsys):
    code, out, _ = run(capsys, "fuse", "(RE)R.ISS")
    assert code == 0
    assert out.strip() == "HSH<>ISS (sn), mcr=true"


def test_defuse_prints_sources(capsys):
    code, out, _ = run(capsys, "defuse", "hr")
    assert code == 0
    assert out.split() == ["(RE)I.III"]
    code, out, _ = run(capsys, "defuse", "ha")
    assert code == 0
    assert out.strip() == ""


def test_a_church_numeral_above_the_node_limit_is_an_error(capsys):
    for digits in ("1000001", "9" * 5000):
        code, out, err = run(capsys, "trace", "-s", "bn", "#church:" + digits)
        assert code == 1
        assert out == ""
        assert err == "error: #church numeral at offset 0 is above 1,000,000\n"


def test_church_numerals_summing_above_the_node_limit_are_an_error(
        capsys, monkeypatch):
    built = []
    monkeypatch.setattr(terms_module, "churchN",
                        lambda n: built.append(n) or Var("n"))
    code, out, err = run(capsys, "trace", "-s", "bn",
                         "#church:600000 #church:600000")
    assert (code, out, built) == (1, "", [])
    assert err == "error: #church numerals sum to 1,200,000, above 1,000,000\n"
    code, out, _ = run(capsys, "trace", "-s", "bn", "#church:1000000")
    assert (code, built) == (0, [1000000])


def test_defuse_of_a_rejected_hybrid_is_an_error(capsys):
    for argv in (("defuse", "HHH<>III"), ("defuse", "HHH<>III", "--json")):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot defuse HHH<>III: spurious; H3: ")


def test_validate_flags_spurious(capsys):
    code, out, _ = run(capsys, "validate", "HIH<>SIS")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "spurious"
    assert any(line.strip().startswith("H") for line in lines[1:])


def test_validate_accepts_catalogued(capsys):
    code, out, _ = run(capsys, "validate", "sn")
    assert code == 0
    assert out.splitlines()[0] == "valid-hybrid-balanced"


def test_catalogue_row_count(capsys):
    code, out, _ = run(capsys, "catalogue", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 63
    assert {"spec", "alias", "classification", "result_form"} <= set(rows[0])


def test_corpus_pipeline(capsys, tmp_path):
    corpus = tmp_path / "c.lam"
    code, _, _ = run(capsys, "corpus-gen", "--seed", "4", "--size-max", "12",
                     "--n", "25", "--out", str(corpus))
    assert code == 0
    assert len(corpus.read_text().splitlines()) == 25
    code, out, _ = run(capsys, "corpus-run", "bn", "no", str(corpus),
                       "--fuel", "2000", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 25
    assert sum(blob["verdicts"].values()) == 25


def test_corpus_gen_draws_free_variables_from_the_pool(capsys):
    code, out, _ = run(capsys, "corpus-gen", "--seed", "3", "--size-max",
                       "10", "--n", "40", "--pool", "x,y", "--json")
    assert code == 0
    terms = json.loads(out)["terms"]
    want = generate(GenConfig(seed=3, size_max=10, free_var_pool=("x", "y")),
                    40)
    assert terms == [print_term(t) for t in want]
    free = set().union(*(free_vars(parse_term(t)) for t in terms))
    assert free == {"x", "y"}


def test_corpus_run_writes_report_file(capsys, tmp_path):
    corpus, report = tmp_path / "c.lam", tmp_path / "report.json"
    run(capsys, "corpus-gen", "--seed", "4", "--size-max", "12", "--n", "10",
        "--out", str(corpus))
    code, out, _ = run(capsys, "corpus-run", "bn", "no", str(corpus),
                       "--fuel", "2000", "--out", str(report))
    assert code == 0
    assert out.strip() == f"wrote report to {report}"
    blob = json.loads(report.read_text())
    assert blob["n"] == 10
    assert sum(blob["verdicts"].values()) == 10


def test_corpus_run_out_with_json_prints_json(capsys, tmp_path):
    corpus, report = tmp_path / "c.lam", tmp_path / "report.json"
    run(capsys, "corpus-gen", "--seed", "4", "--size-max", "12", "--n", "10",
        "--out", str(corpus))
    code, out, _ = run(capsys, "corpus-run", "bn", "no", str(corpus),
                       "--fuel", "2000", "--out", str(report), "--json")
    assert code == 0
    assert json.loads(out) == {"n": 10, "out": str(report)}
    assert json.loads(report.read_text())["n"] == 10


def test_corpus_run_reports_a_file_that_is_not_utf8(capsys, tmp_path):
    corpus = tmp_path / "binary.lam"
    corpus.write_bytes(b"\x7fELF\x02\x01\x01\x00\xc3\x28")
    code, out, err = run(capsys, "corpus-run", "ISS", "III", str(corpus))
    assert code == 1
    assert out == ""
    assert err == f"error: {corpus}: not UTF-8 text: invalid continuation byte\n"


@pytest.mark.parametrize("pool, message", [
    ("x y", "error: free variable 'x y' must be a variable of the term"),
    ("x,v1", "error: free variable 'v1' must be a variable of the term"),
])
def test_corpus_gen_refuses_a_bad_pool(capsys, tmp_path, pool, message):
    out_file = tmp_path / "c.lam"
    code, out, err = run(capsys, "corpus-gen", "--pool", pool,
                         "--out", str(out_file))
    assert code == 1
    assert out == ""
    assert err.startswith(message)
    assert not out_file.exists()


def test_demo_factorial_default_fuel_comes_from_lab():
    args = build_parser().parse_args(["demo-factorial"])
    assert args.fuel == DEFAULT_FACTORIAL_FUEL


def test_demo_factorial_single_row(capsys):
    code, out, _ = run(capsys, "demo-factorial", "-s", "bn", "--n", "1")
    assert code == 0
    assert "bn" in out
    assert "ok" in out


def test_demo_factorial_out_of_fuel_is_inconclusive(capsys):
    code, out, _ = run(capsys, "demo-factorial", "-s", "no", "--n", "3",
                       "--fuel", "40")
    assert code == 0
    assert out.splitlines() == ["no   n=3: fuel-exhausted, inconclusive"]
    code, out, _ = run(capsys, "demo-factorial", "-s", "no", "--n", "3",
                       "--fuel", "40", "--json")
    assert code == 0
    [row] = json.loads(out)
    assert row["status"] == "fuel-exhausted"
    assert row["ok"] is None


def test_demo_factorial_unknown_row(capsys):
    code, _, err = run(capsys, "demo-factorial", "-s", "zz")
    assert code == 1
    assert "zz" in err


@pytest.mark.parametrize("argv, message", [
    (("corpus-gen", "--size-max", "0"), "error: size_max must be at least 1"),
    (("corpus-gen", "--size-max", "1"), "error: closed terms need size_max"),
    (("demo-factorial", "--n", "-1"), "error: --n must be at least 0, got -1"),
    (("corpus-gen", "--n", "-5"), "error: n must be at least 0"),
], ids=["size-max-0", "closed-size-max-1", "negative-n", "negative-corpus-n"])
def test_out_of_range_numbers_are_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(message)
    assert "Traceback" not in err


def test_strict_fuel_exit_code(capsys):
    code, _, _ = run(capsys, "eval", "-s", "bv", "(\\x.y) #Omega",
                     "--fuel", "40", "--strict-fuel")
    assert code == 2
    code, _, _ = run(capsys, "eval", "-s", "bv", "(\\x.y) #Omega",
                     "--fuel", "40")
    assert code == 0


@pytest.mark.parametrize("a, b, term, verdict, code", [
    ("bn", "no", "#Omega", "both-exhausted-equal-prefix", 2),
    ("sn", "byValue", "x (\\w.(\\a.a) u) #Omega",
     "both-exhausted-mcr-prefix", 2),
    ("bn", "bv", "(\\y.z) #Omega", "inconclusive", 2),
    # Both runs exhaust their fuel, but their prefixes part at step 0.
    ("bn", "bv", "(\\x.#Omega) #Omega", "differ", 0),
])
def test_compare_strict_fuel_exits_two_unless_decided(capsys, a, b, term,
                                                      verdict, code):
    argv = ("compare", a, b, term, "--fuel", "50")
    lenient, out, _ = run(capsys, *argv)
    strict, strict_out, _ = run(capsys, *argv, "--strict-fuel")
    assert out.splitlines()[0] == verdict
    assert (lenient, strict, strict_out) == (0, code, out)


@pytest.mark.parametrize("argv", [
    ("eval", "-s", "no"),
    ("trace", "-s", "no"),
    ("tree", "--json", "-s", "no"),
    ("compare", "no", "bn"),
])
def test_resource_limit_exits_two_only_under_strict_fuel(capsys, monkeypatch,
                                                         argv):
    monkeypatch.setattr(engine, "MAX_FRAMES", 5)
    argv = (*argv, "#Y (\\f.\\x. x (f x))", "--fuel", "1000")
    for flags, code in (((), 0), (("--strict-fuel",), 2)):
        assert run(capsys, *argv, *flags) == (
            code, "", "resource limit: machine frame stack limit exceeded\n")


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "eval", "-s", "bv", "(((")
    assert code == 1
    assert "error" in err


def test_bad_spec_exit(capsys):
    code, _, err = run(capsys, "eval", "-s", "zz9", "x")
    assert code == 1
    assert "error" in err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["eval", "bv"])  # missing the -s option
    assert exc.value.code == 1
