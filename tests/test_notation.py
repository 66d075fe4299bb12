"""Strategy encodings: parsing, provisos, the fuse/defuse algebra, and
the result forms the catalogue gives each row."""

import hashlib
import re
from itertools import product

import pytest

from lambdalab import (
    ALIASES,
    CONVERGED,
    EngineError,
    GenConfig,
    HybridSpec,
    NotationError,
    ReadbackSpec,
    UniformSpec,
    catalogue,
    classify,
    defuse,
    evaluate,
    fuse,
    generate,
    paper_corpus,
    parse_spec,
    print_spec,
    validate,
)
from lambdalab import notation
from lambdalab.cli import main
from lambdalab.notation import REJECTED, alias_of, result_form


def all_hybrids():
    for triple in product("ISH", repeat=3):
        for sub in product("IS", repeat=3):
            yield HybridSpec(*triple, UniformSpec(*sub))


def all_uniforms():
    for triple in product("IS", repeat=3):
        yield UniformSpec(*triple)


def all_readbacks():
    for la in ("I", "E", "R", "RE"):
        for ar2 in ("I", "E", "R", "RE"):
            for ev in product("IS", repeat=3):
                yield ReadbackSpec(la, ar2, UniformSpec(*ev))


def valid_readbacks():
    return [rb for rb in all_readbacks()
            if validate(rb).verdict == "valid-readback"]


def test_parse_uniform_and_alias():
    assert parse_spec("ISS") == UniformSpec("I", "S", "S")
    assert parse_spec("bv") == parse_spec("ISS")
    assert parse_spec("bn") == UniformSpec("I", "I", "I")


def test_parse_hybrid():
    spec = parse_spec("HSH<>ISS")
    assert spec == HybridSpec("H", "S", "H", UniformSpec("I", "S", "S"))
    assert parse_spec("sn") == spec


def test_parse_readback_slots():
    spec = parse_spec("(RE)R.ISS")
    assert spec == ReadbackSpec("RE", "R", UniformSpec("I", "S", "S"))
    assert parse_spec("byValue") == spec
    # Without parentheses the two letters are separate slots.
    assert parse_spec("RE.SII") == ReadbackSpec("R", "E", UniformSpec("S", "I", "I"))
    assert validate(parse_spec("RE.SII")).verdict == "valid-readback"


@pytest.mark.parametrize("bad", ["iii", "BV", "IS", "ISSS", "HSH<>", "X(RE).III",
                                 "(RE)(RE)", "HSH<>ISH", "I.III"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(NotationError):
        parse_spec(bad)


def test_print_parse_identity_on_catalogue():
    for row in catalogue():
        assert parse_spec(print_spec(row.spec)) == row.spec


def test_alias_table_round_trips():
    assert set(ALIASES) == {"bn", "bv", "ao", "he", "ho", "no", "hr", "sn",
                            "hn", "ha", "am", "so", "bs", "byValue", "byName"}
    for alias, systematic in ALIASES.items():
        spec = parse_spec(alias)
        assert spec == parse_spec(systematic)
        assert alias_of(spec) == alias


def test_uniforms_validate():
    for sub in product("IS", repeat=3):
        report = validate(UniformSpec(*sub))
        assert report.verdict == "valid-uniform"
        assert report.diagnostics == ()


def test_identical_triples_are_degenerate():
    report = validate(parse_spec("SIS<>SIS"))
    assert report.verdict == "degenerate-uniform"
    assert any("SIS" in d.message for d in report.diagnostics)


def test_iih_over_bn_is_degenerate_and_names_its_uniform():
    report = validate(parse_spec("IIH<>III"))
    assert report.verdict == "degenerate-uniform"
    assert any("IIS" in d.message for d in report.diagnostics)


@pytest.mark.parametrize("spec", ["HIH<>SIS", "HSI<>SSI", "IHH<>ISS", "HHI<>SSI"])
def test_known_spurious_encodings(spec):
    report = validate(parse_spec(spec))
    assert report.verdict == "spurious"
    assert report.diagnostics
    assert any(d.proviso.startswith("H") for d in report.diagnostics)


def test_vacuous_readback_is_invalid():
    report = validate(parse_spec("II.III"))
    assert report.verdict == "invalid"
    assert any(d.proviso == "ER2" for d in report.diagnostics)


def test_hybrid_enumeration_counts():
    counts = {}
    degenerates = set()
    for spec in all_hybrids():
        report = validate(spec)
        counts[report.verdict] = counts.get(report.verdict, 0) + 1
        if report.verdict in ("spurious", "invalid"):
            assert report.diagnostics, print_spec(spec)
        if report.verdict == "degenerate-uniform":
            degenerates.add(print_spec(spec))
    assert counts == {
        "valid-hybrid-balanced": 21,
        "valid-hybrid-unbalanced": 11,
        "degenerate-uniform": 9,
        "spurious": 175,
    }
    assert degenerates == {f"{t}<>{t}" for t in
                           ("".join(p) for p in product("IS", repeat=3))} | {
        "IIH<>III",
    }


def test_readback_enumeration_counts():
    counts = {}
    for spec in all_readbacks():
        report = validate(spec)
        counts[report.verdict] = counts.get(report.verdict, 0) + 1
        if report.verdict == "invalid":
            assert report.diagnostics, print_spec(spec)
    assert counts == {"valid-readback": 22, "invalid": 106}


# sha256 over (encoding, verdict, [(proviso, message), ...]) for every
# encoding in survey order: pins each report's verdict, its diagnostics,
# their wording and their order, which the notation digest in
# tests/fingerprint.py sees only for the catalogue rows and a few others.
VALIDATE_DIGEST = "7ab54b9af6859c4387e995b12f50f63daf96745c8eb563dec1e7ae89104e59e2"


def test_validate_reports_on_every_encoding_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for spec in notation._survey():
        report = validate(spec)
        assert report.spec == spec
        digest.update(repr((print_spec(spec), report.verdict,
                            [(d.proviso, d.message)
                             for d in report.diagnostics])).encode())
        count += 1
    assert count == 352
    assert digest.hexdigest() == VALIDATE_DIGEST


def test_catalogue_shape():
    rows = catalogue()
    assert len(rows) == 63
    uniforms = [r for r in rows if isinstance(r.spec, UniformSpec)]
    hybrids = [r for r in rows if isinstance(r.spec, HybridSpec)]
    readbacks = [r for r in rows if isinstance(r.spec, ReadbackSpec)]
    assert (len(uniforms), len(hybrids), len(readbacks)) == (8, 33, 22)
    # Rows are grouped by kind in presentation order.
    assert list(rows[:8]) == uniforms
    assert list(rows[8:41]) == hybrids
    assert list(rows[41:]) == readbacks


def test_catalogue_matches_validator():
    rows = catalogue()
    cat_hybrids = {print_spec(r.spec) for r in rows
                   if isinstance(r.spec, HybridSpec)}
    valid_hybrids = {print_spec(s) for s in all_hybrids()
                     if validate(s).verdict.startswith("valid")}
    assert valid_hybrids <= cat_hybrids
    assert cat_hybrids - valid_hybrids == {"IIH<>III"}
    cat_rb = {print_spec(r.spec) for r in rows
              if isinstance(r.spec, ReadbackSpec)}
    assert cat_rb == {print_spec(s) for s in valid_readbacks()}


def test_hand_written_table_names_only_catalogue_rows():
    # The generator skips an encoding the provisos reject, so a stale
    # alias would otherwise go unread without a word. Each alias names a
    # catalogue row, and no row has two; test_alias_table_round_trips
    # checks that each round-trips through parse_spec and alias_of.
    rows = {print_spec(r.spec): r for r in catalogue()}
    assert len(set(ALIASES.values())) == len(ALIASES)
    for alias, text in ALIASES.items():
        assert rows[text].alias == alias
    assert sum(r.alias is not None for r in rows.values()) == len(ALIASES)


@pytest.mark.parametrize("text", ["HIH<>SIS", "SII<>SII", "II.III"])
def test_result_form_refuses_an_encoding_outside_the_catalogue(text):
    # A spurious hybrid, a hybrid restating its subsidiary and an invalid
    # readback once raised a KeyError, a KeyError and fuse's refusal.
    with pytest.raises(NotationError, match=f"^{re.escape(text)} is not a "
                       "catalogue row$"):
        result_form(parse_spec(text))


def test_result_form_answers_exactly_the_catalogue_rows():
    rows = {r.spec: r.result_form for r in catalogue()}
    for spec in (*all_uniforms(), *all_hybrids(), *all_readbacks()):
        if spec in rows:
            assert result_form(spec) is rows[spec]
        else:
            with pytest.raises(NotationError):
                result_form(spec)


def test_catalogue_writes_no_diagnostic(monkeypatch):
    # The catalogue reads verdicts alone, so the 281 encodings it drops
    # cost no message.
    built = []
    real = notation.Diagnostic
    monkeypatch.setattr(notation, "Diagnostic",
                        lambda *args: built.append(args) or real(*args))
    rows = catalogue.__wrapped__()
    assert len(rows) == 63
    assert built == []
    assert validate("IIH<>III").diagnostics and len(built) == 1


def test_catalogue_classifications():
    by_spec = {print_spec(r.spec): r for r in catalogue()}
    assert by_spec["IIH<>III"].classification == "uniform"
    assert by_spec["HSH<>ISS"].classification == "hybrid balanced"
    assert by_spec["HHH<>ISS"].classification == "hybrid unbalanced"
    assert by_spec["(RE)R.ISS"].classification == "readback"
    readback_aliases = {r.alias for r in catalogue()
                        if isinstance(r.spec, ReadbackSpec) and r.alias}
    assert readback_aliases == {"byName", "byValue"}


def test_fuse_equation_instantiations():
    table = {
        "(RE)(RE).III": ("HIH<>III", "no", False),
        "R(RE).SII": ("HIH<>SII", "hn", False),
        "(RE)I.III": ("HII<>III", "hr", False),
        "(RE)R.ISS": ("HSH<>ISS", "sn", True),
        "(RE)I.ISS": ("HSS<>ISS", "am", True),
    }
    for source, (hybrid, alias, mcr) in table.items():
        result = fuse(parse_spec(source))
        assert print_spec(result.hybrid) == hybrid, source
        assert alias_of(result.hybrid) == alias, source
        assert result.mcr is mcr, source


def test_fuse_rejects_invalid_readback():
    with pytest.raises(NotationError):
        fuse(parse_spec("II.III"))


def test_each_readback_is_judged_once_by_fuse(monkeypatch):
    notation._fuse.cache_clear()
    calls = []
    judge = notation._judge
    monkeypatch.setattr(notation, "_judge",
                        lambda spec: calls.append(spec) or judge(spec))
    results, messages = [], []
    for _ in range(3):
        # byValue is (RE)R.ISS: a parsed alias and its encoding are one spec.
        results += [fuse("byValue"), fuse(parse_spec("(RE)R.ISS"))]
        with pytest.raises(NotationError) as raised:
            fuse("II.III")
        messages.append(str(raised.value))
    assert results == [results[0]] * 6
    assert results[0].hybrid == parse_spec("sn") and results[0].mcr
    assert calls.count(parse_spec("(RE)R.ISS")) == 1
    # A rejected readback is judged again, and raises, on every call.
    assert calls.count(parse_spec("II.III")) >= 3
    assert messages == [messages[0]] * 3
    assert messages[0].startswith("cannot fuse II.III: invalid; ER2: ")


def test_fuse_mcr_iff_eval_stage_is_strict_on_neutrals():
    rows = valid_readbacks()
    flags = [fuse(rb).mcr for rb in rows]
    assert all(flag == (rb.ev.ar2 == "S") for flag, rb in zip(flags, rows))
    assert sum(flags) == 6


# The fusion step, slot by slot. A slot is the passes it makes over a
# premise: e an eval pass, r a readback pass. Fusing readback slot r over
# eval slot e makes e's passes, then r's; the fused slot closes only as
# no pass (I), one eval pass (S), or an eval pass then a readback pass,
# which the hybrid makes as one walk of itself (H). R over I is stuck,
# and E or (RE) over S closes only by eval idempotence.
_PASSES = {"I": "", "S": "e", "E": "e", "R": "r", "RE": "er"}
_CLOSES = {"": "I", "e": "S", "er": "H"}


def fused_slot(rb_slot, ev_slot):
    return _CLOSES.get(_PASSES[ev_slot] + _PASSES[rb_slot])


def test_the_fusion_step_derives_the_slot_table_provisos_and_fuse():
    derived = {(r, e): fused_slot(r, e)
               for r in ("I", "E", "R", "RE") for e in "IS"}
    assert {k: v for k, v in derived.items() if v} == notation._COMPOSE
    valid = 0
    for rb in all_readbacks():
        ev = rb.ev
        la, ar2 = fused_slot(rb.la, ev.la), fused_slot(rb.ar2, ev.ar2)
        hybrid = la and ar2 and HybridSpec(la, ev.ar1, ar2, ev)
        closes = bool(hybrid) and hybrid.triple != ev.triple and (
            validate(hybrid).verdict not in REJECTED)
        assert (validate(rb).verdict == "valid-readback") == closes, (
            print_spec(rb))
        if closes:
            assert fuse(rb).hybrid == hybrid, print_spec(rb)
            valid += 1
    assert valid == len(valid_readbacks()) == 22


_NEVER_RECURSES = "readback never recurses on a body or operand premise"
_VACUOUS = ("readback never calls eval on a premise where eval was the "
            "identity, so the staging is vacuous")


def test_er2_whole_encoding_rows_are_the_fused_hybrids_h2_rows():
    # With eval idempotence (two eval passes close as one) the fusion
    # step closes on 98 of the 128 readback encodings. On those, ER2's
    # two whole-encoding rows break exactly where the fused hybrid breaks
    # the matching H2 rows. The 30 stuck encodings have no fused hybrid,
    # so _READBACK_PROVISOS keeps its slot predicates for them.
    closing = 0
    for rb in all_readbacks():
        ev_slots = (rb.ev.la, rb.ev.ar2)
        fused = [_CLOSES.get((_PASSES[e] + _PASSES[r]).replace("ee", "e"))
                 for r, e in zip((rb.la, rb.ar2), ev_slots)]
        if None in fused:
            continue
        closing += 1
        messages = {d.message for d in validate(rb).diagnostics}
        assert (_NEVER_RECURSES in messages) == ("H" not in fused), (
            print_spec(rb))
        assert (_VACUOUS in messages) == (not any(
            e == "I" and f != "I" for f, e in zip(fused, ev_slots))), (
            print_spec(rb))
    assert closing == 98


def test_defuse_examples():
    assert {print_spec(rb) for rb in defuse(parse_spec("hr"))} == {"(RE)I.III"}
    assert {print_spec(rb) for rb in defuse(parse_spec("IIH<>III"))} == {"I(RE).III"}
    assert {print_spec(rb) for rb in defuse(parse_spec("sn"))} == {"(RE)R.ISS"}
    assert defuse(parse_spec("ha")) == frozenset()
    assert defuse(parse_spec("so")) == frozenset()


def test_defuse_refuses_a_rejected_hybrid_as_fuse_does():
    kept = 0
    for spec in all_hybrids():
        report = validate(spec)
        if report.verdict not in REJECTED:
            # Unbalanced, degenerate and X<>X hybrids have a preimage,
            # empty or not.
            assert isinstance(defuse(spec), frozenset)
            kept += 1
            continue
        with pytest.raises(NotationError) as raised:
            defuse(spec)
        detail = "".join(f"; {d.proviso}: {d.message}"
                         for d in report.diagnostics)
        assert str(raised.value) == (
            f"cannot defuse {print_spec(spec)}: {report.verdict}{detail}")
    assert kept == 216 - 175
    with pytest.raises(NotationError) as raised:
        fuse("II.III")
    assert str(raised.value).startswith("cannot fuse II.III: invalid; ER2: ")


def test_defuse_fuse_round_trip():
    for rb in valid_readbacks():
        assert rb in defuse(fuse(rb).hybrid), print_spec(rb)


def test_defuse_is_the_exact_fuse_preimage():
    preimage = {}
    for rb in valid_readbacks():
        preimage.setdefault(print_spec(fuse(rb).hybrid), set()).add(rb)
    for row in catalogue():
        if not isinstance(row.spec, HybridSpec):
            continue
        want = preimage.get(print_spec(row.spec), set())
        assert set(defuse(row.spec)) == want, print_spec(row.spec)


def test_rejection_rule_is_the_one_every_caller_applies(capsys):
    specs = list(all_uniforms()) + list(all_hybrids()) + list(all_readbacks())
    assert len(specs) == 352
    mismatches = []
    for spec in specs:
        rejected = validate(spec).verdict in REJECTED
        try:
            evaluate(spec, "x", 10)
            refused = False
        except EngineError:
            refused = True
        exit_one = main(["validate", print_spec(spec)]) == 1
        capsys.readouterr()
        agree = {refused, exit_one}
        if not isinstance(spec, UniformSpec):
            try:
                (fuse if isinstance(spec, ReadbackSpec) else defuse)(spec)
                agree.add(False)
            except NotationError:
                agree.add(True)
        if agree != {rejected}:
            mismatches.append(print_spec(spec))
    assert mismatches == []


# Converged results outside their row's form. All are open terms whose
# result is a neutral with an unevaluated operand redex, e.g.
# x (x ((\a.a) u)): HNF but not WNF, so not VHNF. These rows leave
# neutral operands alone (subsidiary bn or ISI, or a readback fusing to
# such a hybrid), and the two terms are the paper's open ones with a
# redex under a neutral.
OPEN_TERM_FORM_MISSES = {
    (row, term)
    for row in ("HIS<>III", "HSS<>ISI", "HHS<>ISI", "(RE)E.III", "(RE)E.ISI")
    for term in ("operator-neutral-redex", "neutral-nested-redex")
}


def test_converged_results_land_in_the_catalogue_form():
    paper = paper_corpus()
    corpus = [(f"seed-1337/{i}", t) for i, t in
              enumerate(generate(GenConfig(seed=1337, size_max=30), 200))]
    misses = set()
    for row in catalogue():
        terms = paper + corpus if isinstance(row.spec, ReadbackSpec) else paper
        for name, term in terms:
            outcome = evaluate(row.spec, term, 3000, record_trace=False,
                               max_nodes=250000)
            if (outcome.status == CONVERGED
                    and row.result_form not in classify(outcome.result)):
                misses.add((print_spec(row.spec), name))
    assert misses == OPEN_TERM_FORM_MISSES
