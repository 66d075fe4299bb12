"""Evaluator engine: traces, derivations, staging, and replay soundness."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from lambdalab import (
    CONVERGED,
    FUEL_EXHAUSTED,
    EngineError,
    GenConfig,
    Lam,
    ReadbackSpec,
    ResourceLimitError,
    Var,
    alpha_eq,
    catalogue,
    compare,
    derivation_forest,
    evaluate,
    factorial_term,
    generate,
    paper_corpus,
    parse_spec,
    parse_term,
    print_spec,
    print_term,
)
from lambdalab import engine, terms
from lambdalab.engine import reconstruct_sequence, sequence_from_tree
from strategies import closed_terms

SPEC_POOL = ("bn", "bv", "ao", "he", "IIS", "SIS", "no", "hn", "sn", "ha",
             "so", "byValue", "byName", "I(RE).III")


def test_worked_example_trace():
    outcome = evaluate("bv", "(\\x.#I z) (#I z)")
    assert outcome.status == CONVERGED
    assert outcome.result == Var("z")
    assert outcome.fuel_used == 3
    assert [tuple(e.position) for e in outcome.trace] == [("A",), (), ()]
    assert [print_term(e.contractum) for e in outcome.trace] == [
        "z", "(\\x.x) z", "z",
    ]
    assert [e.step_index for e in outcome.trace] == [0, 1, 2]


def test_strict_operand_diverges_where_name_discards():
    strict = evaluate("bv", "(\\x.y) #Omega", fuel=100)
    assert strict.status == FUEL_EXHAUSTED
    assert strict.result is None
    assert strict.fuel_used == 100
    lazy = evaluate("bn", "(\\x.y) #Omega", fuel=100)
    assert lazy.status == CONVERGED
    assert lazy.result == Var("y")
    assert len(lazy.trace) == 1


def test_normal_order_discards_unused_divergence():
    outcome = evaluate("no", "(\\x.\\y.x) #I #Omega")
    assert outcome.status == CONVERGED
    assert alpha_eq(outcome.result, parse_term("\\a.a"))


def test_no_trace_recording():
    outcome = evaluate("bv", "(\\x.#I z) (#I z)", record_trace=False)
    assert outcome.trace is None
    assert outcome.result == Var("z")
    assert outcome.fuel_used == 3


def test_final_form_inputs_take_no_steps():
    for spec, source in [("bn", "\\x.#Omega"), ("bv", "\\x.#Omega"),
                         ("he", "x (\\y.#Omega)"), ("ao", "\\x.y")]:
        term = parse_term(source)
        outcome = evaluate(spec, term)
        assert outcome.status == CONVERGED
        assert outcome.trace == ()
        assert alpha_eq(outcome.result, term)


def test_negative_fuel_rejected():
    # A negative budget never reaches zero, so a divergent run would spin
    # until some other guard stopped it: every entry point refuses it.
    omega = "(\\x.x x) (\\x.x x)"
    runs = [
        lambda: evaluate("bn", omega, -1),
        lambda: derivation_forest("bn", omega, -1, max_nodes=20000),
    ]
    for run in runs:
        with pytest.raises(EngineError,
                           match="fuel budget must be nonnegative"):
            run()


@pytest.mark.parametrize("fuel", [16.0, 10.0, 0.0, "16", None])
def test_a_fuel_that_is_not_an_integer_is_refused(fuel):
    # A float once stopped at the first contraction with a raw TypeError,
    # or, in a run with none, came back as fuel_used.
    runs = [
        lambda: evaluate("no", "(\\x.x) y", fuel),
        lambda: evaluate("no", "x", fuel, record_trace=False),
        lambda: compare("no", "bn", "(\\x.x) y", fuel),
        lambda: derivation_forest("no", "(\\x.x) y", fuel),
    ]
    for run in runs:
        with pytest.raises(EngineError,
                           match="fuel budget must be an integer, got "):
            run()


@pytest.mark.parametrize("max_nodes", [None, "5", -1, 2.5])
def test_a_max_nodes_that_is_not_a_nonnegative_integer_is_refused(max_nodes):
    # None and "5" once stopped at the first contraction with a raw
    # TypeError, -1 read as a ResourceLimitError, and 2.5 went unremarked;
    # a run with no contraction never read the limit at all.
    runs = [
        lambda: evaluate("no", "(\\x.x x) (\\y.y)", max_nodes=max_nodes),
        lambda: evaluate("no", "x", record_trace=False, max_nodes=max_nodes),
        lambda: compare("no", "bn", "(\\x.x) y", max_nodes=max_nodes),
        lambda: derivation_forest("no", "(\\x.x) y", max_nodes=max_nodes),
    ]
    for run in runs:
        with pytest.raises(EngineError, match="^max_nodes must be a "
                           "nonnegative integer, got "):
            run()


def test_a_boolean_max_nodes_is_an_integer():
    assert evaluate("no", "(\\x.x) y", max_nodes=True).status == CONVERGED
    with pytest.raises(ResourceLimitError):
        evaluate("no", "(\\x.x x) (\\y.y)", max_nodes=False)


def test_a_boolean_fuel_is_an_integer():
    assert evaluate("no", "(\\x.x) y", True).fuel_used == 1
    assert evaluate("no", "(\\x.x) y", False).status == FUEL_EXHAUSTED


def test_engine_refuses_spurious_spec():
    with pytest.raises(EngineError) as exc:
        evaluate("HIH<>SIS", "x")
    assert "spurious" in str(exc.value)


READBACK_ROWS = tuple(row.spec for row in catalogue()
                      if isinstance(row.spec, ReadbackSpec))

# The first term evaluates to an abstraction, the second to a neutral,
# so between them every readback row contracts in both stages.
STAGING_TERMS = ("(\\x.\\y.(\\a.a) y) ((\\b.b) (\\c.c))",
                 "(\\w.w) x (\\z.(\\a.a) z) ((\\b.b) y)")


@pytest.mark.parametrize("spec", READBACK_ROWS, ids=print_spec)
def test_readback_staging_concatenates(spec):
    readback_steps = 0
    for source in STAGING_TERMS:
        term = parse_term(source)
        full = evaluate(spec, term)
        assert full.status == CONVERGED
        assert full.stage == evaluate(spec.ev, term)
        assert full.stage.fuel_used > 0
        # Stage two step indices continue where stage one stopped.
        assert [e.step_index for e in full.trace] == list(range(len(full.trace)))
        readback_steps += len(full.trace) - len(full.stage.trace)
        # Under every smaller budget too, including ones the eval stage or
        # the readback walk runs out of.
        for fuel in range(full.fuel_used + 1):
            for traced in (True, False):
                staged = evaluate(spec, term, fuel, record_trace=traced)
                alone = evaluate(spec.ev, term, fuel, record_trace=traced)
                if alone.status != CONVERGED:
                    assert staged.stage is None
                    continue
                assert staged.stage == alone
                if traced:
                    assert staged.trace[:len(alone.trace)] == alone.trace
    assert readback_steps > 0


# Uniform, balanced hybrid and unbalanced hybrid rows.
@pytest.mark.parametrize("spec", ("bn", "bv", "no", "sn", "ha"))
def test_eval_apply_runs_have_no_stage(spec):
    for source in STAGING_TERMS:
        outcome = evaluate(spec, source)
        assert outcome.status == CONVERGED
        assert outcome.fuel_used > 0
        assert outcome.stage is None


_FRAME_HUNGRY = parse_term("#Y (\\f.\\x. x (f x))")
_BY_NAME = parse_spec("byName")
_GUARDED_RUNS = {
    "evaluate": lambda: evaluate("no", _FRAME_HUNGRY, 1000),
    "compare": lambda: compare("no", "bn", _FRAME_HUNGRY, 1000),
    # byName's eval stage converges; its readback unfolds the fixed point
    "readback": lambda: evaluate(_BY_NAME, _FRAME_HUNGRY, 1000),
    "derivation_forest": lambda: derivation_forest("no", _FRAME_HUNGRY, 1000),
}


@pytest.mark.parametrize("run", sorted(_GUARDED_RUNS))
def test_frame_limit_stops_the_run(run, monkeypatch):
    monkeypatch.setattr(engine, "MAX_FRAMES", 5)
    with pytest.raises(ResourceLimitError,
                       match="machine frame stack limit exceeded"):
        _GUARDED_RUNS[run]()


def test_frame_hungry_term_runs_out_of_fuel_by_default():
    assert evaluate("no", _FRAME_HUNGRY, 1000).status == FUEL_EXHAUSTED


def test_derivation_tree_requires_convergence():
    with pytest.raises(EngineError):
        derivation_forest("bv", "(\\x.y) #Omega", fuel=50)


def test_derivation_forest_stages():
    forest = derivation_forest("byValue", "(\\x.x) (\\y.(\\a.a) (\\b.b))")
    assert len(forest) == 2
    joined = sequence_from_tree(forest[0]) + sequence_from_tree(forest[1])
    outcome = evaluate("byValue", "(\\x.x) (\\y.(\\a.a) (\\b.b))")
    assert joined == outcome.trace
    forest_plain = derivation_forest("bn", "(\\x.x) y")
    assert len(forest_plain) == 1


def test_derivation_tree_output_matches_outcome():
    term = parse_term("(\\x.\\y.y x) ((\\a.a) z) (\\w.w)")
    [tree] = derivation_forest("bv", term)
    outcome = evaluate("bv", term)
    assert alpha_eq(tree.output, outcome.result)
    assert sequence_from_tree(tree) == outcome.trace


def _check_forest_nodes(forest):
    # Children before parents: the reverse of a preorder walk.
    order, stack = [], list(forest)
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.premises)
    # id(node) -> (first, last) step index of the events in its subtree
    spans = {}

    def span(nodes):
        got = [spans[id(n)] for n in nodes if spans[id(n)] is not None]
        return (min(g[0] for g in got), max(g[1] for g in got)) if got else None

    for node in reversed(order):
        t, out = node.input, node.output
        kind = {Var: "VAR", Lam: "ABS"}.get(type(t))
        if kind is None:
            assert node.kind in ("CON", "NEU")
        else:
            assert node.kind == kind
        if kind == "VAR":
            assert node.premises == []
            assert out is t
        elif kind == "ABS":
            assert isinstance(out, Lam) and out.param == t.param
        if node.kind != "CON":
            assert node.event is None
            spans[id(node)] = span(node.premises)
            continue
        event, last = node.event, node.premises[-1]
        assert node.contractum is event.contractum
        assert last.input is node.contractum
        assert out is last.output
        step = event.step_index
        before, after = span(node.premises[:-1]), spans[id(last)]
        assert before is None or before[1] < step
        assert after is None or step < after[0]
        spans[id(node)] = (before[0] if before else step,
                           after[1] if after else step)


def _forest_terms(row):
    program = row.alias or print_spec(row.spec)
    return ([t for _, t in paper_corpus()]
            + [factorial_term(program, n) for n in range(3)])


@pytest.mark.parametrize("row", catalogue(),
                         ids=lambda row: print_spec(row.spec))
def test_every_forest_node_is_well_formed(row):
    for term in _forest_terms(row):
        outcome = evaluate(row.spec, term, 3000, record_trace=False)
        if outcome.status != CONVERGED:
            continue
        forest = derivation_forest(row.spec, term, 3000)
        assert forest[-1].output == outcome.result
        _check_forest_nodes(forest)


def test_reconstruct_sequence_worked_example():
    term = parse_term("(\\x.#I z) (#I z)")
    outcome = evaluate("bv", term)
    states = reconstruct_sequence(term, outcome.trace)
    assert len(states) == 4
    assert states[0] == term
    assert [print_term(s) for s in states[1:]] == [
        "(\\x.(\\x.x) z) z", "(\\x.x) z", "z",
    ]


@settings(max_examples=120)
@given(st.sampled_from(SPEC_POOL), closed_terms(max_leaves=12))
def test_determinism(spec, term):
    a = evaluate(spec, term, fuel=200)
    b = evaluate(spec, term, fuel=200)
    assert a.status == b.status
    assert a.fuel_used == b.fuel_used
    assert a.trace == b.trace
    if a.status == CONVERGED:
        assert a.result == b.result


@settings(max_examples=120)
@given(st.sampled_from(SPEC_POOL), closed_terms(max_leaves=12))
def test_fuel_monotone(spec, term):
    lo = evaluate(spec, term, fuel=200)
    if lo.status != CONVERGED:
        return
    hi = evaluate(spec, term, fuel=200 + 57)
    assert hi.status == CONVERGED
    assert hi.fuel_used == lo.fuel_used
    assert alpha_eq(hi.result, lo.result)
    assert hi.trace == lo.trace


@settings(max_examples=120)
@given(st.sampled_from(SPEC_POOL), closed_terms(max_leaves=12))
def test_replay_reaches_result(spec, term):
    outcome = evaluate(spec, term, fuel=200)
    if outcome.status != CONVERGED:
        return
    states = reconstruct_sequence(term, outcome.trace)
    assert len(states) == len(outcome.trace) + 1
    assert alpha_eq(states[-1], outcome.result)


@settings(max_examples=200)
@given(st.sampled_from(("bn", "bv", "ao", "he", "IIS", "SIS", "no", "sn", "ha")
                       + READBACK_ROWS),
       closed_terms(max_leaves=12))
def test_tree_sequence_matches_trace(spec, term):
    outcome = evaluate(spec, term, fuel=200)
    if outcome.status != CONVERGED:
        return
    forest = derivation_forest(spec, term, fuel=200)
    joined = sum((sequence_from_tree(tree) for tree in forest), ())
    assert joined == outcome.trace
    assert alpha_eq(forest[-1].output, outcome.result)


@settings(max_examples=120)
@given(st.sampled_from(SPEC_POOL), closed_terms(max_leaves=12))
def test_contracta_are_beta_reducts(spec, term):
    outcome = evaluate(spec, term, fuel=200)
    for event in outcome.trace or ():
        lam = event.redex.operator
        want = oracle.beta(oracle.to_db(event.redex)[1][1],
                           oracle.to_db(event.redex.operand))
        assert isinstance(lam, Lam)
        assert oracle.to_db(event.contractum) == want


# The machine answers a walk at once when its term holds no redex, and an
# operand walk when the operand is an abstraction its layer leaves alone.
# Derivation trees never take that fast path, so they are the reference
# for it.
_MEMO_ROWS = (("sn", "sn"), ("am", "am"), ("bv", "bv"), ("ha", "ha"),
              ("byValue", "bv"), ("(RE)I.ISS", "bv"))

_SHARED_OPERANDS = tuple(map(parse_term, (
    # Both copies of f's body are one object, so the second copy's
    # operand walks (a neutral's, then a redex's) meet operands that the
    # first copy's walks have already walked, some to themselves.
    "(\\f. f c (f c)) (\\x. y ((\\v.v) ((\\a.a) z)))",
    # sn's subsidiary leaves the argument fixed, and the hybrid then
    # walks the same object as a neutral's operand and reduces inside it.
    "(\\v. z v) (y (\\x. (\\a.a) x))",
)))


def _memo_terms(program):
    return (list(_SHARED_OPERANDS)
            + [factorial_term(program, n) for n in range(5)]
            + [t for _, t in paper_corpus()]
            + generate(GenConfig(seed=1337, size_max=30), 40))


@pytest.mark.parametrize("row,program", _MEMO_ROWS, ids=[r for r, _ in _MEMO_ROWS])
def test_operand_memo_matches_derivation_trees(row, program):
    for term in _memo_terms(program):
        outcome = evaluate(row, term, 3000, max_nodes=100000)
        assert outcome.fuel_used == len(outcome.trace)
        if outcome.status != CONVERGED:
            with pytest.raises(EngineError, match="fuel exhausted"):
                derivation_forest(row, term, 3000, max_nodes=100000)
            continue
        forest = derivation_forest(row, term, 3000, max_nodes=100000)
        assert outcome.result == forest[-1].output
        assert outcome.trace == sum(map(sequence_from_tree, forest), ())


@pytest.mark.parametrize("row", ("sn", "am"))
def test_strict_hybrid_factorial_of_five(row):
    outcome = evaluate(row, factorial_term(row, 5), record_trace=False)
    assert outcome.status == CONVERGED
    assert outcome.fuel_used == 8643
    assert oracle.church_decode(outcome.result) == 120


# The neutral operand p (q (q r)) (s t) is one object in both copies of
# f's body. Its first walk is deepest in the operator, before the shallow
# walk of s t; its second walk, under the k's, is the deepest of the run.
_DEEP_REWALK = "(\\f. f c (k (k (f c)))) (\\x. h (p (q (q r)) (s t)))"

# Terms with no redex, 60 levels deep: an operand that \x.x x copies,
# and a body that \x.x returns.
_DEEP_NEUTRAL = "z"
for _i in range(60):
    _DEEP_NEUTRAL = f"y{_i} ({_DEEP_NEUTRAL})"
_DEEP_OPERAND = f"(\\x.x x) ({_DEEP_NEUTRAL})"
_DEEP_BODY = "(\\x.x) (" + "".join(f"\\a{i}." for i in range(60)) + "a0 b)"

# The smallest engine.MAX_FRAMES each run passes with, as the machine that
# walked every term gave it; returning a term at once must not move it.
_FRAME_EDGES = {
    "sn-4": ("sn", factorial_term("sn", 4), 29),
    "am-4": ("am", factorial_term("am", 4), 29),
    "sn-5": ("sn", factorial_term("sn", 5), 126),
    "am-5": ("am", factorial_term("am", 5), 126),
    "bv-rewalk": ("bv", _DEEP_REWALK, 8),
    "ha-rewalk": ("ha", _DEEP_REWALK, 8),
    "bv-operand": ("bv", _DEEP_OPERAND, 61),
    "hn-operand": ("hn", _DEEP_OPERAND, 61),
    "SSI-operand": ("SSI", _DEEP_OPERAND, 3),
    "readback-operand": ("(RE)(RE).ISI", _DEEP_OPERAND, 62),
    "bv-body": ("bv", _DEEP_BODY, 1),
    "hn-body": ("hn", _DEEP_BODY, 61),
    "SSI-body": ("SSI", _DEEP_BODY, 62),
    "readback-body": ("(RE)(RE).ISI", _DEEP_BODY, 62),
}


@pytest.mark.parametrize("case", _FRAME_EDGES)
def test_operand_memo_keeps_the_frame_limit_exact(case, monkeypatch):
    row, term, edge = _FRAME_EDGES[case]
    monkeypatch.setattr(engine, "MAX_FRAMES", edge - 1)
    with pytest.raises(ResourceLimitError,
                       match="machine frame stack limit exceeded"):
        evaluate(row, term, record_trace=False)
    monkeypatch.setattr(engine, "MAX_FRAMES", edge)
    outcome = evaluate(row, term, record_trace=False)
    assert outcome.status == CONVERGED


@pytest.mark.parametrize("case", _FRAME_EDGES)
def test_a_run_at_its_frame_edge_keeps_its_whole_outcome(case, monkeypatch):
    # The trace, result and eval stage at the edge are those of a run
    # with room to spare.
    row, term, edge = _FRAME_EDGES[case]
    spare = evaluate(row, term)
    monkeypatch.setattr(engine, "MAX_FRAMES", edge)
    assert evaluate(row, term) == spare


# Only a recording run builds addresses, so the untraced walk pushes no
# address cells; every outcome field but the trace must not notice.
_AGREEMENT_TERMS = ([t for _, t in paper_corpus()]
                    + [factorial_term(program, n)
                       for program in ("bn", "bv", "ho") for n in range(3)])


def _untraced_view(outcome):
    if outcome is None:
        return None
    return (outcome.status, outcome.result, outcome.fuel_used,
            _untraced_view(outcome.stage))


@pytest.mark.parametrize("row", catalogue(), ids=lambda r: print_spec(r.spec))
def test_traced_and_untraced_runs_agree(row):
    for term in _AGREEMENT_TERMS:
        traced = evaluate(row.spec, term, 3000)
        untraced = evaluate(row.spec, term, 3000, record_trace=False)
        assert untraced.trace is None
        assert _untraced_view(traced) == _untraced_view(untraced)


@pytest.mark.parametrize("traced", (True, False), ids=("traced", "untraced"))
def test_size_capped_run_hits_max_nodes_either_way(traced, corpus_1337):
    with pytest.raises(ResourceLimitError,
                       match="substitution allocation limit exceeded"):
        evaluate("SSI", corpus_1337[527], 20_000, record_trace=traced,
                 max_nodes=250_000)


@pytest.mark.parametrize("guard", ("max_nodes", "frames"))
def test_a_guard_error_carries_no_frame_of_the_walk(
        guard, monkeypatch, corpus_1337):
    # Those frames hold the run's stacks and the substitution's memo
    # tables, which would outlive the run for as long as the error does.
    if guard == "frames":
        monkeypatch.setattr(engine, "MAX_FRAMES", 5)
    with pytest.raises(ResourceLimitError) as info:
        evaluate("SSI", corpus_1337[527], 20_000, max_nodes=20_000)
    assert str(info.value) == ("substitution allocation limit exceeded"
                               if guard == "max_nodes"
                               else "machine frame stack limit exceeded")
    walk = {engine._Machine.run.__code__, engine._Machine._contract.__code__,
            terms._subst.__code__, terms._subst_loop.__code__}
    codes = []
    tb = info.value.__traceback__
    while tb is not None:
        codes.append(tb.tb_frame.f_code)
        tb = tb.tb_next
    assert codes and not walk & set(codes)
    assert info.value.__context__ is None


# The machine pauses the cyclic collector while it runs (see the engine
# docstring). Each case stops a run in its own way; the collector must be
# back in the caller's state afterwards, however the run ended.
def _converged(corpus):
    assert evaluate("bv", "(\\x.#I z) (#I z)").status == CONVERGED


def _fuel_exhausted(corpus):
    assert evaluate("bv", "(\\x.y) #Omega", 100).status == FUEL_EXHAUSTED


def _size_capped(corpus):
    with pytest.raises(ResourceLimitError, match="allocation limit"):
        evaluate("SSI", corpus[527], max_nodes=20_000)


def _frame_limited(corpus):
    with pytest.raises(ResourceLimitError, match="frame stack limit"):
        evaluate("no", _FRAME_HUNGRY, 1000)


def _substitute_raises(corpus):
    with pytest.raises(RuntimeError, match="substitute failed"):
        evaluate("bv", "(\\x.#I z) (#I z)")


def _forest_out_of_fuel(corpus):
    with pytest.raises(EngineError, match="fuel exhausted"):
        derivation_forest("bv", "(\\x.y) #Omega", fuel=50)


_PAUSED_RUNS = {f.__name__[1:]: f for f in (
    _converged, _fuel_exhausted, _size_capped, _frame_limited,
    _substitute_raises, _forest_out_of_fuel)}


@pytest.fixture
def collector():
    """Turns the cyclic collector back on after the test."""
    yield
    gc.enable()


@pytest.mark.parametrize("caller_on", (True, False), ids=("on", "off"))
@pytest.mark.parametrize("run", sorted(_PAUSED_RUNS))
def test_the_collector_is_paused_only_while_a_run_lasts(
        run, caller_on, collector, monkeypatch, corpus_1337):
    seen = []
    real = engine.substitute

    def spy(*args):
        seen.append(gc.isenabled())
        if run == "substitute_raises":
            raise RuntimeError("substitute failed")
        return real(*args)

    monkeypatch.setattr(engine, "substitute", spy)
    if run == "frame_limited":
        monkeypatch.setattr(engine, "MAX_FRAMES", 5)
    (gc.enable if caller_on else gc.disable)()
    _PAUSED_RUNS[run](corpus_1337)
    assert seen and not any(seen)
    assert gc.isenabled() == caller_on


def test_a_run_leaves_no_cyclic_garbage(collector, monkeypatch, corpus_1337):
    # The premise that makes the pause exact. Guard errors are caught
    # without binding them: a bound exception can make a cycle through its
    # traceback.
    rows, terms = catalogue(), [t for _, t in paper_corpus()]
    runs = ((evaluate, {"record_trace": False}), (evaluate, {}),
            (derivation_forest, {}))
    gc.disable()
    gc.collect()
    for row in rows:
        for term in terms:
            for run, options in runs:
                try:
                    run(row.spec, term, 300, max_nodes=20_000, **options)
                except (EngineError, ResourceLimitError):
                    pass
    _size_capped(corpus_1337)
    monkeypatch.setattr(engine, "MAX_FRAMES", 5)
    _frame_limited(corpus_1337)
    assert gc.collect() == 0
    # The check can fail: a deliberate cycle is found.
    loop = []
    loop.append(loop)
    del loop
    assert gc.collect() == 1
