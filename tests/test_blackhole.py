"""The blackhole: a divergent run whose pending judgment repeats skips its
whole periods, and nothing observable may tell. Every check here but
the one on time holds without the skip too, which has no switch; the
pinned values were recorded with an engine that walked every period."""

import hashlib
import time

import pytest

from lambdalab import (
    FUEL_EXHAUSTED,
    EngineError,
    GenConfig,
    ReadbackSpec,
    ResourceLimitError,
    catalogue,
    derivation_forest,
    evaluate,
    fuse,
    generate,
    paper_corpus,
    parse_term,
    print_term,
    reconstruct_sequence,
)
from lambdalab import engine

# The first 500 seed-1337 corpus terms on which some readback row or
# its fused hybrid runs out of fuel at 3000: the heavy fusion items.
HEAVY_CORPUS = (124, 172, 224, 282, 302, 430)


def _runs():
    """The 22 readback rows and their fused hybrids over the paper terms
    and the heavy corpus terms."""
    corpus = generate(GenConfig(seed=1337, size_max=30), 500)
    terms = ([t for _, t in paper_corpus()]
             + [corpus[i] for i in HEAVY_CORPUS])
    specs = []
    for row in catalogue():
        if isinstance(row.spec, ReadbackSpec):
            specs += [row.spec, fuse(row.spec).hybrid]
    return [(spec, term) for spec in specs for term in terms]


RUNS = _runs()


def _divergent():
    return [(spec, term) for spec, term in RUNS
            if evaluate(spec, term, 3000, record_trace=False).status
            == FUEL_EXHAUSTED]


def test_replay_covers_the_skipped_periods():
    # At fuel 400 the blackhole confirms a repeat at step 32 at the
    # earliest (its checks fall on steps 16, 32, 48, ...) and
    # synthesises every later period but the last ones; each synthesised
    # event must still find its redex at its address.
    for spec, term in RUNS:
        outcome = evaluate(spec, term, 400)
        assert len(outcome.trace) == outcome.fuel_used
        states = reconstruct_sequence(term, outcome.trace)
        if outcome.result is not None:
            assert states[-1] == outcome.result


def test_a_smaller_budget_gives_a_prefix_of_the_trace():
    # Each budget samples other contractions (every 16th, counted from
    # the fuel left) and skips from another point.
    fuels = list(range(41)) + [47, 64, 100, 255, 777]
    divergent = _divergent()
    assert 300 < len(divergent) < len(RUNS)
    for spec, term in divergent:
        full = evaluate(spec, term, 3000).trace
        assert len(full) == 3000
        for fuel in fuels:
            outcome = evaluate(spec, term, fuel)
            assert outcome.status == FUEL_EXHAUSTED
            assert outcome.trace == full[:fuel], (spec, print_term(term), fuel)


def test_every_divergent_run_skips_after_at_most_40_contractions(monkeypatch):
    # At fuel 3000 the checks fall on steps 8, 24, 40, ...; a repeat of
    # period 16 is confirmed at step 24, and the whole periods but the
    # last are skipped, so 16 more contractions run for real.
    divergent = _divergent()  # before the spy, which it would feed
    skipped = []
    skip = engine._Machine._skip

    def spy(machine, *args):
        before = machine.fuel
        skip(machine, *args)
        skipped.append(before - machine.fuel)

    monkeypatch.setattr(engine._Machine, "_skip", spy)
    for spec, term in divergent:
        skipped.clear()
        outcome = evaluate(spec, term, 3000, record_trace=False)
        assert len(skipped) == 1 and skipped[0] > 0, (spec, print_term(term))
        assert outcome.fuel_used - skipped[0] <= 40, (spec, print_term(term))


def test_a_repeat_must_share_like_the_first_occurrence():
    # substitute memoises by node identity, so two equal terms with
    # different sharing may allocate differently in the same period.
    parsed = parse_term("(\\x.x x) (\\x.x x)")
    step = evaluate("bn", parsed, 1).trace[0].contractum
    again = evaluate("bn", step, 1).trace[0].contractum
    assert parsed == step == again
    assert not engine._same_dag(parsed, step)
    assert engine._same_dag(step, again)


NODES = "substitution allocation limit exceeded"
FRAMES = "machine frame stack limit exceeded"
TABLE_TERMS = (
    "(\\x.y) ((\\x.x x) \\x.x x)",
    "(\\x.y) (x ((\\x.x x) \\x.x x))",
    "(\\x.y) \\x.(\\x.x x) \\x.x x",
    "(\\v1.v1) ((\\v1.v1 v1) \\v1.v1 v1)",
    "(\\v1.v1 v1) \\v1.v1 v1",
    "(\\x.(\\f.(\\x.f (x x)) \\x.f (x x)) x) \\w.w",
    "(\\v1.v1 v1) \\v1.(\\v2.(\\v3.v3) v1) (v1 v1)",
)
# (row, term, fuel, max_nodes, engine.MAX_FRAMES, and the error the run
# raises or the sha256 prefix of its trace when it runs out of fuel).
# Every case skips periods, then runs out partway through one; the last
# five terms include runs whose stack and allocations both grow each
# period, with limits that race one another.
TABLE = (
    ('SSH<>ISS', 0, 2999, 1000000, 2000000, '082657309376acd4'),
    ('SSH<>ISS', 0, 3000, 777, 2000000, NODES),
    ('(RE)R.ISS', 1, 203, 1000000, 2000000, '88dc949034aed4f7'),
    ('(RE)R.ISS', 1, 3000, 2101, 2000000, NODES),
    ('R(RE).SSI', 2, 1234, 1000000, 2000000, '041cc2547727a0d0'),
    ('R(RE).SSI', 2, 3000, 777, 2000000, NODES),
    ('SSH<>ISS', 1, 77, 1000000, 2000000, 'e141bc34912aea4a'),
    ('SSH<>ISS', 1, 3000, 2101, 2000000, NODES),
    ('HIH<>IIS', 3, 77, 1000000, 2000000, '07574f8a2977188a'),
    ('HIH<>IIS', 3, 3000, 2101, 2000000, NODES),
    ('HIS<>III', 4, 2999, 1000000, 2000000, 'f4aac8ccb41a7a4b'),
    ('HIS<>III', 4, 3000, 777, 2000000, NODES),
    ('(RE)I.III', 4, 1234, 1000000, 2000000, 'cde0125188e18c8c'),
    ('(RE)I.III', 4, 3000, 333, 2000000, NODES),
    ('HSI<>ISI', 3, 1234, 1000000, 2000000, '7e23ca5edb92ca03'),
    ('HSI<>ISI', 3, 3000, 333, 2000000, NODES),
    ('ISH<>ISI', 5, 1234, 1000000, 2000000, '0600c08c7c1d50c8'),
    ('ISH<>ISI', 5, 3000, 333, 2000000, NODES),
    ('ISH<>ISI', 5, 3000, 1000000, 2345, FRAMES),
    ('ISH<>ISI', 5, 3000, 2500, 1300, NODES),
    ('I(RE).ISI', 5, 1234, 1000000, 2000000, '0600c08c7c1d50c8'),
    ('I(RE).ISI', 5, 3000, 777, 2000000, NODES),
    ('I(RE).ISI', 5, 3000, 1000000, 777, FRAMES),
    ('I(RE).ISI', 5, 3000, 4000, 1300, FRAMES),
    ('SSH<>ISI', 5, 2999, 1000000, 2000000, 'be4aa40a90bf5844'),
    ('SSH<>ISI', 5, 3000, 333, 2000000, NODES),
    ('SSH<>ISI', 5, 3000, 1000000, 201, FRAMES),
    ('SSH<>ISI', 5, 3000, 2500, 2000, NODES),
    ('HSS<>ISS', 5, 1001, 1000000, 2000000, 'f8ac7aac97a4c500'),
    ('HSS<>ISS', 5, 3000, 2101, 2000000, NODES),
    ('HSS<>ISS', 5, 3000, 1000000, 201, FRAMES),
    ('HSS<>ISS', 5, 3000, 4000, 1300, FRAMES),
    ('ER.ISS', 6, 1001, 1000000, 2000000, 'c2b47206ef44fa65'),
    ('ER.ISS', 6, 3000, 333, 2000000, NODES),
    ('ER.ISS', 6, 3000, 1000000, 201, FRAMES),
    ('ER.ISS', 6, 3000, 4000, 700, FRAMES),
    ('(RE)I.ISS', 6, 2999, 1000000, 2000000, '5cea9959d54c1d22'),
    ('(RE)I.ISS', 6, 3000, 333, 2000000, NODES),
    ('(RE)I.ISS', 6, 3000, 1000000, 1001, FRAMES),
    ('(RE)I.ISS', 6, 3000, 2500, 700, NODES),
    ('SSH<>ISI', 6, 77, 1000000, 2000000, 'b6a6bfbf87cc7795'),
    ('SSH<>ISI', 6, 3000, 333, 2000000, NODES),
    ('SSH<>ISI', 6, 3000, 1000000, 777, FRAMES),
    ('SSH<>ISI', 6, 3000, 1500, 700, NODES),
    ('(RE)(RE).ISI', 6, 2999, 1000000, 2000000, '5cea9959d54c1d22'),
    ('(RE)(RE).ISI', 6, 3000, 2101, 2000000, NODES),
    ('(RE)(RE).ISI', 6, 3000, 1000000, 2345, FRAMES),
    ('(RE)(RE).ISI', 6, 3000, 2500, 700, NODES),
)


def _trace_digest(trace):
    lines = (f"{e.step_index}|{''.join(e.position)}|{print_term(e.redex)}|"
             f"{print_term(e.contractum)}" for e in trace)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", TABLE, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-{c[3]}-{c[4]}")
def test_limits_run_out_where_they_did_without_the_skip(case, monkeypatch):
    spec, term, fuel, max_nodes, max_frames, expected = case
    term = TABLE_TERMS[term]
    monkeypatch.setattr(engine, "MAX_FRAMES", max_frames)
    for traced in (True, False):
        run = lambda: evaluate(spec, term, fuel, record_trace=traced,
                               max_nodes=max_nodes)
        if expected in (NODES, FRAMES):
            with pytest.raises(ResourceLimitError, match=expected):
                run()
            continue
        outcome = run()
        assert outcome.status == FUEL_EXHAUSTED
        assert outcome.fuel_used == fuel
        if traced:
            assert _trace_digest(outcome.trace) == expected


_DIVERGENT_OPERAND = "(\\x.y) #Omega"


@pytest.mark.parametrize("limits,error,message", [
    ({}, EngineError, "fuel exhausted before the derivation completed"),
    ({"max_nodes": 50}, ResourceLimitError, NODES),
    ({"max_nodes": 5000}, ResourceLimitError, NODES),
    ({"max_frames": 50}, ResourceLimitError, FRAMES),
    ({"max_frames": 5000}, ResourceLimitError, FRAMES),
])
def test_divergent_derivation_fails_fast(limits, error, message, monkeypatch):
    # The whole default budget took about a second and 100 MB when every
    # period was walked.
    limits = dict(limits)
    if "max_frames" in limits:
        monkeypatch.setattr(engine, "MAX_FRAMES", limits.pop("max_frames"))
    start = time.perf_counter()
    with pytest.raises(error) as raised:
        derivation_forest("bv", _DIVERGENT_OPERAND, **limits)
    assert type(raised.value) is error
    assert str(raised.value) == message
    assert time.perf_counter() - start < 0.25


# Two runs that skip with a deep stack behind them. Under bv, the
# D-spine x99 (x98 (... (x0 ((\q.q) w)))) is an operand walked 100
# frames deep before the divergent operand runs, so the walk around the
# repeat keeps a stored peak far above the running one. Under bn, the
# operator walk of 100 applications of \a0. ... \a99. W W, with
# W = \x.x x x, leaves the running peak itself far above the stack at
# the repeat, and no operand walk resets it.
_SPINE = "(\\q.q) w"
for _i in range(100):
    _SPINE = f"x{_i} ({_SPINE})"
_BINDERS = "".join(f"\\a{i}." for i in range(100))
_DEEP_PEAKS = {
    "stored": ("bv", f"(\\a.\\z.y) ({_SPINE}) "
                     "((\\x.f (x x)) (\\x.f (x x)))"),
    "running": ("bn", "(" * 100 + f"({_BINDERS}(\\x.x x x) (\\x.x x x))"
                      + " p)" * 100),
}


def _no_skip(machine, anchor, path, peak):
    machine.anchor = machine.span = None


def _limited(spec, term, fuel):
    try:
        outcome = evaluate(spec, term, fuel)
    except ResourceLimitError as error:
        return str(error)
    return outcome.status, outcome.fuel_used, tuple(outcome.trace)


@pytest.mark.parametrize("case", _DEEP_PEAKS)
def test_a_skip_under_a_deeper_peak_keeps_the_frame_limit(case, monkeypatch):
    # The skip bounds its periods by the running peak alone: the peaks
    # the open walks keep belong to frames beneath the repeat, which
    # never pop again.
    spec, term = _DEEP_PEAKS[case]
    seen = []
    skip = engine._Machine._skip

    def spy(machine, anchor, path, peak):
        stored = [f[6] for f in machine.frames if f[0] == engine._ARG]
        seen.append((peak, len(machine.frames), max(stored, default=0)))
        skip(machine, anchor, path, peak)

    monkeypatch.setattr(engine._Machine, "_skip", spy)
    assert evaluate(spec, term, 3000).status == FUEL_EXHAUSTED
    [(peak, depth, stored)] = seen
    assert stored > peak if case == "stored" else peak > depth + 50
    monkeypatch.setattr(engine._Machine, "_skip", skip)

    for fuel in (3000, 500):
        outcomes = set()
        for limit in sorted({*range(20, 1000, 29), *range(1000, 3010, 251),
                             fuel - 1, fuel}):
            monkeypatch.setattr(engine, "MAX_FRAMES", limit)
            skipped = _limited(spec, term, fuel)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine._Machine, "_skip", _no_skip)
                walked = _limited(spec, term, fuel)
            assert skipped == walked, (fuel, limit)
            outcomes.add(skipped == FRAMES)
        assert outcomes == {True, False}


def test_each_spec_is_validated_once(monkeypatch):
    engine._build.cache_clear()
    calls = []
    validate = engine.validate
    monkeypatch.setattr(engine, "validate",
                        lambda spec: calls.append(spec) or validate(spec))
    messages = []
    for _ in range(3):
        # bv is ISS: a parsed alias and its encoding are one spec.
        assert evaluate("bv", "(\\x.x) y").fuel_used == 1
        assert evaluate("ISS", "(\\x.x) y", record_trace=False).fuel_used == 1
        with pytest.raises(EngineError) as raised:
            evaluate("HHH<>III", "x")
        messages.append(str(raised.value))
    assert len(calls) == 2
    assert messages == [messages[0]] * 3
    assert messages[0].startswith("cannot run HHH<>III (spurious): H3: ")
