"""Compact traces: a run that skips its whole periods records the period
once, and its Trace builds the skipped events when they are read. Every
check here compares against materialised events: the walk with the
blackhole off, or tuple(trace) put in place of the Trace."""

import tracemalloc

import pytest

from lambdalab import (
    BOTH_EXHAUSTED_EQUAL_PREFIX,
    DIFFER,
    Outcome,
    ReadbackSpec,
    catalogue,
    compare,
    evaluate,
    fuse,
    paper_corpus,
    parse_term,
    print_spec,
    print_term,
)
from lambdalab import engine, lab
from lambdalab.engine import Trace, TraceEvent
from test_blackhole import RUNS, _no_skip

FUELS = (3000, 400, 47)


def _walked(spec, term, fuel):
    """The run with the blackhole off: every period walked, every event
    stored."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine._Machine, "_skip", _no_skip)
        outcome = evaluate(spec, term, fuel)
    assert outcome.trace.skip is None
    return tuple(outcome.trace)


def _divergent(fuel):
    runs = []
    for spec, term in RUNS:
        outcome = evaluate(spec, term, fuel)
        if outcome.trace.skip is not None:
            runs.append((spec, term, outcome))
    return runs


def test_a_compact_trace_is_the_walked_tuple():
    divergent = _divergent(400)
    assert len(divergent) > 300
    for spec, term, outcome in divergent:
        assert tuple(outcome.trace) == _walked(spec, term, 400), (
            print_spec(spec), print_term(term))


@pytest.mark.parametrize("fuel", [400, 3000])
def test_a_trace_reads_like_its_tuple(fuel):
    for spec, term, outcome in _divergent(fuel):
        trace = outcome.trace
        flat = tuple(trace)
        where = (print_spec(spec), print_term(term))
        assert isinstance(trace, Trace)
        n = len(flat)
        assert len(trace) == n == fuel, where
        assert tuple(reversed(trace)) == flat[::-1], where
        for i in range(n):
            assert trace[i] == flat[i], (where, i)
            assert trace[i - n] == flat[i - n], (where, i - n)
        for i in (n, n + 1, -n - 1, -n - 5):
            with pytest.raises(IndexError):
                trace[i]
        start, length, count = trace.skip[:3]
        stop = start + (count + 1) * length
        for window in (slice(5, 77), slice(None, None, 97),
                       slice(None, None, -89), slice(-20, None),
                       slice(start - 3, start + 2 * length + 5),
                       slice(stop + 3, stop - 2 * length - 5, -3),
                       slice(n + 10, None), slice(None, -n - 10)):
            assert type(trace[window]) is tuple
            assert trace[window] == flat[window], (where, window)


def test_a_trace_compares_like_its_tuple():
    spec, term, outcome = _divergent(400)[0]
    trace = outcome.trace
    flat = tuple(trace)
    again = evaluate(spec, term, 400).trace
    shorter = evaluate(spec, term, 399).trace
    assert again is not trace
    for same in (flat, again):
        assert trace == same and same == trace
        assert not (trace != same) and not (same != trace)
    for other in (flat[:-1], shorter, flat[:-1] + (flat[0],)):
        assert trace != other and other != trace
        assert not (trace == other) and not (other == trace)
    assert trace != list(flat) and list(flat) != trace
    # A trace hashes by its length and first event, an equal trace alike.
    assert hash(trace) == hash(again) == hash((len(flat), flat[0]))
    assert hash(shorter) != hash(trace)
    assert hash(flat) == hash(tuple(again))
    converged = evaluate("bn", "(\\x.x) y").trace
    assert converged.skip is None
    assert converged == (converged[0],) and converged != ()


def test_the_stage_trace_is_the_prefix_of_the_run():
    seen = 0
    for spec, term in RUNS:
        if not isinstance(spec, ReadbackSpec):
            continue
        for fuel in FUELS:
            outcome = evaluate(spec, term, fuel)
            if outcome.stage is None:
                continue
            seen += 1
            stage = outcome.stage.trace
            assert isinstance(stage, Trace)
            assert stage == tuple(outcome.trace)[:outcome.stage.fuel_used]
            assert stage == evaluate(spec.ev, term, fuel).trace
    assert seen > 100


def _with_trace(outcome, trace):
    return Outcome(outcome.status, outcome.result, trace, outcome.fuel_used,
                   outcome.stage)


def _same_verdict(oa, ob):
    """The compact verdict and the one on tuple(trace), with the first
    step at which the traces part; returns the verdict."""
    fa, fb = tuple(oa.trace), tuple(ob.trace)
    assert lab._first_difference(oa.trace, ob.trace) == \
        lab._first_difference(fa, fb)
    got = lab._compare_outcomes(oa, ob)
    flat = lab._compare_outcomes(_with_trace(oa, fa), _with_trace(ob, fb))
    assert got.kind == flat.kind
    if flat.witness is None:
        assert got.witness is None
    else:
        i, pair = got.witness
        j, flat_pair = flat.witness
        assert i == j
        assert ([lab.event_json(e) for e in pair]
                == [lab.event_json(e) for e in flat_pair])
    return got


def _shape(outcome):
    skip = outcome.trace.skip
    return None if skip is None else skip[:3]


def test_the_matcher_agrees_with_the_event_by_event_scan():
    # Each readback row against its fused hybrid and against the row
    # eleven places on in the catalogue, whose eval stage differs.
    rows = [r.spec for r in catalogue() if isinstance(r.spec, ReadbackSpec)]
    terms = list(dict.fromkeys(term for _, term in RUNS))
    kinds = set()
    for fuel in FUELS:
        runs = {}

        def run(spec, term):
            key = (spec, id(term))
            if key not in runs:
                runs[key] = evaluate(spec, term, fuel)
            return runs[key]

        for k, row in enumerate(rows):
            for other in (fuse(row).hybrid, rows[(k + 11) % len(rows)]):
                for term in terms:
                    oa, ob = run(row, term), run(other, term)
                    verdict = _same_verdict(oa, ob)
                    heads = None
                    if _shape(oa) is not None and _shape(oa) == _shape(ob):
                        heads = oa.trace.skip[3] == ob.trace.skip[3]
                    kinds.add((verdict.kind, heads))
    assert (BOTH_EXHAUSTED_EQUAL_PREFIX, True) in kinds
    assert (DIFFER, False) in kinds


# A loop of period 3, which the blackhole samples every 16 contractions:
# rows that walk it whole skip 48-event periods from several starts,
# rows that first dive into the operand 16-event ones.
PERIOD_THREE = "(\\x.(\\y.y) ((\\y.y) (x x))) (\\x.(\\y.y) ((\\y.y) (x x)))"


def test_the_matcher_agrees_where_the_skips_differ_in_shape():
    # One run of each shape the catalogue's rows give against one of
    # each other shape.
    term = parse_term(PERIOD_THREE)
    for fuel in (1000, 400):
        by_shape = {}
        for row in catalogue():
            outcome = evaluate(row.spec, term, fuel)
            by_shape.setdefault(_shape(outcome), outcome)
        shapes = [s for s in by_shape if s is not None]
        pairs = [(a, b) for a in shapes for b in shapes if a[:2] != b[:2]]
        assert pairs
        for a, b in pairs:
            _same_verdict(by_shape[a], by_shape[b])


def _tampered(trace):
    """Traces that differ from trace only in its head, its step, or one
    event after the skipped copies; the events before the copies agree."""
    start, length, count, head, step = trace.skip
    events = trace._events
    flip = {"F": "A", "A": "F", "B": "F"}
    last = events[-1]
    moved = TraceEvent(last.step_index, last.position + ("F",),
                       last.redex, last.contractum)
    return (Trace(events, (start, length, count, head[:-1] + (flip[head[-1]],),
                           step)),
            Trace(events, (start, length, count, head,
                           step[:-1] + (flip[step[-1]],))),
            Trace(events[:-1] + (moved,), trace.skip))


def test_the_shortcut_checks_head_step_and_tail():
    # The events before the copies fix head and step in a trace the
    # engine records, so only a tampered trace can tell whether the
    # shortcut compares them.
    seen = 0
    for spec, term in RUNS[::3]:
        outcome = evaluate(spec, term, 400)
        skip = outcome.trace.skip
        if skip is None or not (skip[3] and skip[4]) or \
                len(outcome.trace._events) == skip[0] + skip[1]:
            continue
        seen += 1
        for tampered in _tampered(outcome.trace):
            assert tampered != outcome.trace
            other = _with_trace(outcome, tampered)
            for pair in ((outcome, other), (other, outcome)):
                assert _same_verdict(*pair).kind != BOTH_EXHAUSTED_EQUAL_PREFIX
    assert seen > 5


def test_compare_at_the_default_fuel_stays_small():
    # Each run skips about 6,000 periods, and the addresses past them
    # are about 100,000 letters long.
    term = dict(paper_corpus())["eta-fixpoint"]
    tracemalloc.start()
    try:
        verdict = compare("ER.ISS", "SSH<>ISS", term)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.kind == BOTH_EXHAUSTED_EQUAL_PREFIX
    assert peak < 50 * 2**20


def _comparable(p, q):
    n = min(len(p), len(q))
    return p[:n] == q[:n]


def _greedy(ta, tb, skip_unmatched):
    """_match by plain scans over tuples: the first pairwise difference,
    then each event of ta against the earliest remaining comparable
    event of tb."""
    ta, tb = tuple(ta), tuple(tb)
    i = 0
    while i < min(len(ta), len(tb)) and lab._events_equal(ta[i], tb[i]):
        i += 1
    if i == len(ta) == len(tb):
        return None, None
    left = list(tb[i:])
    for e in ta[i:]:
        k = next((k for k, f in enumerate(left)
                  if _comparable(e.position, f.position)), None)
        if k is None:
            if skip_unmatched:
                continue
            return i, (e, None)
        if not lab._events_equal(e, left[k]):
            return i, (e, left[k])
        del left[k]
    return i, None


def test_the_matcher_agrees_with_a_linear_scan():
    # Readback rows against their fused hybrids and against other rows,
    # converged and exhausted, 348 of them past a skip at fuel 120: the
    # trie takes tb's events only as far as each query needs, and must
    # pick the events a full scan picks.
    rows = [r.spec for r in catalogue() if isinstance(r.spec, ReadbackSpec)]
    terms = list(dict.fromkeys(term for _, term in RUNS))
    terms += [t for _, t in paper_corpus()]
    seen = 0
    for k, row in enumerate(rows):
        for other in (fuse(row).hybrid, rows[(k + 5) % len(rows)]):
            for term in terms:
                oa, ob = evaluate(row, term, 120), evaluate(other, term, 120)
                for skip_unmatched in (False, True):
                    got = lab._match(oa.trace, ob.trace, skip_unmatched)
                    want = _greedy(oa.trace, ob.trace, skip_unmatched)
                    assert got[0] == want[0]
                    assert (got[1] is None) == (want[1] is None)
                    if got[1] is not None:
                        assert ([lab.event_json(e) for e in got[1]]
                                == [lab.event_json(e) for e in want[1]])
                        seen += 1
    assert seen > 400


def test_a_compare_that_parts_early_takes_few_events(monkeypatch):
    # Both runs skip periods thousands of events long at the default
    # fuel, but their traces part at step 3: the trie takes no more of
    # the second trace than the first comparable event needs.
    taken = []
    insert = lab._PositionTrie._insert

    def spy(trie, idx, position):
        taken.append(idx)
        insert(trie, idx, position)

    monkeypatch.setattr(lab._PositionTrie, "_insert", spy)
    term = dict(paper_corpus())["eta-fixpoint"]
    verdict = compare("I(RE).III", "I(RE).ISI", term)
    assert verdict.kind == DIFFER
    i, pair = verdict.witness
    assert i == 3
    assert [lab.event_json(e) for e in pair] == [
        {"i": 3, "path": "",
         "redex": "(\\w.w) ((\\x.(\\w.w) (x x)) \\x.(\\w.w) (x x))",
         "contractum": "(\\x.(\\w.w) (x x)) \\x.(\\w.w) (x x)"},
        {"i": 3, "path": "A",
         "redex": "(\\x.(\\w.w) (x x)) \\x.(\\w.w) (x x)",
         "contractum": "(\\w.w) ((\\x.(\\w.w) (x x)) \\x.(\\w.w) (x x))"}]
    assert taken == [3]


def test_outcomes_and_verdicts_that_hold_events_hash():
    outcome = evaluate("bv", "(\\x.x) y")
    assert hash(outcome) == hash(evaluate("bv", "(\\x.x) y"))
    assert {outcome: 1}[evaluate("bv", parse_term("(\\x.x) y"))] == 1
    verdict = compare("bn", "no", "(\\x.\\w.x) ((\\a.a) z)")
    assert verdict.kind == DIFFER and verdict.witness is not None
    assert hash(verdict) == hash(compare("bn", "no",
                                         "(\\x.\\w.x) ((\\a.a) z)"))
    staged = evaluate("byValue", "x ((\\a.a) u1)")
    assert staged.stage is not None
    assert hash(staged) == hash(evaluate("byValue", "x ((\\a.a) u1)"))


def test_hashing_a_skipped_trace_builds_no_event(monkeypatch):
    outcome, again = (evaluate("bn", "#Omega", 100_000) for _ in range(2))
    assert outcome.trace.skip is not None
    built = []
    monkeypatch.setattr(engine, "TraceEvent",
                        lambda *args: built.append(args) or TraceEvent(*args))
    assert hash(outcome) == hash(again)
    assert built == []
