"""Differential checking of strategies.

compare() runs two strategies on one term and grades how close the runs
are: identical traces, identical up to commuting redexes, equal results
only, or genuinely different. Commutation is Mazurkiewicz-style trace
equivalence where two contractions are independent exactly when their
addresses are disjoint, neither a prefix of the other; that is what
reordering work between the operands of a neutral looks like in a trace.

Every grade comes from one matcher, _match: a pairwise scan finds the
first step where the traces part, then a trie over one trace's addresses
matches each remaining event of the other to its earliest comparable one.
Two runs that skip the same periods are scanned without building the
skipped events (_first_difference).

On top of that sit the corpus drivers: compare_corpus runs compare()
over a term list, check_absorption tests whether running one strategy
after another changes anything, and check_fusion_row tests a staged
readback against its fused hybrid. Each is a per-term entry function
mapped over the corpus by one loop, _map_corpus, which aggregates the
verdicts in corpus order. demo_factorial runs the factorial programs
that exercise every named strategy. event_json and trace_json render
events and runs for JSON output.
"""

from __future__ import annotations

import math
from collections import deque

from .engine import (
    CONVERGED,
    DEFAULT_FUEL,
    DEFAULT_MAX_NODES,
    Outcome,
    Trace,
    TraceEvent,
    evaluate,
)
from .notation import (
    NotationError,
    StrategySpec,
    fuse,
    parse_spec,
    print_spec,
    result_form,
)
from .records import FrozenRecord, Record
from .terms import (
    App,
    FormClass,
    ResourceLimitError,
    Term,
    alpha_eq,
    builtins,
    churchN,
    classify,
    print_term,
)

ONE_STEP_EQUAL = "one-step-equal"
EQUAL_MCR = "equal-mcr"
BIG_STEP_EQUAL_ONLY = "big-step-equal-only"
DIFFER = "differ"
BOTH_EXHAUSTED_EQUAL_PREFIX = "both-exhausted-equal-prefix"
BOTH_EXHAUSTED_MCR_PREFIX = "both-exhausted-mcr-prefix"
INCONCLUSIVE = "inconclusive"

COMPARE_KINDS = (
    ONE_STEP_EQUAL,
    EQUAL_MCR,
    BIG_STEP_EQUAL_ONLY,
    DIFFER,
    BOTH_EXHAUSTED_EQUAL_PREFIX,
    BOTH_EXHAUSTED_MCR_PREFIX,
    INCONCLUSIVE,
)


class CompareVerdict(FrozenRecord):
    __match_args__ = ("kind", "witness")

    def __init__(self, kind: str, witness: tuple | None = None):
        self.__dict__.update(kind=kind, witness=witness)


class CorpusReport(Record):
    """The verdicts of one corpus driver. verdicts and counterexamples
    default to a new dict and a new list, which the driver fills."""

    __match_args__ = ("a", "b", "seed", "fuel", "n", "verdicts",
                      "counterexamples", "mcr")

    def __init__(self, a: str, b: str, seed: int | None, fuel: int, n: int,
                 verdicts: dict[str, int] | None = None,
                 counterexamples: list[dict] | None = None,
                 mcr: bool | None = None):
        self.a = a
        self.b = b
        self.seed = seed
        self.fuel = fuel
        self.n = n
        self.verdicts = {} if verdicts is None else verdicts
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.mcr = mcr

    __hash__ = None

    def to_json(self) -> dict:
        """Every field but mcr, copied down to the leaves, so the result
        shares no dict or list with the report."""
        return _copied({"a": self.a, "b": self.b, "seed": self.seed,
                        "fuel": self.fuel, "n": self.n,
                        "verdicts": self.verdicts,
                        "counterexamples": self.counterexamples})


def _copied(x):
    if isinstance(x, dict):
        return {k: _copied(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(map(_copied, x))
    return x


_TERM_STR_LIMIT = 100000


def _term_str(t: Term | None) -> str | None:
    if t is None:
        return None
    s = print_term(t)
    if len(s) > _TERM_STR_LIMIT:
        s = s[:_TERM_STR_LIMIT] + "..."
    return s


def event_json(e: TraceEvent | None) -> dict | None:
    """One contraction as a JSON-ready dict; terms longer than 100,000
    characters are cut short."""
    if e is None:
        return None
    return {
        "i": e.step_index,
        "path": "".join(e.position),
        "redex": _term_str(e.redex),
        "contractum": _term_str(e.contractum),
    }


def trace_json(spec: StrategySpec | str, term: Term, outcome: Outcome) -> dict:
    """One evaluation as a JSON-ready dict.

    Carries the strategy, input, status, result (null unless converged),
    fuel spent, and the contraction events with their tree addresses."""
    spec_text = spec if isinstance(spec, str) else print_spec(spec)
    return {
        "spec": spec_text,
        "term": _term_str(term),
        "status": outcome.status,
        "result": _term_str(outcome.result) if outcome.status == CONVERGED else None,
        "fuel_used": outcome.fuel_used,
        "trace": [event_json(e) for e in (outcome.trace or ())],
    }


def _events_equal(e: TraceEvent, f: TraceEvent) -> bool:
    """Same address and alpha-equal redexes.

    The contracta need no check: every contraction is the same
    capture-avoiding substitution, which respects alpha, so alpha-equal
    redexes have alpha-equal contracta."""
    return e.position == f.position and alpha_eq(e.redex, f.redex)


_INF = float("inf")


class _PositionTrie:
    """Events of one trace from index start on, indexed by address,
    supporting 'earliest remaining event at an address comparable to p'
    in O(|p|). Events are taken from the trace only as far as a query
    needs: the first one comparable to its address, or the end."""

    __slots__ = ("root", "events", "taken")

    def __init__(self, events, start):
        self.root = _TrieNode()
        self.events = events
        self.taken = start

    def _insert(self, idx, position):
        node = self.root
        node.submin = min(node.submin, idx)
        for letter in position:
            child = node.children.get(letter)
            if child is None:
                child = _TrieNode()
                node.children[letter] = child
            node = child
            node.submin = min(node.submin, idx)
        node.queue.append(idx)

    def first_comparable(self, position):
        """Smallest remaining index whose address is a prefix of
        position or has position as a prefix (equality included)."""
        best = _INF
        node = self.root
        for letter in position:
            if node.queue and node.queue[0] < best:
                best = node.queue[0]
            node = node.children.get(letter)
            if node is None:
                break
        else:
            best = min(best, node.submin)
        # Every event not yet taken comes after every event taken, so
        # the answer is among those taken unless none is comparable.
        events = self.events
        while best == _INF and self.taken < len(events):
            idx = self.taken
            self.taken += 1
            address = events[idx].position
            self._insert(idx, address)
            n = min(len(address), len(position))
            if address[:n] == position[:n]:
                best = idx
        return best

    def delete(self, idx, position):
        path = [self.root]
        node = self.root
        for letter in position:
            node = node.children[letter]
            path.append(node)
        node.queue.popleft()
        for n in reversed(path):
            new = n.queue[0] if n.queue else _INF
            for child in n.children.values():
                if child.submin < new:
                    new = child.submin
            if new == n.submin:
                break
            n.submin = new


class _TrieNode:
    __slots__ = ("children", "queue", "submin")

    def __init__(self):
        self.children = {}
        self.queue = deque()
        self.submin = _INF


def _scan(ta, tb, i, stop):
    """The first index from i on, below stop, at which ta and tb differ,
    or stop."""
    while i < stop and _events_equal(ta[i], tb[i]):
        i += 1
    return i


def _first_difference(ta, tb):
    """The first index at which ta and tb differ pairwise, or the length
    of the shorter one.

    When both are Traces that skip the same region (the same start,
    period length and count; see engine.Trace), the region is vouched
    for without being built once the events before it agree and so do
    the heads and steps: each of its events is head + step*c plus the
    address, past head, of an agreeing period event, with that event's
    redex. Anywhere else the scan goes event by event."""
    sa = ta.skip if isinstance(ta, Trace) else None
    sb = tb.skip if isinstance(tb, Trace) else None
    i = 0
    if sa is not None and sb is not None and sa[:3] == sb[:3]:
        start, length, count = sa[:3]
        i = _scan(ta, tb, 0, start + length)
        if i < start + length:
            return i
        if sa[3:] == sb[3:]:
            i += count * length
    return _scan(ta, tb, i, min(len(ta), len(tb)))


def _match(ta, tb, skip_unmatched):
    """The one trace matcher: returns (i, pair).

    i is the first step at which the traces differ pairwise, or None
    when they are equal. From there each event of ta, in order, is
    matched to the earliest remaining event of tb at a comparable
    address, which must be the same event; pair is the first (e, f)
    that fails, or None. An event with no comparable counterpart left
    fails with f None or, for fuel-cut prefixes (skip_unmatched), is
    left to the other run's future. The shared prefix always matches
    itself, so the matching starts at i."""
    i = _first_difference(ta, tb)
    if i == len(ta) == len(tb):
        return None, None
    trie = _PositionTrie(tb, i)
    # Each event of ta is built as it is read, not all at once.
    for e in map(ta.__getitem__, range(i, len(ta))):
        fc = trie.first_comparable(e.position)
        if fc is _INF:
            if skip_unmatched:
                continue
            return i, (e, None)
        f = tb[fc]
        if not _events_equal(e, f):
            return i, (e, f)
        trie.delete(fc, f.position)
    return i, None


def _compare_outcomes(oa: Outcome, ob: Outcome) -> CompareVerdict:
    ta, tb = oa.trace, ob.trace
    if oa.status == CONVERGED and ob.status == CONVERGED:
        i, pair = _match(ta, tb, False)
        if not alpha_eq(oa.result, ob.result):
            if i is None:
                i = len(ta)
            ea = ta[i] if i < len(ta) else None
            eb = tb[i] if i < len(tb) else None
            return CompareVerdict(DIFFER, (i, (ea, eb)))
        if i is None:
            return CompareVerdict(ONE_STEP_EQUAL)
        if pair is None and len(ta) == len(tb):
            return CompareVerdict(EQUAL_MCR)
        return CompareVerdict(BIG_STEP_EQUAL_ONLY)
    if oa.status != ob.status:
        return CompareVerdict(INCONCLUSIVE)
    # both exhausted: every event up to the shared budget is on record.
    # Matching tb against ta would add nothing: when every event of ta
    # meets its partner or no comparable event, tb's events replay the
    # same matching in their own order.
    i, pair = _match(ta, tb, True)
    if i is None:
        return CompareVerdict(BOTH_EXHAUSTED_EQUAL_PREFIX)
    if pair is None:
        return CompareVerdict(BOTH_EXHAUSTED_MCR_PREFIX)
    return CompareVerdict(DIFFER, (pair[0].step_index, pair))


def compare(a, b, term, fuel=DEFAULT_FUEL, *,
            max_nodes=DEFAULT_MAX_NODES) -> CompareVerdict:
    """Grade how similarly two strategies run one term.

    one-step-equal: the traces agree contraction by contraction.
    equal-mcr: same contractions, reordered only at disjoint addresses.
    big-step-equal-only: alpha-equal results, incomparable traces.
    differ: different results, or irreconcilable exhausted prefixes
    (witness carries the first conflicting event pair).
    both-exhausted-*: neither run finished; the prefixes agree exactly
    or up to commutation. inconclusive: one finished, one ran out.
    Events match on address and redex alone: substitution respects
    alpha, so alpha-equal redexes have alpha-equal contracta.
    """
    oa = evaluate(a, term, fuel, max_nodes=max_nodes)
    ob = evaluate(b, term, fuel, max_nodes=max_nodes)
    return _compare_outcomes(oa, ob)


# A corpus report keeps at most this many counterexamples.
_CAP = 10


def _map_corpus(report: CorpusReport, entry, args, corpus) -> CorpusReport:
    """Run entry(term, *args) -> (verdict kind, example or None) on every
    term and aggregate into report in corpus order, keeping the first
    _CAP examples. A term that outgrows its resource limits gets the
    resource verdict."""
    for term in corpus:
        try:
            kind, example = entry(term, *args)
        except ResourceLimitError:
            kind, example = "resource", None
        report.verdicts[kind] = report.verdicts.get(kind, 0) + 1
        if example is not None and len(report.counterexamples) < _CAP:
            report.counterexamples.append(example)
    return report


def _trace_example(term, kind, witness) -> dict:
    """Counterexample entry of a trace comparison, with the first
    conflicting event pair as its witness."""
    if witness is not None:
        i, (ea, eb) = witness
        witness = {"step": i, "a": event_json(ea), "b": event_json(eb)}
    return {"term": _term_str(term), "verdict": kind, "witness": witness}


def _compare_entry(term, a, b, fuel, max_nodes):
    verdict = compare(a, b, term, fuel, max_nodes=max_nodes)
    example = None
    if verdict.kind == DIFFER:
        example = _trace_example(term, verdict.kind, verdict.witness)
    return verdict.kind, example


def compare_corpus(a, b, corpus, fuel=DEFAULT_FUEL, *, seed=None,
                   max_nodes=DEFAULT_MAX_NODES) -> CorpusReport:
    """compare() over a term list, aggregated into a CorpusReport; each
    differ verdict is a counterexample."""
    a = parse_spec(a) if isinstance(a, str) else a
    b = parse_spec(b) if isinstance(b, str) else b
    report = CorpusReport(print_spec(a), print_spec(b), seed, fuel,
                          len(corpus))
    args = (a, b, fuel, max_nodes)
    return _map_corpus(report, _compare_entry, args, corpus)


ABSORBED = "absorbed"
VIOLATED = "violated"


def _then(spec, first, fuel, max_nodes) -> Outcome:
    """spec run untraced on first's result with the fuel first left over
    from fuel; first itself when it did not converge, so a run that
    exhausts the budget leaves the composition exhausted."""
    if first.status != CONVERGED:
        return first
    return evaluate(spec, first.result, fuel - first.fuel_used,
                    record_trace=False, max_nodes=max_nodes)


def _absorption(composed: Outcome, alone: Outcome) -> str:
    """absorbed when both runs converge to alpha-equal results, violated
    when the results differ or exactly one run converges, inconclusive
    when both run out of fuel."""
    if composed.status == CONVERGED and alone.status == CONVERGED:
        return ABSORBED if alpha_eq(composed.result, alone.result) else VIOLATED
    return INCONCLUSIVE if composed.status == alone.status else VIOLATED


def check_absorption(outer, inner, corpus, fuel=DEFAULT_FUEL, *,
                     max_nodes=DEFAULT_MAX_NODES) -> CorpusReport:
    """Does running outer after inner equal running outer alone?

    The composition threads one fuel budget through both runs, so an
    inner run that exhausts it leaves the composition exhausted. Each
    term is judged absorbed, violated or inconclusive by _absorption."""
    outer = parse_spec(outer) if isinstance(outer, str) else outer
    inner = parse_spec(inner) if isinstance(inner, str) else inner
    report = CorpusReport(print_spec(outer), print_spec(inner), None, fuel,
                          len(corpus))
    args = (outer, inner, fuel, max_nodes)
    return _map_corpus(report, _absorption_entry, args, corpus)


def _absorption_entry(term, outer, inner, fuel, max_nodes):
    composed = _then(outer, evaluate(inner, term, fuel, record_trace=False,
                                     max_nodes=max_nodes), fuel, max_nodes)
    alone = evaluate(outer, term, fuel, record_trace=False,
                     max_nodes=max_nodes)
    kind = _absorption(composed, alone)
    if kind != VIOLATED:
        return kind, None
    witness = {side: {"status": o.status, "result": _term_str(o.result)}
               for side, o in (("composed", composed), ("alone", alone))}
    return kind, {"term": _term_str(term), "verdict": kind,
                  "witness": witness}


def check_fusion_row(er, corpus, fuel=DEFAULT_FUEL, *,
                     max_nodes=DEFAULT_MAX_NODES) -> CorpusReport:
    """Differential check of one staged row against its fused hybrid.

    For every term, the staged readback and the fused hybrid are run and
    compared; rows without the mcr flag must be one-step-equal (or agree
    exactly up to the fuel cut), mcr rows may reorder commuting
    contractions. Each term additionally checks the absorption corollary
    (the hybrid applied to the eval stage's result changes nothing) and
    eval idempotence."""
    if isinstance(er, str):
        er = parse_spec(er)
    fusion = fuse(er)
    report = CorpusReport(print_spec(er), print_spec(fusion.hybrid), None,
                          fuel, len(corpus), mcr=fusion.mcr)
    args = (er, fusion.hybrid, fusion.mcr, fuel, max_nodes)
    return _map_corpus(report, _fusion_entry, args, corpus)


def _fusion_entry(term, er, hy, mcr, fuel, max_nodes):
    staged = evaluate(er, term, fuel, max_nodes=max_nodes)
    stage1 = staged.stage
    fused = evaluate(hy, term, fuel, max_nodes=max_nodes)
    verdict = _compare_outcomes(staged, fused)
    extra = None
    if stage1 is not None:
        if _absorption(_then(hy, stage1, fuel, max_nodes), fused) == VIOLATED:
            extra = "hybrid-absorb-eval-violated"
        elif _absorption(_then(er.ev, stage1, fuel, max_nodes),
                         stage1) == VIOLATED:
            extra = "eval-idempotence-violated"
    example = None
    if extra is not None or _fusion_failure(verdict.kind, mcr):
        example = _trace_example(term, extra or verdict.kind, verdict.witness)
    return verdict.kind, example


def _fusion_failure(kind, mcr) -> bool:
    if kind == INCONCLUSIVE:
        return False
    if mcr:
        return kind not in (
            ONE_STEP_EQUAL,
            EQUAL_MCR,
            BOTH_EXHAUSTED_EQUAL_PREFIX,
            BOTH_EXHAUSTED_MCR_PREFIX,
        )
    return kind not in (ONE_STEP_EQUAL, BOTH_EXHAUSTED_EQUAL_PREFIX)


# Enough for every row of the table up to n = 6; no and hn spend the
# most there, 218,878 contractions.
DEFAULT_FACTORIAL_FUEL = 250_000

# The factorial table: each row with its program, as (fixed-point
# combinator, body, identity argument) builtins. Non-strict rows run the
# plain recursion, strict rows the thunked body over the strict
# combinator, head-spine rows the delimited-cps body; the identity
# argument forces the answer out of the last two.
_FACTORIAL = {
    **dict.fromkeys(("bn", "IIS", "hr", "he", "no", "hn"),
                    ("Y", "F_direct", None)),
    **dict.fromkeys(("bv", "am", "sn", "ha"), ("Z", "F_thunkLambda", "I")),
    **dict.fromkeys(("ho", "so", "bs"), ("Y", "F_delimcps", "I")),
}

FULL_REDUCING = tuple(a for a in _FACTORIAL
                      if result_form(parse_spec(a)) is FormClass.NF)


def factorial_term(strategy: str, n: int) -> Term:
    """The factorial program of a table row applied to the Church
    numeral n; any other name gets the plain recursion."""
    combinator, body, argument = _FACTORIAL.get(strategy, _FACTORIAL["bn"])
    b = builtins()
    term = App(App(b[combinator], b[body]), churchN(n))
    return term if argument is None else App(term, b[argument])


def demo_factorial(n_values=(0, 1, 2, 3, 4), fuel=DEFAULT_FACTORIAL_FUEL, *,
                   strategies=None) -> list[dict]:
    """Run factorial programs across the named strategies.

    Full-reducing rows must produce the Church numeral of n!; the
    partial rows must converge to their catalogue form family. Returns
    one entry per (strategy, n) with the outcome and an ok flag. ok is
    None when the run did not converge within fuel: such a row is
    inconclusive, not a mismatch. strategies restricts the run to a
    subset of the table's rows."""
    rows = _FACTORIAL.keys() if strategies is None else set(strategies)
    unknown = sorted(rows - _FACTORIAL.keys())
    if unknown:
        raise NotationError(f"not a factorial table row: {', '.join(unknown)}")
    entries = []
    for alias in (a for a in _FACTORIAL if a in rows):
        form = result_form(parse_spec(alias))
        for n in n_values:
            term = factorial_term(alias, n)
            outcome = evaluate(alias, term, fuel, record_trace=False)
            ok = None
            expected = None
            if outcome.status == CONVERGED:
                if form is FormClass.NF:
                    expected = churchN(math.factorial(n))
                    ok = alpha_eq(outcome.result, expected)
                else:
                    expected = form
                    ok = form in classify(outcome.result)
            entries.append(
                {
                    "strategy": alias,
                    "n": n,
                    "status": outcome.status,
                    "result": outcome.result,
                    "expected": expected,
                    "ok": ok,
                }
            )
    return entries
