"""Differential checking of strategies.

compare() runs two strategies on one term and grades how close the runs
are: identical traces, identical up to commuting redexes, equal results
only, or genuinely different. Commutation is Mazurkiewicz-style trace
equivalence where two contractions are independent exactly when their
addresses are disjoint, neither a prefix of the other; that is what
reordering work between the operands of a neutral looks like in a trace.

On top of that sit the corpus drivers: check_absorption tests whether
running one strategy after another changes anything, check_fusion_row
tests a staged readback against its fused hybrid, and demo_factorial
runs the factorial programs that exercise every named strategy.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .engine import (
    CONVERGED,
    DEFAULT_MAX_FRAMES,
    DEFAULT_MAX_NODES,
    Outcome,
    TraceEvent,
    _finish_readback,
    evaluate,
)
from .notation import (
    NotationError,
    ReadbackSpec,
    fuse,
    parse_spec,
    print_spec,
)
from .terms import (
    App,
    FormClass,
    ResourceLimitError,
    Term,
    alpha_eq,
    builtins,
    churchN,
    classify,
    parse_term,
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


@dataclass(frozen=True)
class CompareVerdict:
    kind: str
    witness: tuple | None = None


@dataclass
class CorpusReport:
    a: str
    b: str
    seed: int | None
    fuel: int
    n: int
    verdicts: dict[str, int] = field(default_factory=dict)
    counterexamples: list[dict] = field(default_factory=list)
    cap: int = 10
    mcr: bool | None = None

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "seed": self.seed,
            "fuel": self.fuel,
            "n": self.n,
            "verdicts": dict(self.verdicts),
            "counterexamples": list(self.counterexamples),
        }


_TERM_STR_LIMIT = 100000


def _term_str(t: Term | None) -> str | None:
    if t is None:
        return None
    s = print_term(t)
    if len(s) > _TERM_STR_LIMIT:
        s = s[:_TERM_STR_LIMIT] + "..."
    return s


def _event_json(e: TraceEvent | None) -> dict | None:
    if e is None:
        return None
    return {
        "i": e.step_index,
        "path": "".join(e.position),
        "redex": _term_str(e.redex),
        "contractum": _term_str(e.contractum),
    }


def _events_equal(e: TraceEvent, f: TraceEvent) -> bool:
    """Same address and alpha-equal redexes.

    The contracta need no check: every contraction is the same
    capture-avoiding substitution, which respects alpha, so alpha-equal
    redexes have alpha-equal contracta."""
    return e.position == f.position and alpha_eq(e.redex, f.redex)


def _first_mismatch(ta, tb):
    """Index of the first pairwise difference, or None for equal traces."""
    for i, (e, f) in enumerate(zip(ta, tb)):
        if not _events_equal(e, f):
            return i
    if len(ta) != len(tb):
        return min(len(ta), len(tb))
    return None


_INF = float("inf")


class _PositionTrie:
    """Events of one trace indexed by address, supporting 'earliest
    remaining event at an address comparable to p' in O(|p|)."""

    __slots__ = ("root", "nodes")

    def __init__(self, events):
        self.root = _TrieNode()
        self.nodes = []
        for idx, e in enumerate(events):
            node = self.root
            node.submin = min(node.submin, idx)
            for letter in e.position:
                child = node.children.get(letter)
                if child is None:
                    child = _TrieNode()
                    node.children[letter] = child
                node = child
                node.submin = min(node.submin, idx)
            node.queue.append(idx)
            self.nodes.append(node)

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
                return best
        return min(best, node.submin)

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


def _first_conflict(ta, tb, skip_unmatched):
    """Match each event of ta, in order, to the earliest remaining event
    of tb at a comparable address, which must be the same event.

    Returns the first failing pair (e, f), or None. An event with no
    comparable counterpart left fails with f None or, for fuel-cut
    prefixes (skip_unmatched), is left to the other run's future."""
    trie = _PositionTrie(tb)
    for e in ta:
        fc = trie.first_comparable(e.position)
        if fc is _INF:
            if skip_unmatched:
                continue
            return e, None
        f = tb[fc]
        if not _events_equal(e, f):
            return e, f
        trie.delete(fc, f.position)
    return None


def _trace_equivalent(ta, tb) -> bool:
    """Mazurkiewicz equivalence: tb is a reordering of ta in which only
    contractions at disjoint addresses have swapped."""
    return len(ta) == len(tb) and _first_conflict(ta, tb, False) is None


def _compare_outcomes(oa: Outcome, ob: Outcome) -> CompareVerdict:
    ta, tb = oa.trace, ob.trace
    if oa.status == CONVERGED and ob.status == CONVERGED:
        results_match = alpha_eq(oa.result, ob.result)
        mismatch = _first_mismatch(ta, tb)
        if not results_match:
            i = mismatch if mismatch is not None else min(len(ta), len(tb))
            ea = ta[i] if i < len(ta) else None
            eb = tb[i] if i < len(tb) else None
            return CompareVerdict(DIFFER, (i, (ea, eb)))
        if mismatch is None:
            return CompareVerdict(ONE_STEP_EQUAL)
        if _trace_equivalent(ta, tb):
            return CompareVerdict(EQUAL_MCR)
        return CompareVerdict(BIG_STEP_EQUAL_ONLY)
    if oa.status != ob.status:
        return CompareVerdict(INCONCLUSIVE)
    # both exhausted: every event up to the shared budget is on record
    if _first_mismatch(ta, tb) is None:
        return CompareVerdict(BOTH_EXHAUSTED_EQUAL_PREFIX)
    pair = _first_conflict(ta, tb, True)
    if pair is None:
        pair = _first_conflict(tb, ta, True)
        if pair is None:
            return CompareVerdict(BOTH_EXHAUSTED_MCR_PREFIX)
        pair = pair[::-1]
    return CompareVerdict(DIFFER, (pair[0].step_index, pair))


def compare(a, b, term, fuel=100000, *,
            max_nodes=DEFAULT_MAX_NODES,
            max_frames=DEFAULT_MAX_FRAMES) -> CompareVerdict:
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
    oa = evaluate(a, term, fuel, max_nodes=max_nodes, max_frames=max_frames)
    ob = evaluate(b, term, fuel, max_nodes=max_nodes, max_frames=max_frames)
    return _compare_outcomes(oa, ob)


_MOVE_RANK = {"F": 0, "A": 1, "B": 2}


def _pos_key(position):
    return tuple(_MOVE_RANK[letter] for letter in position)


def _dependent(p, q):
    if len(p) > len(q):
        p, q = q, p
    return q[: len(p)] == p


def canonicalize(trace) -> tuple[TraceEvent, ...]:
    """Dependency-respecting reordering that is lexicographically least
    by address, with F < A < B at each move.

    Contractions at non-disjoint addresses keep their original order;
    among the currently available ones, the smallest address goes first.
    Events are kept verbatim, so replay still works and ends in the
    same term."""
    remaining = list(trace)
    out = []
    while remaining:
        best = None
        best_key = None
        for j, e in enumerate(remaining):
            blocked = False
            for k in range(j):
                if _dependent(remaining[k].position, e.position):
                    blocked = True
                    break
            if blocked:
                continue
            key = _pos_key(e.position)
            if best is None or key < best_key:
                best, best_key = j, key
        out.append(remaining.pop(best))
    return tuple(out)


def _aggregate(report: CorpusReport, verdict_kind, example):
    report.verdicts[verdict_kind] = report.verdicts.get(verdict_kind, 0) + 1
    if example is not None and len(report.counterexamples) < report.cap:
        report.counterexamples.append(example)


def _compare_corpus_entry(a, b, term, fuel, max_nodes, counterexample_kinds):
    try:
        verdict = compare(a, b, term, fuel, max_nodes=max_nodes)
    except ResourceLimitError:
        return "resource", None
    example = None
    if verdict.kind in counterexample_kinds:
        witness = None
        if verdict.witness is not None:
            i, (ea, eb) = verdict.witness
            witness = {"step": i, "a": _event_json(ea), "b": _event_json(eb)}
        example = {
            "term": _term_str(term),
            "verdict": verdict.kind,
            "witness": witness,
        }
    return verdict.kind, example


def compare_corpus(a, b, corpus, fuel=100000, *, seed=None, cap=10,
                   max_nodes=DEFAULT_MAX_NODES,
                   counterexample_kinds=(DIFFER,),
                   processes=None) -> CorpusReport:
    """compare() over a term list, aggregated into a CorpusReport.

    Per-term comparisons are independent pure computations; with
    processes > 1 they run in a process pool, and the report is
    identical either way because aggregation follows corpus order."""
    a_s = print_spec(parse_spec(a) if isinstance(a, str) else a)
    b_s = print_spec(parse_spec(b) if isinstance(b, str) else b)
    report = CorpusReport(a_s, b_s, seed, fuel, len(corpus), cap=cap)
    if processes and processes > 1:
        import concurrent.futures

        args = [
            (a_s, b_s, print_term(t), fuel, max_nodes, tuple(counterexample_kinds))
            for t in corpus
        ]
        with concurrent.futures.ProcessPoolExecutor(processes) as pool:
            results = list(pool.map(_compare_worker, args))
        for kind, example in results:
            _aggregate(report, kind, example)
        return report
    for t in corpus:
        kind, example = _compare_corpus_entry(
            a, b, t, fuel, max_nodes, counterexample_kinds
        )
        _aggregate(report, kind, example)
    return report


def _compare_worker(args):
    a, b, term_text, fuel, max_nodes, kinds = args
    return _compare_corpus_entry(
        a, b, parse_term(term_text), fuel, max_nodes, kinds
    )


ABSORBED = "absorbed"
VIOLATED = "violated"


def _status_summary(outcome: Outcome | None) -> dict:
    if outcome is None:
        return {"status": "resource"}
    return {
        "status": outcome.status,
        "result": _term_str(outcome.result),
    }


def check_absorption(outer, inner, corpus, fuel=100000, *, seed=None, cap=10,
                     max_nodes=DEFAULT_MAX_NODES,
                     processes=None) -> CorpusReport:
    """Does running outer after inner equal running outer alone?

    The composition threads one fuel budget through both runs, so an
    inner run that exhausts it leaves the composition exhausted. A term
    counts absorbed when both sides converge to alpha-equal results,
    violated when results differ or exactly one side converges, and
    inconclusive when both run out of fuel."""
    outer_s = print_spec(parse_spec(outer) if isinstance(outer, str) else outer)
    inner_s = print_spec(parse_spec(inner) if isinstance(inner, str) else inner)
    report = CorpusReport(outer_s, inner_s, seed, fuel, len(corpus), cap=cap)
    if processes and processes > 1:
        import concurrent.futures

        args = [
            (outer_s, inner_s, print_term(t), fuel, max_nodes)
            for t in corpus
        ]
        with concurrent.futures.ProcessPoolExecutor(processes) as pool:
            results = list(pool.map(_absorption_worker, args))
        for kind, example in results:
            _aggregate(report, kind, example)
        return report
    for t in corpus:
        kind, example = _absorption_entry(outer, inner, t, fuel, max_nodes)
        _aggregate(report, kind, example)
    return report


def _absorption_entry(outer, inner, term, fuel, max_nodes):
    try:
        inner_out = evaluate(inner, term, fuel, record_trace=False,
                             max_nodes=max_nodes)
        if inner_out.status == CONVERGED:
            composed = evaluate(outer, inner_out.result,
                                fuel - inner_out.fuel_used,
                                record_trace=False, max_nodes=max_nodes)
        else:
            composed = inner_out
        alone = evaluate(outer, term, fuel, record_trace=False,
                         max_nodes=max_nodes)
    except ResourceLimitError:
        return "resource", None
    if composed.status == CONVERGED and alone.status == CONVERGED:
        if alpha_eq(composed.result, alone.result):
            return ABSORBED, None
        kind = VIOLATED
    elif composed.status == alone.status:
        return INCONCLUSIVE, None
    else:
        kind = VIOLATED
    example = {
        "term": _term_str(term),
        "verdict": kind,
        "witness": {
            "composed": _status_summary(composed),
            "alone": _status_summary(alone),
        },
    }
    return kind, example


def _absorption_worker(args):
    outer, inner, term_text, fuel, max_nodes = args
    return _absorption_entry(outer, inner, parse_term(term_text), fuel, max_nodes)


def _staged_outcome(er: ReadbackSpec, term, fuel, stage1: Outcome,
                    max_nodes) -> Outcome:
    """Assemble the staged run from a cached eval-stage outcome."""
    if stage1.status != CONVERGED:
        return stage1
    rb = _finish_readback(er, stage1.result, fuel, stage1.fuel_used,
                          max_nodes=max_nodes)
    trace = None
    if stage1.trace is not None and rb.trace is not None:
        trace = stage1.trace + rb.trace
    return Outcome(rb.status, rb.result, trace, rb.fuel_used)


def check_fusion_row(er, corpus, fuel=100000, *, seed=None, cap=10,
                     max_nodes=DEFAULT_MAX_NODES,
                     stage1_cache: dict | None = None) -> CorpusReport:
    """Differential check of one staged row against its fused hybrid.

    For every term, the staged readback and the fused hybrid are run and
    compared; rows without the mcr flag must be one-step-equal (or agree
    exactly up to the fuel cut), mcr rows may reorder commuting
    contractions. Each term additionally checks the absorption corollary
    (the hybrid applied to the eval stage's result changes nothing) and
    eval idempotence. stage1_cache maps (eval spec text, max_nodes,
    term) to a converged eval outcome so the six eval stages can be
    shared across the 22 rows of the table; an entry is reused only when
    it fits the fuel budget, where a fresh run would repeat it exactly."""
    if isinstance(er, str):
        er = parse_spec(er)
    fusion = fuse(er)
    hy = fusion.hybrid
    er_s, hy_s = print_spec(er), print_spec(hy)
    ev_s = print_spec(er.ev)
    report = CorpusReport(er_s, hy_s, seed, fuel, len(corpus), cap=cap,
                          mcr=fusion.mcr)
    for t in corpus:
        try:
            key = (ev_s, max_nodes, t)
            stage1 = stage1_cache.get(key) if stage1_cache is not None else None
            if stage1 is None or stage1.fuel_used > fuel:
                stage1 = evaluate(er.ev, t, fuel, max_nodes=max_nodes)
                # only converged stages are worth keeping: exhausted ones
                # carry budget-sized traces
                if stage1_cache is not None and stage1.status == CONVERGED:
                    stage1_cache[key] = stage1
            staged = _staged_outcome(er, t, fuel, stage1, max_nodes)
            fused = evaluate(hy, t, fuel, max_nodes=max_nodes)
            verdict = _compare_outcomes(staged, fused)
            extra = None
            if stage1.status == CONVERGED:
                hy_of_ev = evaluate(hy, stage1.result,
                                    fuel - stage1.fuel_used,
                                    record_trace=False, max_nodes=max_nodes)
                if fused.status == CONVERGED and hy_of_ev.status == CONVERGED:
                    if not alpha_eq(hy_of_ev.result, fused.result):
                        extra = "hybrid-absorb-eval-violated"
                elif fused.status == CONVERGED or hy_of_ev.status == CONVERGED:
                    extra = "hybrid-absorb-eval-violated"
                if extra is None:
                    ev_again = evaluate(er.ev, stage1.result,
                                        fuel - stage1.fuel_used,
                                        record_trace=False,
                                        max_nodes=max_nodes)
                    if ev_again.status != CONVERGED or not alpha_eq(
                        ev_again.result, stage1.result
                    ):
                        extra = "eval-idempotence-violated"
        except ResourceLimitError:
            _aggregate(report, "resource", None)
            continue
        example = None
        bad = _fusion_failure(verdict.kind, fusion.mcr) or extra is not None
        if bad:
            witness = None
            if verdict.witness is not None:
                i, (ea, eb) = verdict.witness
                witness = {"step": i, "a": _event_json(ea), "b": _event_json(eb)}
            example = {
                "term": _term_str(t),
                "verdict": extra if extra else verdict.kind,
                "witness": witness,
            }
        _aggregate(report, verdict.kind, example)
    return report


def _fusion_failure(kind, mcr) -> bool:
    if kind in (INCONCLUSIVE,):
        return False
    if mcr:
        return kind not in (
            ONE_STEP_EQUAL,
            EQUAL_MCR,
            BOTH_EXHAUSTED_EQUAL_PREFIX,
            BOTH_EXHAUSTED_MCR_PREFIX,
        )
    return kind not in (ONE_STEP_EQUAL, BOTH_EXHAUSTED_EQUAL_PREFIX)


FULL_REDUCING = ("no", "hn", "sn", "ha", "so", "bs")

PARTIAL_FORMS = {
    "bn": FormClass.WHNF,
    "IIS": FormClass.WNF,
    "hr": FormClass.HNF,
    "he": FormClass.HNF,
    "bv": FormClass.WNF,
    "am": FormClass.VHNF,
    "ho": FormClass.HNF,
}

_GROUPS = (
    ("Y #F_direct", ("bn", "IIS", "hr", "he", "no", "hn")),
    ("Z #F_thunkLambda", ("bv", "am", "sn", "ha")),
    ("Y #F_delimcps", ("ho", "so", "bs")),
)


def factorial_term(strategy: str, n: int) -> Term:
    """The factorial program suited to a strategy: the plain recursion
    for non-strict rows, the thunked body over the strict fixed-point
    combinator for strict rows, and the delimited-cps body for the
    head-spine rows. The strict and cps programs take an extra identity
    argument to force the final answer out."""
    b = builtins()
    num = churchN(n)
    if strategy in ("bv", "am", "sn", "ha"):
        return App(App(App(b["Z"], b["F_thunkLambda"]), num), b["I"])
    if strategy in ("ho", "so", "bs"):
        return App(App(App(b["Y"], b["F_delimcps"]), num), b["I"])
    return App(App(b["Y"], b["F_direct"]), num)


def demo_factorial(n_values=(0, 1, 2, 3, 4), fuel=200000, *,
                   max_nodes=DEFAULT_MAX_NODES, strategies=None) -> list[dict]:
    """Run factorial programs across the named strategies.

    Full-reducing rows must produce the Church numeral of n!; the
    partial rows must converge to their catalogue form family. Returns
    one entry per (strategy, n) with the outcome and an ok flag.
    strategies restricts the run to a subset of the table's rows."""
    if strategies is not None:
        known = {a for _, row in _GROUPS for a in row}
        unknown = sorted(set(strategies) - known)
        if unknown:
            raise NotationError(
                f"not a factorial table row: {', '.join(unknown)}"
            )
    entries = []
    for _, aliases in _GROUPS:
        for alias in aliases:
            if strategies is not None and alias not in strategies:
                continue
            for n in n_values:
                term = factorial_term(alias, n)
                outcome = evaluate(alias, term, fuel, record_trace=False,
                                   max_nodes=max_nodes)
                ok = outcome.status == CONVERGED
                expected = None
                if ok:
                    if alias in FULL_REDUCING:
                        expected = churchN(math.factorial(n))
                        ok = alpha_eq(outcome.result, expected)
                    else:
                        form = PARTIAL_FORMS[alias]
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
