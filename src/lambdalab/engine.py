"""The two generic evaluators, instantiated from a strategy encoding.

One machine runs everything. A strategy compiles to a small graph of
"layers", one per recursion flavour (a uniform evaluator is one
self-referential layer; a hybrid is a hybrid layer over a subsidiary
layer), and the machine walks the term with an explicit frame stack so
that deep or divergent terms can never overflow the Python stack. A
readback encoding compiles the same way: its readback pass is one more
layer, whose body and operand slots recurse into the eval layer, into
itself, or into both in turn, so a staged run is the eval walk followed
by the readback layer on the same stack, drawing on one fuel budget and
appending to one trace. The outcome keeps the eval stage's own outcome,
read off the run when the readback layer takes over, as its stage.

Each beta contraction costs one unit of fuel and is recorded as a
TraceEvent carrying the redex's address in the whole term at the moment
of contraction. Operator premises extend the address with F, operand
premises with A, abstraction bodies with B; the contractum stays at the
redex's own address. That makes a trace replayable: rewriting each
recorded redex in place, in order, reproduces the run (see
reconstruct_sequence). Addresses ride on the frames as cons cells and
are built only when a run records its trace or its derivation trees; no
other run reads one, so an untraced run's frames carry None and its
walk allocates no address cell.

A derivation tree is not carried in the frames: a tree run observes the
judgments the walk makes. Each EV frame opens a judgment, whose node
becomes a premise of the innermost open one and is closed by a CLOSE
frame left beneath the judgment's own frames; a contraction is recorded
on the innermost open node, and CLOSE gives a node the value its
judgment produced.

A walk of a term that holds no redex returns that term, so the machine
returns it at once, under any layer, from every EV frame and at the
application rule's operand premise; a substituted value is not walked
again at each of its copies, nor a neutral each time it turns up as an
operand. Each term records when it is made whether it holds a redex,
and its height h if it does not (see terms). That is exact. Such a walk
contracts nothing: every operator it walks comes back as itself, so no
operator ever becomes an abstraction. So it spends no fuel, records no
event, allocates nothing and returns its input. The one way it can
still stop a run is the frame limit, and it grows the stack by at most
two frames a level (MKLAM and THEN, AP1, or ARG and THEN); so a walk
that opens at stack depth d is skipped only when d + 2h is within the
limit, and any walk that could pass the limit is made for real. The
walk of an abstraction under a layer that leaves bodies alone is also
answered at once, at the operand premise. A run whose root judgment
would close at its first EV pop (a variable, an abstraction under a
root layer that leaves bodies alone, or a term with no redex whose
2h is within the limit) is answered before any machine is built: its
input, converged, with no fuel spent and no event. A readback run
qualifies only when its eval walk closes at depth 1, above the root
THEN frame, and its readback walk at depth 0; its stage is the same
answer. Derivation-tree runs, whose trees have a node for every
judgment, walk every term.

The blackhole cuts divergent runs short, as lazy evaluators do when a
thunk is demanded while it is being evaluated (Peyton Jones, The
Spineless Tagless G-machine, JFP 1992). A contraction opens the
contractum's judgment at depth d, on top of the frame at index d-1; the
judgment is pending exactly while that frame object is still in place,
since the frame beneath pops as soon as the judgment yields its value,
and a tail contraction opens its contractum on the same frame, whose
value it is. Evaluation is a function of (layer, term), so a judgment
that opens again inside its own pending derivation never closes: from
the repeat the machine does what it did from the first occurrence, one
period deeper, for ever. The machine finds such a repeat by Brent's
cycle finding (R. P. Brent, BIT 20, 1980): one stored judgment, the
anchor, and a span that doubles. Every 16th contraction (by the fuel
left) compares its contractum judgment with a pending anchor: the same
key (layer, structural hash) and an equal tree with the same sharing is
a repeat. Sharing matters because substitute memoises by node identity,
so the nodes a period allocates depend on it: parsed
(\\x.x x) (\\x.x x) has two lambda objects, its contractum one.
Otherwise the anchor moves to the sampled judgment once it has closed
or stood for its span of fuel, 16 at first and doubled whenever a
pending anchor moves. Once the two occurrences match, the period
between them is exact: its fuel, its allocations, its growth of the
stack, the path it adds to every address and its events repeat
unchanged. The machine then accounts for all the whole periods that
fuel and max_nodes leave room for, but one: it takes their fuel and
allocations and lowers the frame limit by their growth of the stack, so
every later depth is compared with the limit as the full walk compares
that depth plus the skipped growth. The rest runs for real. The frame
limit bounds no skip: each period's stack is its predecessor's plus the
same rise, so the first period run for real after the skip goes deeper
than any period it skipped, and the skip always leaves it a whole
period of fuel and allocations to get there. A frame error that a
skipped period would have raised is raised by that first real period,
so which guard stops the run is what it was. A run that grows instead
of repeating is not cut short.

The trace records a skip once, as the period's own events and the
record (start, period length, count, head address, step), and builds
the skipped events only when they are read (see Trace): copy c of a
period event sits at head + step*c + its address past head, with the
next step index and the same redex and contractum objects. The repeat
never closes, so every later address descends from the repeat's path
cell, which sits count periods deeper than it did; the machine records
the events after the skip relative to that cell, so no address as long
as the skipped run is deep is built unless it is read.

The cyclic garbage collector is switched off while the machine runs,
and back on when the run ends, however it ends. The machine makes no
cycle: a term, frame, address cell or trace event points only at
objects made before it, and the containers that gather newer objects
(the stacks, the memo tables, a derivation node's premises)
are reached from nothing they hold. So reference counting frees all of
it, and a collection during a run finds nothing; a growing run would
set one off with every few hundred objects it keeps. The collector
decides nothing a run returns, so the pause is exact. A run drops its
stacks before the collector comes back, and a run
stopped by max_nodes or the frame limit raises its ResourceLimitError
without the walk's frames in the traceback, so the first collection
after the pause scans only what the caller keeps. The pause is
process-wide: while a run lasts, cyclic garbage made by another thread
waits until the run ends, and a caller who had turned the collector
off finds it still off. A thread that switches the collector while
another thread's run lasts may find the switch undone when that run
ends.
"""

from __future__ import annotations

import gc
import operator
from collections.abc import Sequence
from functools import cache

from .notation import (
    REJECTED,
    ReadbackSpec,
    UniformSpec,
    parse_spec,
    print_spec,
    validate,
)
from .records import FrozenRecord, Record
from .terms import (
    App,
    Lam,
    ResourceLimitError,
    Term,
    Var,
    parse_term,
    substitute,
)

CONVERGED = "converged"
FUEL_EXHAUSTED = "fuel-exhausted"

DEFAULT_FUEL = 100000
DEFAULT_MAX_NODES = 1_000_000
# The machine's frame limit, read when a run starts.
MAX_FRAMES = 2_000_000


class EngineError(ValueError):
    """Raised for strategies the engine refuses and for broken replays."""


class TraceEvent(Record):
    """One beta contraction: its address, redex, and contractum. The
    redex is the application node the walk met when its operator and
    operand premises returned their inputs, so runs that contract the
    same subterm share one redex object; otherwise it is a fresh node
    of the premises' values."""

    __slots__ = __match_args__ = ("step_index", "position", "redex",
                                  "contractum")

    def __init__(self, step_index: int, position: tuple[str, ...],
                 redex: Term, contractum: Term):
        self.step_index = step_index
        self.position = position
        self.redex = redex
        self.contractum = contractum

    def __repr__(self):
        pos = "".join(self.position) or "root"
        return f"TraceEvent({self.step_index}, {pos}, {self.redex!r} -> {self.contractum!r})"


class Trace(Sequence):
    """The contraction events of one run, in order: a read-only sequence
    whose length, items, slices (tuples), iteration and == (against a
    tuple or another Trace) are those of the tuple of all its events.

    skip is None for a run that skipped no period, every converged run
    among them; its events are all stored. For a run that did, skip is
    (start, length, count, head, step): the length events from index
    start are the period, at addresses that extend head, and the count
    copies that follow it are not stored; copy c of period event start
    + j is event start + c*length + j, at head + step*c + that event's
    address past head, with its redex and contractum objects. The events
    after the copies are stored with addresses relative to head +
    step*(count+1). Every event past the period is built when read. A
    trace hashes by its length and its first event, which is stored, so
    hashing builds no event; the equal tuple hashes otherwise."""

    __slots__ = ("_events", "skip", "_len")

    def __init__(self, events, skip=None):
        self._events = events
        self.skip = skip
        self._len = len(events) + (0 if skip is None else skip[1] * skip[2])

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        skip = self.skip
        if skip is None:
            return self._events[i]
        if i.__class__ is slice:
            return tuple(map(self.__getitem__, range(*i.indices(self._len))))
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("trace index out of range")
        start, length, count, head, step = skip
        if i < start + length:
            return self._events[i]
        c, j = divmod(i - start, length)
        if c <= count:
            e = self._events[start + j]
            position = head + step * c + e.position[len(head):]
        else:
            e = self._events[i - count * length]
            position = head + step * (count + 1) + e.position
        return TraceEvent(i, position, e.redex, e.contractum)

    def __iter__(self):
        if self.skip is None:
            return iter(self._events)
        return map(self.__getitem__, range(self._len))

    def __eq__(self, other):
        if not isinstance(other, (Trace, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            a is b or a == b for a, b in zip(self, other))

    def __hash__(self):
        return hash((self._len, self[0] if self._len else None))

    def __repr__(self):
        return f"Trace({tuple(self)!r})"


class Outcome(FrozenRecord):
    """Result of a fuel-bounded run. trace is None when recording was off;
    else it is a Trace, a read-only sequence of the events that equals
    their tuple. stage is the outcome of a readback encoding's eval stage
    once that stage has converged, and None otherwise."""

    __match_args__ = ("status", "result", "trace", "fuel_used", "stage")

    def __init__(self, status: str, result: Term | None,
                 trace: Trace | None, fuel_used: int,
                 stage: Outcome | None = None):
        self.__dict__.update(status=status, result=result, trace=trace,
                             fuel_used=fuel_used, stage=stage)


class DerivationNode:
    """A node of the natural-semantics derivation tree.

    kind is VAR, ABS, CON, or NEU, read off the input and, for an
    application, whether it contracted; premises are the child
    derivations in rule order. A CON node additionally carries the
    contraction's trace event, off which operand_result (the evaluated
    operand) and contractum are read; its final premise is the continued
    evaluation of the contractum, so an in-order walk (premises before
    the event, the event, then the continuation) visits contractions in
    trace order.
    """

    __slots__ = ("input", "output", "premises", "event")

    def __init__(self, input_term):
        self.input = input_term
        self.output = None
        self.premises = []
        self.event = None

    @property
    def operand_result(self):
        return None if self.event is None else self.event.redex.operand

    @property
    def contractum(self):
        return None if self.event is None else self.event.contractum

    @property
    def kind(self):
        cls = self.input.__class__
        if cls is Var:
            return "VAR"
        if cls is Lam:
            return "ABS"
        return "NEU" if self.event is None else "CON"

    def __repr__(self):
        return f"DerivationNode({self.kind}, {self.input!r} => {self.output!r})"


class _Layer:
    """Recursion behaviour of one evaluator: each slot is None for the
    identity or the layer to recurse with. Only readback layers set
    la_then and ar2_then: the layer that walks an abstraction body or a
    neutral's operand again once la or ar2 has finished with it."""

    __slots__ = ("la", "ar1", "ar2", "op1", "op2", "la_then", "ar2_then")

    def __init__(self):
        self.la_then = None
        self.ar2_then = None


def _build_layer(spec, ev=None) -> _Layer:
    """The layer of spec; for a readback encoding, its readback pass over
    its eval layer ev. A readback slot I is the identity, E is ev, R is
    the readback layer and (RE) is ev followed by the readback layer.
    Readback recurses on its own only where ev has walked (the slot rule
    validate enforces), and ev leaves no abstraction in an operator
    position it walked, so the readback layer's operator walk never
    contracts and it has no ar1 slot."""
    layer = _Layer()
    layer.op1, layer.op2 = layer, None
    if isinstance(spec, UniformSpec):
        pick = {"I": None, "S": layer}
    elif isinstance(spec, ReadbackSpec):
        pick = {"I": None, "E": ev, "R": layer, "RE": ev}
        layer.la_then = layer if spec.la == "RE" else None
        layer.ar2_then = layer if spec.ar2 == "RE" else None
    else:
        pick = {"I": None, "S": _build_layer(spec.subsidiary), "H": layer}
        layer.op1, layer.op2 = pick["S"], layer
    layer.la = pick[spec.la]
    layer.ar1 = pick[getattr(spec, "ar1", "I")]
    layer.ar2 = pick[spec.ar2]
    return layer


def _compile(spec):
    if isinstance(spec, str):
        spec = parse_spec(spec)
    got = _build(spec)
    if got.__class__ is str:
        raise EngineError(got)
    return got


@cache
def _build(spec):
    """The compiled form of spec: its root layer and, for a readback
    encoding, the readback layer over it; or, for a rejected spec, the
    message it raises. Specs are frozen and there are 352 encodings, so
    each is validated and built once per process."""
    report = validate(spec)
    if report.verdict in REJECTED:
        detail = "; ".join(f"{d.proviso}: {d.message}" for d in report.diagnostics)
        return f"cannot run {print_spec(spec)} ({report.verdict}): {detail}"
    if isinstance(spec, ReadbackSpec):
        ev = _build_layer(spec.ev)
        return ev, _build_layer(spec, ev)
    return _build_layer(spec), None


def _coerce_term(term) -> Term:
    return parse_term(term) if isinstance(term, str) else term


class _OutOfFuel(Exception):
    pass


# Frame opcodes. EV walks a term under a layer; AP1 dispatches on the
# evaluated operator, first walking a neutral one again under the layer it
# carries (a hybrid's own), then opening the operand premise, ar1 for an
# abstraction or ar2 for a neutral; ARG, beneath that premise's walk,
# contracts or rebuilds the neutral once it is done. THEN walks the value
# just produced again under a second layer, which is how a readback layer
# follows eval; the root THEN of a readback run, popped off an otherwise
# empty stack, also records the eval stage's value.
# CLOSE, in derivation-tree runs only, sits beneath the frames of one
# judgment and gives the innermost open node the value they leave. It
# carries nothing, but each judgment gets a tuple of its own, so that the
# blackhole can tell a judgment's CLOSE from a later one's.
_EV = 0
_MKLAM = 1
_AP1 = 2
_ARG = 3
_CLOSE = 4
_THEN = 5


class _Machine:
    # The fields every run starts with, none of them mutable: a run that
    # sets one gives itself its own.
    #
    # The recorded events, in a recording run.
    events = None
    # In a tree run, the derivation nodes of the judgments still open,
    # innermost last, over a stand-in whose premises are the roots.
    opened = None
    # (value, fuel left) when a readback run's eval stage converged.
    stage = None
    # The blackhole's anchor (see the module docstring), as (depth, frame
    # beneath, key, term, fuel, alloc, event count, path), and its span;
    # span is None once a skip is made or ruled out.
    anchor = None
    span = 16
    # The trace's skip record (see Trace), once a recording run skips.
    skipped = None

    def __init__(self, fuel, record_trace, max_nodes, trees=False):
        self.fuel = fuel
        self.record = record = record_trace or trees
        self.trees = trees
        self.alloc = [max_nodes]
        self.max_frames = MAX_FRAMES
        self.frames = []
        self.values = []
        if record:
            self.events = []
            self._ptup = {}
            if trees:
                self.opened = [DerivationNode(None)]

    def path_tuple(self, path):
        # Paths live on the frame stack as cons cells (letter, parent);
        # they only become tuples when an event is recorded. The memo is
        # keyed by id, so it must also hold the cell to pin it alive.
        if path is None:
            return ()
        memo = self._ptup
        got = memo.get(id(path))
        if got is not None and got[0] is path:
            return got[1]
        letters = []
        p = path
        base = ()
        while p is not None:
            g = memo.get(id(p))
            if g is not None and g[0] is p:
                base = g[1]
                break
            letters.append(p[0])
            p = p[1]
        tup = base + tuple(reversed(letters))
        memo[id(path)] = (path, tup)
        return tup

    def run(self):
        frames = self.frames
        values = self.values
        trees = self.trees
        opened = self.opened
        max_frames = self.max_frames
        # Only a recording run reads an address, so only it builds them;
        # in other runs every path is None.
        addressed = self.record
        while frames:
            frame = frames.pop()
            op = frame[0]
            if op == _EV:
                _, layer, t, path = frame
                depth = len(frames)
                if depth > max_frames:
                    raise ResourceLimitError(
                        "machine frame stack limit exceeded")
                if trees:
                    node = DerivationNode(t)
                    opened[-1].premises.append(node)
                    opened.append(node)
                    frames.append((_CLOSE,))
                cls = t.__class__
                if cls is Var or (cls is Lam and layer.la is None):
                    values.append(t)
                    continue
                h = t._height
                if h is not None and not trees:
                    # t holds no redex: its walk returns t (see the
                    # module docstring).
                    if depth + h + h <= max_frames:
                        values.append(t)
                        continue
                if cls is Lam:
                    frames.append((_MKLAM, t))
                    if addressed:
                        path = ("B", path)
                    then = layer.la_then
                    if then is not None:
                        frames.append((_THEN, then, path))
                    frames.append((_EV, layer.la, t.body, path))
                else:
                    frames.append((_AP1, layer, t, path, layer.op2))
                    frames.append((_EV, layer.op1, t.operator,
                                   ("F", path) if addressed else None))
                continue
            elif op == _MKLAM:
                src = frame[1]
                body = values.pop()
                values.append(src if body is src.body else Lam(src.param, body))
                continue
            elif op == _AP1:
                _, layer, appnode, path, op2 = frame
                head = values.pop()
                if head.__class__ is Lam:
                    walker = layer.ar1
                    then = None
                elif op2 is not None:
                    # A hybrid walks its neutral operator again, under
                    # itself, before the operand premise.
                    frames.append((_AP1, layer, appnode, path, None))
                    frames.append((_EV, op2, head,
                                   ("F", path) if addressed else None))
                    continue
                else:
                    walker = layer.ar2
                    then = layer.ar2_then
                arg = appnode.operand
                if walker is not None:
                    # The operand premise. Outside tree runs, an operand
                    # with no redex, or an abstraction under a layer that
                    # leaves bodies alone and no THEN, is its own value;
                    # its walk would open on ARG and THEN. A bound of
                    # 1 + 2h would decide the same: it is short only for
                    # a variable under a readback's (RE) operand slot,
                    # whose eval walk pops at len(frames) + 2, and the
                    # eval walk that built this neutral, a frame deeper
                    # than the readback layer at every address, has
                    # popped its operator that deep already, or returned
                    # it at once, as the readback layer then does too.
                    reach = None
                    if not trees:
                        h = arg._height
                        if h is not None:
                            reach = len(frames) + 2 + h + h
                        elif (then is None and arg.__class__ is Lam
                              and walker.la is None):
                            reach = len(frames) + 1
                    if reach is None or reach > max_frames:
                        frames.append((_ARG, layer, appnode, head, path))
                        if addressed:
                            path = ("A", path)
                        if then is not None:
                            frames.append((_THEN, then, path))
                        frames.append((_EV, walker, arg, path))
                        continue
            elif op == _ARG:
                _, layer, appnode, head, path = frame
                arg = values.pop()
            elif op == _CLOSE:
                opened.pop().output = values[-1]
                continue
            else:  # _THEN
                _, layer, path = frame
                value = values.pop()
                if not frames:
                    # The root THEN of a readback run: the eval stage is
                    # done.
                    self.stage = (value, self.fuel)
                frames.append((_EV, layer, value, path))
                continue
            # AP1 and ARG end here, once the operand premise has given
            # arg: contract, or finish the neutral.
            if head.__class__ is Lam:
                max_frames = self._contract(layer, appnode, head, arg, path)
            elif arg is appnode.operand and head is appnode.operator:
                values.append(appnode)
            else:
                values.append(App(head, arg))
        return values.pop()

    def _contract(self, layer, appnode, lam, operand, path):
        """Contract lam applied to operand, the values of appnode's
        premises, at path, and push the contractum's judgment under
        layer, consulting the blackhole on every 16th contraction.
        Returns the frame limit, which a skip lowers."""
        fuel = self.fuel
        if fuel == 0:
            raise _OutOfFuel
        fuel -= 1
        self.fuel = fuel
        contractum = substitute(operand, lam.param, lam.body, self.alloc)
        if self.record:
            events = self.events
            if lam is appnode.operator and operand is appnode.operand:
                redex = appnode
            else:
                redex = App(lam, operand)
            event = TraceEvent(len(events), self.path_tuple(path), redex,
                               contractum)
            events.append(event)
            if self.trees:
                self.opened[-1].event = event
        if not fuel & 15 and self.span:
            self._blackhole(layer, contractum, path)
        self.frames.append((_EV, layer, contractum, path))
        return self.max_frames

    def _blackhole(self, layer, contractum, path):
        """Compare the judgment of contractum under layer, about to open
        on top of the stack, with the anchor: skip the run's remaining
        whole periods if it repeats the pending anchor with the same
        sharing, else move the anchor here once it has closed or stood
        for its span."""
        frames = self.frames
        depth = len(frames)
        key = (layer, contractum._hash)
        anchor = self.anchor
        if anchor is not None and _pending(anchor, frames, depth):
            if anchor[2] == key and _same_dag(anchor[3], contractum):
                self._skip(anchor, path)
                return
            if anchor[4] - self.fuel < self.span:
                return
            self.span *= 2
        self.anchor = (depth, frames[depth - 1] if depth else None, key,
                       contractum, self.fuel, self.alloc[0],
                       None if self.events is None else len(self.events),
                       path)

    def _skip(self, anchor, path):
        """The judgment of anchor has opened again, with the same sharing,
        at the top of the stack, whose path cell is path: the run
        repeats the period between the two for as long as it lasts.
        Account for all the whole periods that fuel and max_nodes leave
        room for but the last, as if they had run, lower the frame limit
        by their rise, and leave the rest to the machine. The limit may
        fall below the stack; the first real period then raises the frame
        error a skipped one would have (see the module docstring)."""
        depth0, _, _, _, fuel0, alloc0, count0, path0 = anchor
        self.anchor = self.span = None
        frames = self.frames
        step = fuel0 - self.fuel
        grown = alloc0 - self.alloc[0]
        rise = len(frames) - depth0
        periods = self.fuel // step
        if grown:
            periods = min(periods, self.alloc[0] // grown)
        k = int(periods) - 1
        if k < 1:
            return
        self.fuel -= k * step
        self.alloc[0] -= k * grown
        self.max_frames -= k * rise
        if self.events is None or self.trees:
            # A tree run that skips ends in an error, so no event of it
            # is read.
            return
        letters = []
        p = path
        while p is not path0:
            letters.append(p[0])
            p = p[1]
        self.skipped = (count0, step, k, self.path_tuple(path0),
                        tuple(reversed(letters)))
        # The repeat never closes, so the address cell of every later
        # event descends from path, which now sits k periods deeper:
        # those addresses are recorded relative to it.
        self._ptup[id(path)] = (path, ())


def _pending(anchor, frames, depth):
    """Whether the judgment of the blackhole's anchor is still open on a
    stack of depth frames: the frame it opened on is still in place."""
    d, beneath = anchor[0], anchor[1]
    return beneath is None or (d <= depth and frames[d - 1] is beneath)


def _same_dag(a, b) -> bool:
    """Whether a and b are equal trees with the same sharing: a
    one-to-one map of a's nodes onto b's matches kind, name and
    children."""
    there = {}
    back = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        got = there.get(id(x))
        if got is not None:
            if got is not y:
                return False
            continue
        if id(y) in back:
            return False
        there[id(x)] = y
        back[id(y)] = x
        cls = x.__class__
        if cls is not y.__class__:
            return False
        if cls is Var:
            if x.name != y.name:
                return False
        elif cls is Lam:
            if x.param != y.param:
                return False
            stack.append((x.body, y.body))
        else:
            stack.append((x.operator, y.operator))
            stack.append((x.operand, y.operand))
    return True


def _closes(layer, term, depth):
    """Whether the walk of term under layer, opened at stack depth depth,
    returns term at its first EV pop, as _Machine.run decides it."""
    h = term._height
    if h is not None and depth + h + h <= MAX_FRAMES:
        return True
    return term.__class__ is Lam and layer.la is None and depth <= MAX_FRAMES


def _answers_at_once(layers, term):
    """Whether a run of term under the compiled layers closes its root
    judgment at the first EV pop: a readback run's eval walk opens at
    depth 1, above the root THEN frame, and its readback walk at 0."""
    root, readback = layers
    if readback is None:
        return _closes(root, term, 0)
    return _closes(root, term, 1) and _closes(readback, term, 0)


_NO_EVENTS = Trace(())


def _run_machine(layers, term, fuel, record_trace, max_nodes, trees=False):
    """Shared driver over a compiled spec. A readback encoding runs in
    one walk: its readback layer waits in the root THEN frame under the
    eval stage."""
    if not isinstance(fuel, int):
        raise EngineError(f"fuel budget must be an integer, got {fuel!r}")
    if fuel < 0:
        raise EngineError("fuel budget must be nonnegative")
    if not isinstance(max_nodes, int) or max_nodes < 0:
        raise EngineError(
            f"max_nodes must be a nonnegative integer, got {max_nodes!r}")
    root, readback = layers
    # Only a term with no redex, or an abstraction under a root layer that
    # leaves bodies alone, can close at once: the test spares every other
    # run the call.
    if (not trees and (term._height is not None
                       or term.__class__ is Lam and root.la is None)
            and _answers_at_once(layers, term)):
        trace = _NO_EVENTS if record_trace else None
        stage = None if readback is None else Outcome(CONVERGED, term,
                                                      trace, 0)
        return Outcome(CONVERGED, term, trace, 0, stage), None
    machine = _Machine(fuel, record_trace, max_nodes, trees)
    frames = machine.frames
    if readback is not None:
        frames.append((_THEN, readback, None))
    frames.append((_EV, root, term, None))
    exhausted = False
    result = None
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        result = machine.run()
    except _OutOfFuel:
        exhausted = True
    except ResourceLimitError as exc:
        # The walk's frames hold its stacks and the substitution's memo
        # tables (see the module docstring).
        raise exc.with_traceback(None)
    finally:
        machine.frames.clear()
        machine.values.clear()
        if paused:
            gc.enable()
    trace = events = None
    if machine.record:
        events = tuple(machine.events)
        trace = Trace(events, machine.skipped)
    stage = None
    if machine.stage is not None:
        # The eval stage recorded one event per unit of fuel it spent,
        # before any skip.
        value, left = machine.stage
        spent = fuel - left
        stage = Outcome(CONVERGED, value,
                        None if events is None else Trace(events[:spent]),
                        spent)
    if exhausted:
        outcome = Outcome(FUEL_EXHAUSTED, None, trace, fuel, stage)
    else:
        outcome = Outcome(CONVERGED, result, trace, fuel - machine.fuel, stage)
    roots = None
    if trees:
        if exhausted:
            raise EngineError("fuel exhausted before the derivation completed")
        roots = tuple(machine.opened[0].premises)
    return outcome, roots


def evaluate(spec, term, fuel=DEFAULT_FUEL, *, record_trace=True,
             max_nodes=DEFAULT_MAX_NODES) -> Outcome:
    """Run a strategy on a term under a fuel budget.

    spec and term may be given as text. Every beta contraction consumes
    one fuel unit; on exhaustion the outcome keeps the trace produced so
    far and reports fuel_used equal to the budget. record_trace=False
    skips trace construction, which matters on large sweeps. When a
    readback encoding's eval stage converges, outcome.stage is the
    outcome evaluate(spec.ev, term, fuel) gives. A run that repeats
    itself is cut short (see the module docstring); its outcome, trace
    included, is the one the full walk gives.
    """
    outcome, _ = _run_machine(_compile(spec), _coerce_term(term), fuel,
                              record_trace, max_nodes)
    return outcome


def derivation_forest(spec, term, fuel=DEFAULT_FUEL, *,
                      max_nodes=DEFAULT_MAX_NODES) -> tuple[DerivationNode, ...]:
    """Derivation trees for any strategy: one tree for an eval-apply
    evaluator, the eval tree stacked under the readback tree for a
    staged one."""
    _, roots = _run_machine(_compile(spec), _coerce_term(term), fuel, True,
                            max_nodes, trees=True)
    return roots


def sequence_from_tree(tree: DerivationNode) -> tuple[TraceEvent, ...]:
    """Contractions of a derivation in in-order: for a CON node, the
    premises that produced the redex, then its own event, then the
    continuation."""
    out = []
    stack = [("n", tree)]
    while stack:
        tag, item = stack.pop()
        if tag == "e":
            out.append(item)
            continue
        if item.kind == "CON":
            stack.append(("n", item.premises[-1]))
            stack.append(("e", item.event))
            for p in reversed(item.premises[:-1]):
                stack.append(("n", p))
        else:
            for p in reversed(item.premises):
                stack.append(("n", p))
    return tuple(out)


def _subterm_spine(term: Term, position) -> list:
    spine = []
    node = term
    for letter in position:
        spine.append((node, letter))
        cls = node.__class__
        if letter == "F" and cls is App:
            node = node.operator
        elif letter == "A" and cls is App:
            node = node.operand
        elif letter == "B" and cls is Lam:
            node = node.body
        else:
            raise EngineError(
                f"position {''.join(position)} does not address a subterm"
            )
    spine.append((node, None))
    return spine


def reconstruct_sequence(term, trace) -> list[Term]:
    """Replay a trace: each event's redex must sit at its recorded
    address, and is rewritten to the contractum. Returns every whole
    term along the way, starting with the input. A mismatch means the
    trace does not belong to the term and raises EngineError."""
    term = _coerce_term(term)
    seq = [term]
    current = term
    for event in trace:
        spine = _subterm_spine(current, event.position)
        at, _ = spine[-1]
        if at != event.redex:
            raise EngineError(
                f"replay mismatch at step {event.step_index}: expected "
                f"{event.redex!r} at {''.join(event.position) or 'root'}, "
                f"found {at!r}"
            )
        rebuilt = event.contractum
        for parent, letter in reversed(spine[:-1]):
            if letter == "F":
                rebuilt = App(rebuilt, parent.operand)
            elif letter == "A":
                rebuilt = App(parent.operator, rebuilt)
            else:
                rebuilt = Lam(parent.param, rebuilt)
        current = rebuilt
        seq.append(current)
    return seq
