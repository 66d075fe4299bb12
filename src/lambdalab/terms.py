"""Core term representation for the pure lambda calculus.

Terms are immutable trees with three node kinds: variables, abstractions,
applications. Binding is by name; capture is avoided by renaming binders
with a deterministic trailing-number freshening scheme, so two runs over
the same inputs always pick the same names.

Every node gets its set of free variables when it is made, from its
children's, so free_vars walks nothing. It also gets _height: its
height if it holds no redex (a variable is 0, a node is one more than
its highest child) and None if it does, which lets an evaluator return
such a term at once (see the engine), and classify answer without a
walk that such a term or subterm is in all four normal-form families.
A node's _hash keeps 60 bits, the most a two-digit CPython int holds:
32 bytes, where a full 64-bit hash takes a 48-byte block, which pays
for the new slot.

Divergent terms routinely grow very deep before an evaluator's fuel runs
out, and none of these helpers may crash on such terms. Equality, alpha
equivalence, classification, printing and parsing use an explicit work
stack. Substitution, the walk made once per contraction, recurses for
the first _RECURSION_DEPTH levels, which is cheaper than a stack of
frames, and hands the rest of a deeper subterm to an explicit-stack
loop. So a call adds a bounded number of frames to the Python stack
however deep its term is.

A substitution visits a shared subterm once per binding: each binding
[rand/v] of a call, the call's own and each binder rename's, keeps a
memo table keyed by node identity alone, so a DAG's sharing survives
into the result. Every table lives until the call returns, since its
keys are the ids of nodes that a dropped rename table could let die
(see _subst).

The recursive walk also keeps in a binding's table the fresh names it
has drawn, so shadowing binders such as \v4.\v4.\v4.M, which all
rename to one fresh name, draw it once. The stack loop draws each name
anew and picks the same one.
"""

from __future__ import annotations

import enum
import gc
import re


class ParseError(ValueError):
    """Raised for malformed term or corpus text."""


class ResourceLimitError(RuntimeError):
    """Raised when an evaluation exceeds a machine guard (not fuel)."""


_MASK = (1 << 60) - 1  # node hashes keep 60 bits


class Term:
    """Abstract base class. Concrete terms are Var, Lam, App."""

    __slots__ = ()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        # Hash inequality settles most mismatches before the walk does.
        if self._hash != other._hash:
            return False
        stack = [(self, other)]
        seen = set()
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            ta = type(a)
            if ta is not type(b) or a._hash != b._hash:
                return False
            key = (id(a), id(b))
            if key in seen:
                continue
            seen.add(key)
            if ta is Var:
                if a.name != b.name:
                    return False
            elif ta is Lam:
                if a.param != b.param:
                    return False
                stack.append((a.body, b.body))
            else:
                stack.append((a.operator, b.operator))
                stack.append((a.operand, b.operand))
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return print_term(self)


# One free-variable set per variable name, shared by every Var of it.
_VAR_FV: dict[str, frozenset[str]] = {}


class Var(Term):
    __slots__ = ("name", "_hash", "_fv", "_height")

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("v", name)) & _MASK
        self._height = 0
        fv = _VAR_FV.get(name)
        if fv is None:
            fv = _VAR_FV[name] = frozenset((name,))
        self._fv = fv


class Lam(Term):
    __slots__ = ("param", "body", "_hash", "_fv", "_height")

    def __init__(self, param: str, body: Term):
        self.param = param
        self.body = body
        self._hash = hash(("l", param, body._hash)) & _MASK
        h = body._height
        self._height = None if h is None else h + 1
        fv = body._fv
        self._fv = fv.difference((param,)) if param in fv else fv


class App(Term):
    __slots__ = ("operator", "operand", "_hash", "_fv", "_height")

    def __init__(self, operator: Term, operand: Term):
        self.operator = operator
        self.operand = operand
        self._hash = hash(("a", operator._hash, operand._hash)) & _MASK
        # None or a small int, which CPython shares up to 256, so most
        # nodes hold no int of their own.
        g = operator._height
        h = operand._height
        self._height = (None if g is None or h is None
                        or operator.__class__ is Lam
                        else g + 1 if g > h else h + 1)
        # Where a child's set is the answer it is shared, not copied.
        a = operator._fv
        b = operand._fv
        self._fv = a if b <= a else b if a <= b else a | b


def free_vars(t: Term) -> frozenset[str]:
    """Free variable names of t, computed when t was made."""
    return t._fv


_DIGITS = "0123456789"
# The trailing number of every name a fresh name was drawn over, 0 for
# none.
_NUMBER: dict[str, int] = {}


def _number(name):
    """Cache and return the trailing number of name."""
    digits = name[len(name.rstrip(_DIGITS)):]
    k = _NUMBER[name] = int(digits) if digits else 0
    return k


def fresh_var(used, base: str) -> str:
    """A name not in `used`, derived from `base`.

    The stem is `base` stripped of trailing digits; the new suffix is one
    more than the largest trailing number carried by any scanned name
    (`used` plus `base` itself; names without one count as 0). Larger than
    every trailing number in scope, the result cannot collide.
    """
    return _fresh(base, used, (), base)


def _fresh(base, names, more, v):
    """fresh_var(names | more | {v}, base), without building the union.
    It runs once per rename, so each set has its own loop: one loop over
    chain(names, more, (base, v)) takes 1.7 times as long a call."""
    known = _NUMBER
    best = known.get(base)
    if best is None:
        best = _number(base)
    k = known.get(v)
    if k is None:
        k = _number(v)
    if k > best:
        best = k
    for name in names:
        k = known.get(name)
        if k is None:
            k = _number(name)
        if k > best:
            best = k
    for name in more:
        k = known.get(name)
        if k is None:
            k = _number(name)
        if k > best:
            best = k
    return f"{base.rstrip(_DIGITS)}{best + 1}"


# How many levels substitute descends by plain recursion before it hands
# the rest of a subterm to its explicit-stack loop: well under half of
# the default recursion limit of 1000 frames.
_RECURSION_DEPTH = 200


def substitute(operand: Term, var: str, body: Term, _alloc=None) -> Term:
    """Capture-avoiding substitution: [operand/var]body.

    A binder is renamed only when it occurs free in `operand` and the
    substitution actually descends past it; the fresh name is drawn from
    the free variables of the three inputs, so the choice is deterministic
    and scoped to this call. Unchanged subtrees are returned as-is, which
    keeps results sharing structure with their inputs.

    `_alloc` is an optional one-element list holding a remaining node
    allowance; evaluators pass it to bound runaway growth.
    """
    if type(body) is Var:
        return operand if body.name == var else body
    if var not in body._fv:
        return body
    return _subst(body, var, operand, operand._fv, {}, _alloc,
                  _RECURSION_DEPTH)


def _subst(node, v, rand, fvr, memo, alloc, depth):
    """[rand/v]node, for a Lam or App node with v free in it, by
    recursion for depth levels, then by _subst_loop.

    fvr is free_vars(rand). A child that lacks v or is a variable is
    answered here, not by a call. memo is the table of the binding
    [rand/v], from id(node) to the result for node; a rename [r/p], r a
    fresh variable, is a binding of its own with a fresh table. Both
    walks fill the same tables in the same order, so they build, share
    and charge exactly the same nodes.

    Keys are ids, so every node a table names must outlive the table. A
    rename table holds the renamed copy, whose nodes become keys of the
    outer table as the walk goes on into it; were the rename table
    dropped, the copy could die and a node built later in the call take
    its id and hit a stale entry. So each rename table is pinned in the
    table that made it, under its own id, until the call returns; no
    live node shares a live table's id, so a pin is never a hit.

    Within a binding, a fresh name depends only on the binder and its
    body's free variables, so the table also maps (binder, id of the
    body's set) to the name drawn for them. The body is a node of the
    call's input or of a pinned renamed copy, alive until the call
    returns, so no other set takes the id meanwhile.
    """
    if not depth:
        return _subst_loop(node, v, rand, fvr, memo, alloc)
    hit = memo.get(id(node))
    if hit is not None:
        return hit
    depth -= 1
    if type(node) is Lam:
        p = node.param
        b = node.body
        if p in fvr:
            # Renaming re-enters substitution, which keeps nested binder
            # collisions capture-safe. v stays free in the renamed body,
            # and a body that is a variable is v, so p is not free in it.
            key = (p, id(b._fv))
            fresh = memo.get(key)
            if fresh is None:
                fresh = memo[key] = _fresh(p, fvr, b._fv, v)
            if p in b._fv:
                r = Var(fresh)
                renamed = {}
                memo[id(renamed)] = renamed
                b = _subst(b, p, r, r._fv, renamed, alloc, depth)
            p = fresh
        nb = (rand if type(b) is Var
              else _subst(b, v, rand, fvr, memo, alloc, depth))
        out = node if nb is node.body and p == node.param else Lam(p, nb)
    else:
        m = node.operator
        n = node.operand
        nm = (m if v not in m._fv else rand if type(m) is Var
              else _subst(m, v, rand, fvr, memo, alloc, depth))
        nn = (n if v not in n._fv else rand if type(n) is Var
              else _subst(n, v, rand, fvr, memo, alloc, depth))
        out = node if nm is m and nn is n else App(nm, nn)
    if out is not node and alloc is not None:
        alloc[0] -= 1
        if alloc[0] < 0:
            raise ResourceLimitError("substitution allocation limit exceeded")
    memo[id(node)] = out
    return out


# _subst_loop instruction opcodes
_S_GO, _S_LAM, _S_APP, _S_AGAIN = 0, 1, 2, 3


def _subst_loop(node, v, rand, fvr, memo, alloc):
    """[rand/v]node as _subst computes it, on an explicit stack.

    Each _S_GO carries its binding's memo table. _S_LAM and _S_APP carry
    the table their result goes in and each child's result, or None
    where it is still to come off vals."""
    instr = [(_S_GO, node, v, rand, fvr, memo)]
    vals = []
    while instr:
        f = instr.pop()
        op = f[0]
        if op == _S_GO:
            _, node, v, rand, fvr, memo = f
            hit = memo.get(id(node))
            if hit is not None:
                vals.append(hit)
            elif type(node) is Lam:
                p = node.param
                b = node.body
                if p in fvr:
                    fresh = _fresh(p, fvr, b._fv, v)
                    if p in b._fv:
                        r = Var(fresh)
                        renamed = {}
                        memo[id(renamed)] = renamed
                        instr.append((_S_LAM, node, fresh, memo, None))
                        instr.append((_S_AGAIN, v, rand, fvr, memo))
                        instr.append((_S_GO, b, p, r, r._fv, renamed))
                        continue
                    p = fresh
                if type(b) is Var:
                    instr.append((_S_LAM, node, p, memo, rand))
                else:
                    instr.append((_S_LAM, node, p, memo, None))
                    instr.append((_S_GO, b, v, rand, fvr, memo))
            else:
                m = node.operator
                n = node.operand
                nm = m if v not in m._fv else rand if type(m) is Var else None
                nn = n if v not in n._fv else rand if type(n) is Var else None
                instr.append((_S_APP, node, memo, nm, nn))
                if nn is None:
                    instr.append((_S_GO, n, v, rand, fvr, memo))
                if nm is None:
                    instr.append((_S_GO, m, v, rand, fvr, memo))
            continue
        if op == _S_AGAIN:  # feed a finished rename back through [rand/v]
            _, v, rand, fvr, memo = f
            instr.append((_S_GO, vals.pop(), v, rand, fvr, memo))
            continue
        if op == _S_LAM:
            _, node, p, memo, nb = f
            if nb is None:
                nb = vals.pop()
            out = node if nb is node.body and p == node.param else Lam(p, nb)
        else:
            _, node, memo, nm, nn = f
            if nn is None:
                nn = vals.pop()
            if nm is None:
                nm = vals.pop()
            out = (node if nm is node.operator and nn is node.operand
                   else App(nm, nn))
        if out is not node and alloc is not None:
            alloc[0] -= 1
            if alloc[0] < 0:
                raise ResourceLimitError("substitution allocation limit exceeded")
        memo[id(node)] = out
        vals.append(out)
    return vals[0]


def alpha_eq(a: Term, b: Term) -> bool:
    """Alpha equivalence: equal up to consistent renaming of bound names.

    Equal trees are alpha equivalent and `==` is exact (it rejects on the
    cached hashes or walks both terms), so the nameless signatures are
    built only when `==` says no: rarely, as one engine's runs build
    equal trees."""
    if a == b:
        return True
    intern = {}
    return _alpha_sig(a, intern) == _alpha_sig(b, intern)


def _alpha_sig(t: Term, intern: dict):
    """Canonical nameless signature of t.

    Bound variables become binder-distance indices, so two terms are alpha
    equivalent exactly when their signatures coincide. Each signature is
    interned in `intern` as a small int, and a node's signature holds its
    children's ints, so no tuple nests and hashing stays flat however deep
    the term. Signatures are memoized per (node, relevant-bindings) so
    shared subterms are visited once per distinct binding context.
    """
    memo = {}
    env = {}
    instr = [(0, t, 0)]
    vals = []
    while instr:
        f = instr.pop()
        tag = f[0]
        if tag == 0:
            node, depth = f[1], f[2]
            ty = type(node)
            if ty is Var:
                lvl = env.get(node.name)
                sig = ("f", node.name) if lvl is None else ("b", depth - lvl)
                vals.append(intern.setdefault(sig, len(intern)))
                continue
            items = []
            for name in free_vars(node):
                lvl = env.get(name)
                if lvl is not None:
                    items.append((name, depth - lvl))
            items.sort()
            key = (id(node), tuple(items))
            hit = memo.get(key)
            if hit is not None:
                vals.append(hit)
                continue
            if ty is Lam:
                p = node.param
                instr.append((1, key, p, env.get(p)))
                env[p] = depth
                instr.append((0, node.body, depth + 1))
            else:
                instr.append((2, key))
                instr.append((0, node.operand, depth))
                instr.append((0, node.operator, depth))
        elif tag == 1:
            _, key, p, old = f
            if old is None:
                del env[p]
            else:
                env[p] = old
            sig = intern.setdefault(("l", vals.pop()), len(intern))
            memo[key] = sig
            vals.append(sig)
        else:
            _, key = f
            asig = vals.pop()
            msig = vals.pop()
            sig = intern.setdefault(("a", msig, asig), len(intern))
            memo[key] = sig
            vals.append(sig)
    return vals[0]


class FormClass(enum.Enum):
    """Families of terms an evaluation can end in, plus two shape flags.

    NF, WNF, HNF, WHNF are the classic (weak/head) normal form families;
    VHNF is their WNF-and-HNF intersection. NEUTRAL marks an application
    spine headed by a variable; REDEX marks a term whose operator is an
    abstraction.
    """

    NF = "NF"
    WNF = "WNF"
    HNF = "HNF"
    WHNF = "WHNF"
    VHNF = "VHNF"
    NEUTRAL = "Neutral"
    REDEX = "Redex"


_NF, _WNF, _HNF, _WHNF = 1, 2, 4, 8
_ALL_FORMS = _NF | _WNF | _HNF | _WHNF
_NEUTRAL, _REDEX = 16, 32


def _form_mask(t: Term) -> int:
    """The family bits of t. A node with a redex-free height holds no
    redex, so it is in all four families and is not walked."""
    if t._height is not None:
        return _ALL_FORMS
    memo = {}
    stack = [t]
    while stack:
        node = stack[-1]
        key = id(node)
        if key in memo:
            stack.pop()
            continue
        if node._height is not None:
            memo[key] = _ALL_FORMS
            stack.pop()
        elif type(node) is Lam:
            bk = id(node.body)
            mb = memo.get(bk)
            if mb is None:
                stack.append(node.body)
                continue
            m = _WNF | _WHNF
            if mb & _NF:
                m |= _NF
            if mb & _HNF:
                m |= _HNF
            memo[key] = m
            stack.pop()
        else:
            if type(node.operator) is Lam:
                memo[key] = 0  # a top-level redex belongs to no family
                stack.pop()
                continue
            mm = memo.get(id(node.operator))
            mn = memo.get(id(node.operand))
            if mm is None or mn is None:
                if mn is None:
                    stack.append(node.operand)
                if mm is None:
                    stack.append(node.operator)
                continue
            m = 0
            if mm & _NF and mn & _NF:
                m |= _NF
            if mm & _WNF and mn & _WNF:
                m |= _WNF
            if mm & _HNF:
                m |= _HNF
            if mm & _WHNF:
                m |= _WHNF
            memo[key] = m
            stack.pop()
    return memo[id(t)]


def _form_classes(bits: int) -> frozenset[FormClass]:
    out = {form for bit, form in ((_NF, FormClass.NF), (_WNF, FormClass.WNF),
                                  (_HNF, FormClass.HNF),
                                  (_WHNF, FormClass.WHNF),
                                  (_NEUTRAL, FormClass.NEUTRAL),
                                  (_REDEX, FormClass.REDEX))
           if bits & bit}
    if bits & _WNF and bits & _HNF:
        out.add(FormClass.VHNF)
    return frozenset(out)


# The families of every family mask with its NEUTRAL and REDEX bits.
_FORM_CLASSES = tuple(map(_form_classes, range(64)))


def classify(t: Term) -> set[FormClass]:
    """The set of FormClass families t belongs to."""
    bits = _form_mask(t)
    if type(t) is App:
        head = t.operator
        while type(head) is App:
            head = head.operator
        if type(head) is Var:
            bits |= _NEUTRAL
        if type(t.operator) is Lam:
            bits |= _REDEX
    return set(_FORM_CLASSES[bits])


# Printer contexts: OPEN extends to the end of the enclosing group,
# OPERATOR is the left side of an application, OPERAND_END / OPERAND_MID
# are right sides with nothing / something following.
_P_OPEN, _P_OPERATOR, _P_OPERAND_END, _P_OPERAND_MID = 0, 1, 2, 3


def print_term(t: Term) -> str:
    """Render t with backslash lambdas and minimal parentheses.

    Applications associate left; abstraction bodies extend as far right as
    possible, so a trailing operand abstraction needs no parentheses.
    Round-trips through parse_term.
    """
    out = []
    stack = [(t, _P_OPEN)]
    while stack:
        f = stack.pop()
        if type(f) is str:
            out.append(f)
            continue
        node, ctx = f
        ty = type(node)
        if ty is Var:
            out.append(node.name)
        elif ty is Lam:
            if ctx in (_P_OPEN, _P_OPERAND_END):
                out.append("\\" + node.param + ".")
                stack.append((node.body, _P_OPEN))
            else:
                out.append("(\\" + node.param + ".")
                stack.append(")")
                stack.append((node.body, _P_OPEN))
        else:
            if ctx in (_P_OPERAND_END, _P_OPERAND_MID):
                out.append("(")
                stack.append(")")
                stack.append((node.operand, _P_OPERAND_END))
                stack.append(" ")
                stack.append((node.operator, _P_OPERATOR))
            else:
                nctx = _P_OPERAND_MID if ctx == _P_OPERATOR else _P_OPERAND_END
                stack.append((node.operand, nctx))
                stack.append(" ")
                stack.append((node.operator, _P_OPERATOR))
    return "".join(out)


# The largest n the #church:<n> numerals of one term may sum to, the
# engine's default max_nodes: a numeral has n + 2 nodes, and a larger
# request would allocate unbounded.
_CHURCH_MAX = 1_000_000

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<lam>\\|λ)
  | (?P<dot>\.)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<builtin>\#[A-Za-z_][A-Za-z0-9_']*(?::[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    pos = 0
    n = len(text)
    toks = []
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            toks.append((kind, m.group(), pos))
        pos = m.end()
    return toks


def parse_term(text: str) -> Term:
    """Parse the term grammar.

    Syntax: variables are identifiers; `\\x.M` or `λx.M` abstracts (with
    multi-binder sugar `\\x y z.M`); juxtaposition applies, associating
    left; parentheses group; `#Name` splices a builtin term; `--` comments
    to end of line.
    """
    toks = _tokenize(text)
    if "#church:" in text:
        _check_church(toks)
    pos = 0
    n = len(toks)
    # Frames hold (binders, items) segments; a lambda opens a new segment
    # whose body runs to the end of the enclosing group.
    frames = [[([], [])]]

    def fold(frame, where):
        result = None
        for binders, items in reversed(frame):
            if result is not None:
                items = items + [result]
            if not items:
                raise ParseError(f"missing term {where}")
            term = items[0]
            for it in items[1:]:
                term = App(term, it)
            for p in reversed(binders):
                term = Lam(p, term)
            result = term
        return result

    while pos < n:
        kind, text_, at = toks[pos]
        if kind == "name":
            frames[-1][-1][1].append(Var(text_))
            pos += 1
        elif kind == "builtin":
            name = text_[1:]
            if name.startswith("church:"):
                frames[-1][-1][1].append(churchN(int(name[7:])))
                pos += 1
                continue
            if name not in _BUILTINS:
                known = ", ".join(sorted(_BUILTINS) + ["church:<n>"])
                raise ParseError(
                    f"unknown builtin #{name} at offset {at}; known: {known}"
                )
            frames[-1][-1][1].append(_BUILTINS[name])
            pos += 1
        elif kind == "lparen":
            frames.append([([], [])])
            pos += 1
        elif kind == "rparen":
            if len(frames) == 1:
                raise ParseError(f"unbalanced ')' at offset {at}")
            term = fold(frames.pop(), "inside parentheses")
            frames[-1][-1][1].append(term)
            pos += 1
        elif kind == "lam":
            binders = []
            pos += 1
            while pos < n and toks[pos][0] == "name":
                binders.append(toks[pos][1])
                pos += 1
            if not binders:
                raise ParseError(f"lambda without binder at offset {at}")
            if pos >= n or toks[pos][0] != "dot":
                raise ParseError(f"expected '.' after binder at offset {at}")
            pos += 1
            frames[-1].append((binders, []))
        else:
            raise ParseError(f"unexpected {text_!r} at offset {at}")
    if len(frames) > 1:
        raise ParseError("unbalanced '(': group never closed")
    return fold(frames[0], "in input")


def _check_church(toks):
    """Refuse the term before any numeral is built if one #church:<n> or
    the sum over all of them is above _CHURCH_MAX."""
    total = 0
    for kind, text, at in toks:
        if kind == "builtin" and text.startswith("#church:"):
            digits = text[8:].lstrip("0")
            # Checked before int(), which refuses 4,300 digits.
            if len(digits) > 7 or int(digits or 0) > _CHURCH_MAX:
                raise ParseError(f"#church numeral at offset {at} is "
                                 f"above {_CHURCH_MAX:,}")
            total += int(digits or 0)
    if total > _CHURCH_MAX:
        raise ParseError(f"#church numerals sum to {total:,}, above "
                         f"{_CHURCH_MAX:,}")


def churchN(n: int) -> Term:
    """The Church numeral for n: \\s.\\z.s (s ... (s z))."""
    if n < 0:
        raise ValueError("Church numerals are defined for naturals")
    s = Var("s")
    body = Var("z")
    # The chain makes no cycle, so the cyclic collector, which would scan
    # it again and again as it grows, is paused (as the engine pauses it).
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        for _ in range(n):
            body = App(s, body)
    finally:
        if paused:
            gc.enable()
    return Lam("s", Lam("z", body))


# Later sources splice earlier builtins, so the table fills in this order.
_BUILTIN_SOURCES = (
    ("I", r"\x.x"),
    ("Y", r"\f.(\x.f (x x)) (\x.f (x x))"),
    ("Z", r"\f.(\x.f (\v.x x v)) (\x.f (\v.x x v))"),
    ("Omega", r"(\x.x x) (\x.x x)"),
    ("True", r"\t.\f.t"),
    ("False", r"\t.\f.f"),
    ("Cond", r"\c.\a.\b.c a b"),
    ("One", r"\s.\z.s z"),
    ("IsZero", r"\n.n (\x.#False) #True"),
    ("Mult", r"\m.\n.\s.m (n s)"),
    ("Pred", r"\n.\s.\z.n (\g.\h.h (g s)) (\u.z) (\u.u)"),
    ("F_direct", r"\f.\n.#Cond (#IsZero n) #One (#Mult n (f (#Pred n)))"),
    (
        "F_thunkLambda",
        r"\f.\n.#Cond (#IsZero n) (\v.#One) (\v.#Mult n (f (#Pred n) v))",
    ),
    (
        "F_cps",
        r"\f.\n.#Cond (#IsZero n) (\k.k #One) (\k.f (#Pred n) (\x.k (#Mult n x)))",
    ),
    (
        "F_delimcps",
        r"\f.\n.\k.#Cond (#IsZero n) (k #One) (k (f (#Pred n) (#Mult n)))",
    ),
)

_BUILTINS: dict[str, Term] = {}
for _name, _src in _BUILTIN_SOURCES:
    _BUILTINS[_name] = parse_term(_src)


def builtins() -> dict[str, Term]:
    """Mapping of #names usable in the term grammar to their terms."""
    return dict(_BUILTINS)
