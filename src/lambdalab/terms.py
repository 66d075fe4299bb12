"""Core term representation for the pure lambda calculus.

Terms are immutable trees with three node kinds: variables, abstractions,
applications. Binding is by name; capture is avoided by renaming binders
with a deterministic trailing-number freshening scheme, so two runs over
the same inputs always pick the same names.

Every traversal here (equality, free variables, substitution, alpha
equivalence, classification, printing, parsing) uses an explicit work
stack. Divergent terms routinely grow very deep before an evaluator's
fuel runs out, and none of these helpers may crash on such terms.
"""

from __future__ import annotations

import enum
import re


class ParseError(ValueError):
    """Raised for malformed term or corpus text."""


class ResourceLimitError(RuntimeError):
    """Raised when an evaluation exceeds a machine guard (not fuel)."""


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

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return print_term(self)


class Var(Term):
    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("v", name))


class Lam(Term):
    __slots__ = ("param", "body", "_hash", "_fv")

    def __init__(self, param: str, body: Term):
        self.param = param
        self.body = body
        self._hash = hash(("l", param, body._hash))
        self._fv = None


class App(Term):
    __slots__ = ("operator", "operand", "_hash", "_fv")

    def __init__(self, operator: Term, operand: Term):
        self.operator = operator
        self.operand = operand
        self._hash = hash(("a", operator._hash, operand._hash))
        self._fv = None


def free_vars(t: Term) -> frozenset[str]:
    """Free variable names of t. Cached on Lam/App nodes."""
    if type(t) is Var:
        return frozenset((t.name,))
    if t._fv is not None:
        return t._fv
    stack = [t]
    while stack:
        node = stack.pop()
        ty = type(node)
        if ty is Var or node._fv is not None:
            continue
        kids = (node.body,) if ty is Lam else (node.operator, node.operand)
        pending = [k for k in kids if type(k) is not Var and k._fv is None]
        if pending:
            stack.append(node)
            stack.extend(pending)
            continue
        if ty is Lam:
            bfv = _fv_quick(node.body)
            node._fv = bfv.difference((node.param,)) if node.param in bfv else bfv
        else:
            node._fv = _fv_quick(node.operator) | _fv_quick(node.operand)
    return t._fv


def _fv_quick(node):
    return frozenset((node.name,)) if type(node) is Var else node._fv


_TRAILING_DIGITS = re.compile(r"[0-9]+$")


def fresh_var(used, base: str) -> str:
    """A name not in `used`, derived from `base`.

    The stem is `base` stripped of trailing digits; the new suffix is one
    more than the largest trailing number carried by any scanned name
    (`used` plus `base` itself; names without one count as 0). Larger than
    every trailing number in scope, the result cannot collide.
    """
    m = _TRAILING_DIGITS.search(base)
    stem = base[: m.start()] if m else base
    best = int(m.group()) if m else 0
    for name in used:
        m = _TRAILING_DIGITS.search(name)
        if m:
            k = int(m.group())
            if k > best:
                best = k
    return f"{stem}{best + 1}"


# substitute() instruction opcodes
_S_GO, _S_LAM, _S_APP, _S_AGAIN = 0, 1, 2, 3


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
    if var not in free_vars(body):
        return body
    memo = {}
    instr = [(_S_GO, body, var, operand, free_vars(operand))]
    vals = []
    while instr:
        f = instr.pop()
        op = f[0]
        if op == _S_GO:
            _, node, v, rand, fvr = f
            ty = type(node)
            if ty is Var:
                vals.append(rand if node.name == v else node)
                continue
            if v not in free_vars(node):
                vals.append(node)
                continue
            key = (id(node), v, id(rand))
            hit = memo.get(key)
            if hit is not None:
                vals.append(hit)
                continue
            if ty is Lam:
                p = node.param
                if p in fvr:
                    # Renaming re-enters substitution, which keeps nested
                    # binder collisions capture-safe.
                    fresh = fresh_var(fvr | free_vars(node.body) | {v}, p)
                    instr.append((_S_LAM, node, fresh, key))
                    instr.append((_S_AGAIN, v, rand, fvr))
                    instr.append(
                        (_S_GO, node.body, p, Var(fresh), frozenset((fresh,)))
                    )
                else:
                    instr.append((_S_LAM, node, p, key))
                    instr.append((_S_GO, node.body, v, rand, fvr))
            else:
                instr.append((_S_APP, node, key))
                instr.append((_S_GO, node.operand, v, rand, fvr))
                instr.append((_S_GO, node.operator, v, rand, fvr))
        elif op == _S_LAM:
            _, node, p, key = f
            nb = vals.pop()
            if nb is node.body and p == node.param:
                out = node
            else:
                out = Lam(p, nb)
                if _alloc is not None:
                    _alloc[0] -= 1
                    if _alloc[0] < 0:
                        raise ResourceLimitError(
                            "substitution allocation limit exceeded"
                        )
            if key is not None:
                memo[key] = out
            vals.append(out)
        elif op == _S_APP:
            _, node, key = f
            nn = vals.pop()
            nm = vals.pop()
            if nm is node.operator and nn is node.operand:
                out = node
            else:
                out = App(nm, nn)
                if _alloc is not None:
                    _alloc[0] -= 1
                    if _alloc[0] < 0:
                        raise ResourceLimitError(
                            "substitution allocation limit exceeded"
                        )
            memo[key] = out
            vals.append(out)
        else:  # _S_AGAIN: feed a finished rename back through [rand/v]
            _, v, rand, fvr = f
            t1 = vals.pop()
            instr.append((_S_GO, t1, v, rand, fvr))
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
    return _alpha_sig(a, intern) is _alpha_sig(b, intern)


def _alpha_sig(t: Term, intern: dict):
    """Canonical nameless signature of t.

    Bound variables become binder-distance indices, so two terms are alpha
    equivalent exactly when their signatures coincide. Signatures are
    interned in `intern`, making the final comparison an identity check,
    and memoized per (node, relevant-bindings) so shared subterms are
    visited once per distinct binding context.
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
                vals.append(intern.setdefault(sig, sig))
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
            sig = ("l", vals.pop())
            sig = intern.setdefault(sig, sig)
            memo[key] = sig
            vals.append(sig)
        else:
            _, key = f
            asig = vals.pop()
            msig = vals.pop()
            sig = ("a", msig, asig)
            sig = intern.setdefault(sig, sig)
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


def _form_mask(t: Term, memo: dict) -> int:
    stack = [t]
    while stack:
        node = stack[-1]
        key = id(node)
        if key in memo:
            stack.pop()
            continue
        ty = type(node)
        if ty is Var:
            memo[key] = _ALL_FORMS
            stack.pop()
        elif ty is Lam:
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


def classify(t: Term) -> set[FormClass]:
    """The set of FormClass families t belongs to."""
    mask = _form_mask(t, {})
    out = set()
    if mask & _NF:
        out.add(FormClass.NF)
    if mask & _WNF:
        out.add(FormClass.WNF)
    if mask & _HNF:
        out.add(FormClass.HNF)
    if mask & _WHNF:
        out.add(FormClass.WHNF)
    if mask & _WNF and mask & _HNF:
        out.add(FormClass.VHNF)
    ty = type(t)
    if ty is App:
        head = t
        while type(head) is App:
            head = head.operator
        if type(head) is Var:
            out.add(FormClass.NEUTRAL)
        if type(t.operator) is Lam:
            out.add(FormClass.REDEX)
    return out


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


def parse_term(text: str, extra_names=None) -> Term:
    """Parse the term grammar.

    Syntax: variables are identifiers; `\\x.M` or `λx.M` abstracts (with
    multi-binder sugar `\\x y z.M`); juxtaposition applies, associating
    left; parentheses group; `#Name` splices a builtin term; `--` comments
    to end of line.
    """
    toks = _tokenize(text)
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
            table = dict(_BUILTINS)
            if extra_names:
                table.update(extra_names)
            if name not in table:
                known = ", ".join(sorted(table) + ["church:<n>"])
                raise ParseError(
                    f"unknown builtin #{name} at offset {at}; known: {known}"
                )
            frames[-1][-1][1].append(table[name])
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


def churchN(n: int) -> Term:
    """The Church numeral for n: \\s.\\z.s (s ... (s z))."""
    if n < 0:
        raise ValueError("Church numerals are defined for naturals")
    s = Var("s")
    body = Var("z")
    for _ in range(n):
        body = App(s, body)
    return Lam("s", Lam("z", body))


def _build_builtins():
    sources = [
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
        (
            "F_direct",
            r"\f.\n.#Cond (#IsZero n) #One (#Mult n (f (#Pred n)))",
        ),
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
    ]
    table = {}
    global _BUILTINS
    _BUILTINS = table
    for name, src in sources:
        table[name] = parse_term(src)
    return table


_BUILTINS: dict[str, Term] = {}
_build_builtins()


def builtins() -> dict[str, Term]:
    """Mapping of #names usable in the term grammar to their terms."""
    return dict(_BUILTINS)
