"""Corpus plumbing: random terms, named regression terms, and files.

generate() draws seeded random terms with a node-count budget, so a
corpus is reproducible from (config, n) alone. paper_corpus() is the
fixed set of small terms that witness the known counterexamples and
worked examples; the differential suites rely on them by name. Corpus
files are line oriented, one term per line with `--` comments.
"""

from __future__ import annotations

import random
import re

from .records import FrozenRecord
from .terms import App, Lam, ParseError, Term, Var, parse_term, print_term

_WEIGHT_VAR = 0.30
_WEIGHT_LAM = 0.35
_WEIGHT_APP = 0.35
# The probability that an application gets a literal abstraction as its
# operator, which sets how redex-rich a corpus is.
_REDEX_BIAS = 0.5


class GenConfig(FrozenRecord):
    """Knobs for the random term generator.

    seed picks the random streams. size_max bounds the node count of
    every generated term. An empty free_var_pool forces closed terms; its
    names must be variables of the term grammar, and none may have the
    shape v<digits> of the generated binders, which would capture it.
    The pool is copied to a tuple before it is checked, so a list
    changed later reaches neither the check nor generate.
    The redex bias is fixed: an application whose operator has room for
    an abstraction gets a literal one with probability 0.5.
    """

    __match_args__ = ("seed", "size_max", "free_var_pool")

    def __init__(self, seed: int, size_max: int,
                 free_var_pool: tuple[str, ...] = ()):
        if size_max < 1:
            raise ValueError("size_max must be at least 1")
        free_var_pool = tuple(free_var_pool)
        for name in free_var_pool:
            if not _is_variable(name) or re.fullmatch(r"v[0-9]+", name):
                raise ValueError(f"free variable {name!r} must be a variable "
                                 "of the term grammar not named v<digits>, "
                                 "like the generated binders")
        self.__dict__.update(seed=seed, size_max=size_max,
                             free_var_pool=free_var_pool)


def _is_variable(name: str) -> bool:
    try:
        return parse_term(name) == Var(name)
    except ParseError:
        return False


def generate(cfg: GenConfig, n: int) -> list[Term]:
    """Draw n terms, each at most cfg.size_max nodes.

    Deterministic per (cfg, n): term i is produced by its own stream
    seeded from (cfg.seed, i), so extending a corpus never reshuffles
    the terms already drawn. Terms are closed when the pool is empty."""
    if n < 0:
        raise ValueError("n must be at least 0")
    if not cfg.free_var_pool and cfg.size_max < 2:
        raise ValueError("closed terms need size_max >= 2")
    return [
        _gen_term(random.Random(f"{cfg.seed}:{i}"), cfg, cfg.free_var_pool)
        for i in range(n)
    ]


def _gen_term(rng: random.Random, cfg: GenConfig, pool: tuple[str, ...]) -> Term:
    ops: list[tuple] = [("gen", cfg.size_max, ())]
    results: list[Term] = []
    while ops:
        op = ops.pop()
        tag = op[0]
        if tag == "gen":
            _, budget, env = op
            kind = _pick_kind(rng, cfg, budget, env, pool)
            if kind == "var":
                results.append(Var(rng.choice(list(env) + list(pool))))
            elif kind == "lam":
                binder = f"v{len(env) + 1}"
                ops.append(("lam", binder))
                ops.append(("gen", budget - 1, env + (binder,)))
            else:
                # Each side of the split must stay completable: an open
                # subterm can bottom out in one Var node, a closed one
                # needs an abstraction above its leaves.
                floor = 1 if (env or pool) else 2
                op_budget = rng.randint(floor, budget - 1 - floor)
                arg_budget = budget - 1 - op_budget
                ops.append(("app",))
                if op_budget >= 2 and rng.random() < _REDEX_BIAS:
                    binder = f"v{len(env) + 1}"
                    ops.append(("gen", arg_budget, env))
                    ops.append(("lam", binder))
                    ops.append(("gen", op_budget - 1, env + (binder,)))
                else:
                    ops.append(("gen", arg_budget, env))
                    ops.append(("gen", op_budget, env))
        elif tag == "lam":
            results.append(Lam(op[1], results.pop()))
        else:
            operand = results.pop()
            results.append(App(results.pop(), operand))
    return results[0]


def _pick_kind(rng, cfg, budget, env, pool) -> str:
    can_var = bool(env) or bool(pool)
    floor = 1 if can_var else 2
    choices = []
    if can_var:
        choices.append(("var", _WEIGHT_VAR))
    # Abstraction and application weights shrink as the budget runs
    # out, steering deep positions toward leaves.
    frac = budget / cfg.size_max
    if budget >= 2:
        choices.append(("lam", _WEIGHT_LAM * frac))
    if budget >= 1 + 2 * floor:
        choices.append(("app", _WEIGHT_APP * frac))
    if not choices:
        raise ValueError("no term fits the remaining budget")
    if len(choices) == 1:
        return choices[0][0]
    total = sum(w for _, w in choices)
    roll = rng.random() * total
    for kind, weight in choices:
        roll -= weight
        if roll < 0.0:
            return kind
    return choices[-1][0]


_PAPER_TERMS = (
    ("divergent-operand", r"(\y.z) #Omega"),
    ("neutral-operand", r"(\y.z) (x (\w.w))"),
    ("strictness-counterexample", r"(\x.y) #Omega"),
    ("sis-counterexample", r"(\k.k #Omega) (\x.y)"),
    ("ao-counterexample", r"(\x.y) (\k.k #Omega)"),
    ("bv-counterexample", r"(\x.y) (x #Omega)"),
    ("ho-counterexample", r"(\x.y) (\x.#Omega)"),
    ("neutral-three-operands", r"x (\x.(\a.a) u1) ((\a.a) u2) ((\a.a) u3)"),
    ("operator-neutral-redex", r"((\x.x x) (x ((\a.a) u))) (\w.w)"),
    ("double-use", r"(\x.(\y.\z.y) x x) (\w.w)"),
    ("eta-fixpoint", r"(\x.#Y x) (\w.w)"),
    ("worked-example", r"(\x.#I z) (#I z)"),
    ("neutral-nested-redex", r"x (x ((\a.a) u))"),
)


def paper_corpus() -> list[tuple[str, Term]]:
    """The named regression terms.

    Small fixed terms that separate strategies from each other: the
    strictness and absorption counterexamples, the neutral-operand
    shapes that expose commuting contractions, and the worked trace
    example. Metavariables are instantiated once and for all here so
    every suite sees identical terms."""
    return [(name, parse_term(src)) for name, src in _PAPER_TERMS]


def save_corpus(path: str, terms: list[Term]) -> None:
    """Write one term per line, printable with parse round-trip."""
    with open(path, "w", encoding="utf-8") as handle:
        for term in terms:
            handle.write(print_term(term))
            handle.write("\n")


def load_corpus(path: str) -> list[Term]:
    """Read a term file: one term per line, `--` comments, blanks ok.

    Parse failures report the offending line number; a file that is not
    UTF-8 text raises a ParseError that names it."""
    terms = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                text = line.strip()
                if not text or text.startswith("--"):
                    continue
                try:
                    terms.append(parse_term(text))
                except ParseError as exc:
                    raise ParseError(f"{path}: line {lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    return terms
