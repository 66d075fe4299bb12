"""Hypothesis strategies and term helpers shared across the suite."""

import hypothesis.strategies as st

from lambdalab import App, Lam, Var, free_vars, substitute

NAMES = ("x", "y", "z", "w")


def terms(max_leaves: int = 20):
    """Random terms over a tiny name pool; shadowing happens naturally."""
    base = st.sampled_from(NAMES).map(Var)

    def grow(inner):
        lams = st.tuples(st.sampled_from(NAMES), inner).map(
            lambda p: Lam(p[0], p[1])
        )
        apps = st.tuples(inner, inner).map(lambda p: App(p[0], p[1]))
        return lams | apps

    return st.recursive(base, grow, max_leaves=max_leaves)


def close_term(t):
    """Bind every free variable with an outer abstraction."""
    out = t
    for name in sorted(free_vars(t)):
        out = Lam(name, out)
    return out


def closed_terms(max_leaves: int = 20):
    return terms(max_leaves).map(close_term)


def copy_term(t, rename=False):
    """A copy of t that shares no node with it.

    With rename, every binder gets a name occurring nowhere in t, so the
    copy is alpha-equal to t but, when t has a binder, not equal."""
    used = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            used.add(node.name)
        elif isinstance(node, Lam):
            used.add(node.param)
            stack.append(node.body)
        else:
            stack += [node.operator, node.operand]
    count = [0]

    def fresh():
        while True:
            count[0] += 1
            name = f"r{count[0]}"
            if name not in used:
                return name

    def go(node, env):
        if isinstance(node, Var):
            return Var(env.get(node.name, node.name))
        if isinstance(node, Lam):
            param = fresh() if rename else node.param
            return Lam(param, go(node.body, {**env, node.param: param}))
        return App(go(node.operator, env), go(node.operand, env))

    return go(t, {})


def contractions(t):
    """(redex, contractum) for every redex in t, in preorder."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Lam):
            stack.append(node.body)
        elif isinstance(node, App):
            if isinstance(node.operator, Lam):
                lam = node.operator
                out.append((node, substitute(node.operand, lam.param, lam.body)))
            stack += [node.operand, node.operator]
    return out
