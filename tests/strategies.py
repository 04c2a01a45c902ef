"""Hypothesis strategies for random expression trees."""

import hypothesis.strategies as st

from functools import partial

from logbound.exprjet import (
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    PowInt,
    Sub,
    Var,
)

_LITERALS = ("1", "2", "3", "4", "5", "0.5", "1.25", "0.125", "pi")


def consts():
    return st.sampled_from(_LITERALS).map(Const)


def exprs(var: str = "t", safe: bool = False, max_leaves: int = 10):
    """Random expression trees over a single variable.

    With safe=True the arguments of ln/sqrt are structurally positive
    and denominators structurally nonzero, so evaluation near generic
    centers avoids domain edges (a few residual failures are filtered
    by the caller).
    """
    leaf = st.one_of(consts(), st.just(Var(var)))

    def extend(children):
        pair = st.tuples(children, children)
        options = [
            pair.map(lambda ab: Add(*ab)),
            pair.map(lambda ab: Sub(*ab)),
            pair.map(lambda ab: Mul(*ab)),
            children.map(Neg),
            children.map(partial(Call, "atan")),
            children.map(partial(Call, "sin")),
            st.tuples(children, st.integers(-3, 3)).map(lambda bk: PowInt(*bk)),
        ]
        if safe:
            options += [
                children.map(lambda u: Call("ln", Add(Const("1"), PowInt(u, 2)))),
                children.map(lambda u: Call("sqrt", Add(Const("2"), Call("sin", u)))),
                pair.map(lambda ab: Div(ab[0], Add(Const("2"), PowInt(Call("sin", ab[1]), 2)))),
            ]
        else:
            options += [
                children.map(partial(Call, "ln")),
                children.map(partial(Call, "sqrt")),
                pair.map(lambda ab: Div(*ab)),
            ]
        return st.one_of(options)

    return st.recursive(leaf, extend, max_leaves=max_leaves)
