"""Expression trees for univariate real functions, extended-precision
evaluation, truncated Taylor expansion (jets), and an independent
finite-difference derivative oracle.

The expression language is deliberately small: rational arithmetic,
integer powers, ln, sqrt, atan and sin over a single variable named
``t`` or ``x``.  Two aliases, ``f(.)`` and ``H(.)``, expand at parse
time into the arctangent-corridor function

    f(u) = pi + (1/2)*(4+pi)*u - 2*(u+2)*atan(sqrt(u+1))

and its square-substituted form H(u) = f(u^2 - 1).

Everything known about an operation -- its printed form, its value
rule and its Taylor-series rule -- sits in one row of the op table
``_OPS``; the parser's function names come from the same rows.  Point
evaluation compiles a tree once into a closure over the value rules,
with its variable-free subtrees computed once per working precision.
The aliases share their argument node, so a tree is a DAG: expansion,
evaluation and the depth check each do a shared node's work once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

import mpmath
from mpmath import mp, mpf

from .errors import (
    DomainError,
    ConvergenceError,
    NonDifferentiableError,
    ParseError,
)

Num = Union[int, float, str, mpf]

# Extra working digits carried through evaluation so that results are
# correctly rounded at the requested precision.
GUARD_DIGITS = 15


@dataclass(frozen=True)
class Precision:
    """Significant decimal digits of working arithmetic (>= 15)."""

    digits: int = 50

    def __post_init__(self):
        if self.digits < 15:
            raise ValueError(f"precision must be >= 15 digits, got {self.digits}")

    def doubled(self) -> "Precision":
        return Precision(2 * self.digits)


DEFAULT_PRECISION = Precision(50)


def decimal_text(v, digits: int) -> Optional[str]:
    """Report form of a number: `digits` significant decimal digits,
    rounded once from the exact value of v.  None stays None."""
    return None if v is None else mpmath.nstr(mpmath.mpmathify(v), digits)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Base class of expression nodes.  Nodes are immutable and compare
    structurally."""

    __slots__ = ()

    def __getstate__(self):
        # the compiled closure (see _compiled) cannot be pickled; a copy
        # compiles its own on first use
        return {k: v for k, v in self.__dict__.items() if k != "_point"}


@dataclass(frozen=True)
class Const(Expr):
    """Exact decimal literal (kept as text) or the named constant "pi"."""

    value: str

    def __post_init__(self):
        if self.value != "pi":
            mpf(self.value)  # raises if not a valid decimal literal


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class PowInt(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Ln(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sqrt(Expr):
    arg: Expr


@dataclass(frozen=True)
class Atan(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


def f_of(u: Expr) -> Expr:
    """AST of f(u) = pi + (1/2)*(4+pi)*u - 2*(u+2)*atan(sqrt(u+1))."""
    pi = Const("pi")
    half = Div(Const("1"), Const("2"))
    lin = Mul(Mul(half, Add(Const("4"), pi)), u)
    tail = Mul(Mul(Const("2"), Add(u, Const("2"))), Atan(Sqrt(Add(u, Const("1")))))
    return Sub(Add(pi, lin), tail)


def h_of(u: Expr) -> Expr:
    """AST of H(u) = f(u^2 - 1)."""
    return f_of(Sub(PowInt(u, 2), Const("1")))


# ---------------------------------------------------------------------------
# Truncated power series: coefficient lists c_0..c_n at a center
# ---------------------------------------------------------------------------


def _s_scal(v: mpf, n: int) -> list:
    s = [mpf(0)] * (n + 1)
    s[0] = v
    return s


def _s_var(center: mpf, n: int) -> list:
    s = _s_scal(+center, n)
    if n >= 1:
        s[1] = mpf(1)
    return s


def _s_mul(a: list, b: list) -> list:
    # a constant operand scales the other term by term: fsum of one
    # rounded product and zeros is that product, so the bits are those
    # of the full Cauchy product
    if not any(a[1:]):
        return [a[0] * v for v in b]
    if not any(b[1:]):
        return [v * b[0] for v in a]
    n = len(a) - 1
    out = []
    for k in range(n + 1):
        out.append(mpmath.fsum(a[j] * b[k - j] for j in range(k + 1)))
    return out


def _s_div(w: list, v: list, what: Callable[[], str]) -> list:
    # what() names the divisor; it is formatted only when raising
    n = len(w) - 1
    if v[0] == 0:
        raise DomainError(f"division by zero at expansion center ({what()})")
    out = [w[0] / v[0]]
    for k in range(1, n + 1):
        acc = w[k] - mpmath.fsum(out[j] * v[k - j] for j in range(k))
        out.append(acc / v[0])
    return out


def _s_powint(u: list, k: int) -> list:
    n = len(u) - 1
    if k == 0:
        return _s_scal(mpf(1), n)
    neg = k < 0
    k = abs(k)
    acc = None
    base = u
    while k:
        if k & 1:
            acc = base if acc is None else _s_mul(acc, base)
        k >>= 1
        if k:
            base = _s_mul(base, base)
    if neg:
        acc = _s_div(_s_scal(mpf(1), n), acc, lambda: "negative power")
    return acc


def _s_ln(u: list) -> list:
    # w = ln(u):  u*w' = u'  =>  k*w_k*u_0 = k*u_k - sum_{j<k} j*w_j*u_{k-j}
    n = len(u) - 1
    if u[0] <= 0:
        raise DomainError("ln of non-positive value at expansion center")
    out = [mpmath.ln(u[0])]
    for k in range(1, n + 1):
        acc = k * u[k] - mpmath.fsum(j * out[j] * u[k - j] for j in range(1, k))
        out.append(acc / (k * u[0]))
    return out


def _s_sqrt(u: list) -> list:
    # w^2 = u  =>  w_k = (u_k - sum_{0<j<k} w_j*w_{k-j}) / (2*w_0)
    n = len(u) - 1
    if u[0] < 0:
        raise DomainError("sqrt of negative value at expansion center")
    if u[0] == 0:
        if n == 0:
            return [mpf(0)]
        raise NonDifferentiableError("sqrt is not differentiable where its argument vanishes")
    out = [mpmath.sqrt(u[0])]
    for k in range(1, n + 1):
        acc = u[k] - mpmath.fsum(out[j] * out[k - j] for j in range(1, k))
        out.append(acc / (2 * out[0]))
    return out


def _s_atan(u: list) -> list:
    # w = atan(u):  w'*(1+u^2) = u', solved coefficient by coefficient.
    n = len(u) - 1
    d = _s_mul(u, u)
    d[0] += 1
    out = [mpmath.atan(u[0])]
    for k in range(1, n + 1):
        acc = k * u[k] - mpmath.fsum(j * out[j] * d[k - j] for j in range(1, k))
        out.append(acc / (k * d[0]))
    return out


def _s_sin(u: list) -> list:
    # Joint recurrence for s = sin(u), c = cos(u):  s' = u'*c,  c' = -u'*s.
    n = len(u) - 1
    s = [mpmath.sin(u[0])]
    c = [mpmath.cos(u[0])]
    for k in range(1, n + 1):
        s.append(mpmath.fsum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k)
        c.append(-mpmath.fsum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k)
    return s


# ---------------------------------------------------------------------------
# The op table: print form, point rule and series rule of each node
# ---------------------------------------------------------------------------


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _const_value(e: Const, x: Optional[mpf] = None) -> mpf:
    # also the point rule of Const, so a Const node costs a single call
    return +mp.pi if e.value == "pi" else mpf(e.value)


def _div(e: Div, a: mpf, b: mpf) -> mpf:
    if b == 0:
        raise DomainError(f"division by zero in {to_text(e)}")
    return a / b


def _pow(e: PowInt, b: mpf) -> mpf:
    if e.exponent < 0 and b == 0:
        raise DomainError(f"zero base with negative exponent in {to_text(e)}")
    return b ** e.exponent


def _ln(a: mpf) -> mpf:
    if a <= 0:
        raise DomainError(f"ln of non-positive value {mpmath.nstr(a, 8)}")
    return mpmath.ln(a)


def _sqrt(a: mpf) -> mpf:
    if a < 0:
        raise DomainError(f"sqrt of negative value {mpmath.nstr(a, 8)}")
    return mpmath.sqrt(a)


class _Op(NamedTuple):
    """One row of the op table.

    kind fixes where a node keeps its children and how it prints:
    "leaf" (form names the printed field), "prefix" and "call" (child
    arg), "infix" (left and right) and "postfix" (base, printed as
    base^exponent).  Leaf rules get the node and the walk's context (x,
    or (center, n)); prefix and call rules get the child's result;
    infix and postfix rules get the node, then the children's results.
    """

    kind: str
    form: str
    prec: int
    point: Callable
    series: Callable


_OPS: dict = {
    Const: _Op("leaf", "value", _PREC_ATOM,
               _const_value, lambda e, c: _s_scal(_const_value(e), c[1])),
    Var: _Op("leaf", "name", _PREC_ATOM, lambda e, x: x, lambda e, c: _s_var(c[0], c[1])),
    Neg: _Op("prefix", "-", _PREC_NEG, lambda a: -a, lambda a: [-v for v in a]),
    Add: _Op("infix", " + ", _PREC_ADD,
             lambda e, a, b: a + b, lambda e, a, b: [x + y for x, y in zip(a, b)]),
    Sub: _Op("infix", " - ", _PREC_ADD,
             lambda e, a, b: a - b, lambda e, a, b: [x - y for x, y in zip(a, b)]),
    Mul: _Op("infix", "*", _PREC_MUL, lambda e, a, b: a * b, lambda e, a, b: _s_mul(a, b)),
    Div: _Op("infix", "/", _PREC_MUL, _div,
             lambda e, a, b: _s_div(a, b, lambda: to_text(e.right))),
    PowInt: _Op("postfix", "^", _PREC_POW, _pow, lambda e, a: _s_powint(a, e.exponent)),
    Ln: _Op("call", "ln", _PREC_ATOM, _ln, _s_ln),
    Sqrt: _Op("call", "sqrt", _PREC_ATOM, _sqrt, _s_sqrt),
    Atan: _Op("call", "atan", _PREC_ATOM, mpmath.atan, _s_atan),
    Sin: _Op("call", "sin", _PREC_ATOM, mpmath.sin, _s_sin),
}


def _step(kind: str, rule: Callable) -> Callable:
    """A series rule turned into a node step (node, (center, n)) of the walk."""
    if kind == "leaf":
        return rule
    if kind == "infix":
        return lambda e, c: rule(e, _series(e.left, c), _series(e.right, c))
    if kind == "postfix":
        return lambda e, c: rule(e, _series(e.base, c))
    return lambda e, c: rule(_series(e.arg, c))


def _series(e: Expr, ctx: tuple) -> list:
    """Taylor coefficients 0..n of e; ctx is (center, n, memo).

    memo maps id(node) to the node's series for one expansion, so a
    shared subtree is expanded once; series lists are never changed in
    place, so every parent may hold the same list."""
    memo = ctx[2]
    s = memo.get(id(e))
    if s is None:
        s = memo[id(e)] = _SERIES[e.__class__](e, ctx)
    return s


_SERIES = {cls: _step(op.kind, op.series) for cls, op in _OPS.items()}


def _children(e: Expr, kind: str) -> tuple:
    if kind == "infix":
        return e.left, e.right
    if kind == "postfix":
        return (e.base,)
    return (e.arg,)


def _per_prec(fn: Callable) -> Callable:
    """fn of a variable-free subtree, computed once per working precision.

    A value is stored only when fn returns, so a domain error is raised
    again, with the same message, on every call."""
    memo = (None, None)

    def once(x):
        nonlocal memo
        prec = mp.prec
        if memo[0] != prec:
            memo = (prec, fn(x))
        return memo[1]

    return once


def _per_point(fn: Callable) -> Callable:
    """fn of a varying node with more than one parent, computed once per
    point: every parent in one walk passes the same x object."""
    memo = (None, None, None)

    def once(x):
        nonlocal memo
        prec = mp.prec
        if memo[0] is not x or memo[1] != prec:
            memo = (x, prec, fn(x))
        return memo[2]

    return once


def _parent_counts(e: Expr, counts: dict) -> dict:
    """counts[id(node)] += number of links into each node below e, each
    distinct node walked once."""
    kind = _OPS[e.__class__].kind
    if kind != "leaf":
        for c in _children(e, kind):
            counts[id(c)] = counts.get(id(c), 0) + 1
            if counts[id(c)] == 1:
                _parent_counts(c, counts)
    return counts


def _build(e: Expr, memo: dict, parents: dict):
    """(closure x -> value of e, whether e depends on x), from the point
    rules of _OPS.  The closure applies the rules in the order of the
    tree walk it replaces, so values and errors are those of the walk;
    variable-free subtrees below a varying node go through _per_prec.
    memo maps id(node) to its result, so each distinct node is built
    once, and a varying node with several parents (parents counts them)
    is evaluated once per point."""
    built = memo.get(id(e))
    if built is None:
        fn, varying = _build_node(e, memo, parents)
        if varying and e.__class__ is not Var and parents.get(id(e), 0) > 1:
            fn = _per_point(fn)
        built = memo[id(e)] = fn, varying
    return built


def _build_node(e: Expr, memo: dict, parents: dict):
    kind, _, _, rule, _ = _OPS[e.__class__]
    if kind == "leaf":
        return partial(rule, e), e.__class__ is Var
    parts = [_build(c, memo, parents) for c in _children(e, kind)]
    varying = any(v for _, v in parts)
    fns = [fn if v or not varying else _per_prec(fn) for fn, v in parts]
    if kind == "infix":
        a, b = fns
        return (lambda x: rule(e, a(x), b(x))), varying
    (a,) = fns
    if kind == "postfix":
        return (lambda x: rule(e, a(x))), varying
    return (lambda x: rule(a(x))), varying


def _compiled(e: Expr) -> Callable:
    """e compiled once into a closure x -> value at the working
    precision, kept on e itself so that it lives as long as the tree."""
    fn = e.__dict__.get("_point")
    if fn is None:
        fn, varying = _build(e, {}, _parent_counts(e, {}))
        if not varying:
            fn = _per_prec(fn)
        # nodes are frozen; the closure is not a field, so equality,
        # hashing and printing ignore it
        object.__setattr__(e, "_point", fn)
    return fn


def _wrap(e: Expr, min_prec: int) -> str:
    s = to_text(e)
    return f"({s})" if _OPS[e.__class__].prec < min_prec else s


def to_text(e: Expr) -> str:
    """Render e so that parse(to_text(e)) is structurally equal to e."""
    kind, form, prec = _OPS[e.__class__][:3]
    if kind == "leaf":
        return getattr(e, form)
    if kind == "infix":
        return f"{_wrap(e.left, prec)}{form}{_wrap(e.right, prec + 1)}"
    if kind == "postfix":
        return f"{_wrap(e.base, prec + 1)}{form}{e.exponent}"
    if kind == "prefix":
        # a nested Neg is parenthesised for readability; the grammar
        # would accept the bare form as well
        return form + _wrap(e.arg, prec + 1)
    return f"{form}({to_text(e.arg)})"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


_FUNCS: dict = {op.form: cls for cls, op in _OPS.items() if op.kind == "call"}
_ALIASES: dict = {"f": f_of, "H": h_of}
_VAR_NAMES = ("t", "x")

# Deepest expression tree (and parser nesting) accepted.  Evaluation,
# expansion and printing recurse once or twice per level, so this keeps
# them well inside Python's default recursion limit.
MAX_DEPTH = 100


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        return self._scan(advance=False)

    def next(self):
        return self._scan(advance=True)

    def _scan(self, advance: bool):
        text, i = self.text, self.pos
        while i < len(text) and text[i] in " \t":
            i += 1
        if i >= len(text):
            tok = ("eof", "", i)
        else:
            ch = text[i]
            if ch in "+-*/^()":
                tok = (ch, ch, i)
                i += 1
            elif ch.isdigit() or ch == ".":
                j = i
                while j < len(text) and (text[j].isdigit() or text[j] == "."):
                    j += 1
                lit = text[i:j]
                if lit.count(".") > 1 or lit == ".":
                    raise ParseError(f"malformed number {lit!r}", i)
                tok = ("num", lit, i)
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tok = ("ident", text[i:j], i)
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", i)
        if advance:
            self.pos = i
        return tok


class _Parser:
    """Recursive descent over the grammar

        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := '-' factor | base ('^' integer)?
        base   := number | 'pi' | variable | func '(' expr ')' | '(' expr ')'

    Unary minus is accepted at the factor level so that printed Neg
    nodes re-parse to themselves.
    """

    def __init__(self, text: str):
        self.toks = _Tokenizer(text)
        self.var_seen: Optional[str] = None
        self.nesting = 0

    def parse(self) -> Expr:
        e = self.expr()
        kind, _, pos = self.toks.peek()
        if kind != "eof":
            raise ParseError("unexpected trailing input", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, _, _ = self.toks.peek()
            if kind == "+":
                self.toks.next()
                e = Add(e, self.term())
            elif kind == "-":
                self.toks.next()
                e = Sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, _, _ = self.toks.peek()
            if kind == "*":
                self.toks.next()
                e = Mul(e, self.factor())
            elif kind == "/":
                self.toks.next()
                e = Div(e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        # every recursive descent passes through here, so this bounds
        # the parser's own stack
        kind, _, pos = self.toks.peek()
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
        if kind == "-":
            self.toks.next()
            e = Neg(self.factor())
        else:
            e = self.base()
            if self.toks.peek()[0] == "^":
                self.toks.next()
                e = PowInt(e, self.integer())
        self.nesting -= 1
        return e

    def integer(self) -> int:
        sign = 1
        kind, lit, pos = self.toks.next()
        if kind == "-":
            sign = -1
            kind, lit, pos = self.toks.next()
        if kind != "num" or "." in lit:
            raise ParseError("expected integer exponent", pos)
        return sign * int(lit)

    def base(self) -> Expr:
        kind, lit, pos = self.toks.next()
        if kind == "num":
            return Const(lit)
        if kind == "(":
            e = self.expr()
            kind, _, pos = self.toks.next()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return e
        if kind == "ident":
            if lit == "pi":
                return Const("pi")
            nkind, _, _ = self.toks.peek()
            if nkind == "(":
                if lit not in _FUNCS and lit not in _ALIASES:
                    raise ParseError(f"unknown function {lit!r}", pos)
                self.toks.next()
                arg = self.expr()
                kind, _, cpos = self.toks.next()
                if kind != ")":
                    raise ParseError("expected ')'", cpos)
                if lit in _ALIASES:
                    return _ALIASES[lit](arg)
                return _FUNCS[lit](arg)
            if lit in _VAR_NAMES:
                if self.var_seen is not None and self.var_seen != lit:
                    raise ParseError(
                        f"second variable {lit!r} (already using {self.var_seen!r})",
                        pos,
                    )
                self.var_seen = lit
                return Var(lit)
            raise ParseError(f"unknown identifier {lit!r}", pos)
        raise ParseError(f"unexpected token {lit!r}" if lit else "unexpected end of input", pos)


def _depth(e: Expr) -> int:
    # height of the tree; each level keeps one copy of a shared node
    depth, level = 0, [e]
    while level:
        depth += 1
        level = list({id(c): c for node in level for c in vars(node).values()
                      if isinstance(c, Expr)}.values())
    return depth


def parse(text: str) -> Expr:
    """Parse expression text into an AST.

    The aliases f(.) and H(.) are expanded during parsing, so the
    resulting tree contains only core nodes.  Trees deeper than
    MAX_DEPTH levels raise ParseError.
    """
    e = _Parser(text).parse()
    if _depth(e) > MAX_DEPTH:
        raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", 0)
    return e


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_expr(e: Expr, x: Num, p: Precision = DEFAULT_PRECISION) -> mpf:
    """Evaluate e at x, accurate to ~10^(2-digits) relative error.

    Domain violations raise DomainError rather than returning NaN.
    """
    fn = _compiled(e)
    with mp.workdps(p.digits + GUARD_DIGITS):
        val = fn(mpmath.mpmathify(x))
    with mp.workdps(p.digits):
        return +val


# ---------------------------------------------------------------------------
# Jets: truncated Taylor expansion at a point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet:
    """Taylor coefficients c_0..c_order of a function at a center point.

    derivative(k) == k! * coeffs[k] by definition.
    """

    center: mpf
    order: int
    coeffs: tuple
    digits: int

    def derivative(self, k: int) -> mpf:
        with mp.workdps(self.digits):
            return +(self.coeffs[k] * mpmath.factorial(k))

    def derivatives(self) -> list:
        return [self.derivative(k) for k in range(self.order + 1)]


def jet(e: Expr, center: Num, order: int, p: Precision = DEFAULT_PRECISION) -> Jet:
    """Taylor-expand e at the center point up to the given order.

    Coefficients are produced by the classical truncated-power-series
    recurrences; atan goes through its derivative ODE w'*(1+u^2) = u'
    so the closed-form derivative formula can be tested against it
    independently.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    with mp.workdps(p.digits + GUARD_DIGITS + order):
        coeffs = _series(e, (mpmath.mpmathify(center), order, {}))
    with mp.workdps(p.digits):
        return Jet(
            center=+mpmath.mpmathify(center),
            order=order,
            coeffs=tuple(+c for c in coeffs),
            digits=p.digits,
        )


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def _central_diff(fn: Callable, x0: mpf, k: int, h: mpf) -> mpf:
    # Symmetric k-th difference on step h; nodes sit at half-integer
    # multiples of h when k is odd.  Truncation error is O(h^2).
    acc = mpf(0)
    for i in range(k + 1):
        w = (-1) ** i * math.comb(k, i)
        acc += w * fn(x0 + (mpf(k) / 2 - i) * h)
    return acc / h ** k


def fd_derivative(
    e: Expr,
    center: Num,
    k: int,
    p: Precision = DEFAULT_PRECISION,
    tol: Optional[Num] = None,
):
    """k-th derivative of e at center by central differences with
    3-level Richardson extrapolation.

    Returns (value, error_estimate).  The step is h = 10^(-digits/(k+2)),
    which balances truncation against subtractive cancellation at the
    working precision.  When tol is given and the error estimate
    exceeds it, ConvergenceError is raised.
    """
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    wd = p.digits + GUARD_DIGITS
    with mp.workdps(wd):
        x0 = mpmath.mpmathify(center)
        h = mpf(10) ** (-mpf(p.digits) / (k + 2))
        fn = _compiled(e)
        d0 = _central_diff(fn, x0, k, h)
        d1 = _central_diff(fn, x0, k, h / 2)
        d2 = _central_diff(fn, x0, k, h / 4)
        t1 = (4 * d1 - d0) / 3
        t1b = (4 * d2 - d1) / 3
        t2 = (16 * t1b - t1) / 15
        # Roundoff floor: the finest stencil amplifies absolute errors
        # of the function values by 2^k / (h/4)^k.
        fscale = max(abs(fn(x0 + h)), abs(fn(x0 - h)), mpf(1))
        roundoff = fscale * 2 ** k * mpf(10) ** (-wd) / (h / 4) ** k
        err = abs(t2 - t1b) + abs(t1b - t1) / 15 + roundoff
    with mp.workdps(p.digits):
        value, err = +t2, +err
    if tol is not None and err > mpmath.mpmathify(tol):
        raise ConvergenceError(
            f"finite differences did not converge: error estimate {mpmath.nstr(err, 5)} > tol"
        )
    return value, err
