"""Expression trees for univariate real functions, extended-precision
evaluation, truncated Taylor expansion (jets), and an independent
finite-difference derivative oracle.

The expression language is deliberately small: rational arithmetic,
integer powers, ln, sqrt, atan and sin over a single variable named
``t`` or ``x``.  Two aliases, ``f(.)`` and ``H(.)``, expand at parse
time into the arctangent-corridor function

    f(u) = pi + (1/2)*(4+pi)*u - 2*(u+2)*atan(sqrt(u+1))

and its square-substituted form H(u) = f(u^2 - 1).

Everything known about an operation -- its printed form, its value rule,
its Taylor-series rule, its binary64 value-and-error-bound rule and, for
the rational operations, its polynomial-degree rule -- sits in one row
of the op table ``_OPS``; the parser takes its function names, infix
operators and their precedences from the same rows.  The series rules
run in mpf, or in balls (binary64 or mpf midpoints) that enclose the
exact coefficients.  Each function is one ``_CALLS`` entry, its rules
included: one Call node names it, and its row and every arithmetic read
it.  A polynomial is its own jet at 0, so sandwich.expr_to_poly expands
one by the series rules.  A tree is flattened once into a tape, one slot
per distinct node; values, jets and binary64 balls are one loop over it
(balls also over a block of points, each slot once for all with one
error bound), and its variable-free slots are evaluated once per walk
and key (see Tape).  Several expressions can share one tape,
structurally equal subtrees in one slot; a tape's references, the
reference functions 2t*ln(t) and H(t) of a jet at 1 or of a radius
search, take its first slots, flattened once per process, whose series
are walked once per process and key.  The aliases share their argument node, so a tree is a DAG:
expansion, evaluation and the depth check each do a shared node's work
once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import islice
from operator import add, mul, neg, sub, truediv
from typing import Callable, NamedTuple, Optional, Union

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, mpf_mul, mpf_pos, round_nearest

from .errors import (
    DomainError,
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

    def round(self, v: mpf) -> mpf:
        """+v under mp.workdps(digits), without entering that context."""
        return mp.make_mpf(mpf_pos(v._mpf_, _bits(self.digits), round_nearest))


# The bits mp.workdps(digits) works at, once per digit count in use.
_bits = lru_cache(maxsize=128)(dps_to_prec)


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
        # tapes kept on a node (see _tape) hold _OPS rows, whose lambdas
        # cannot be pickled; a copy builds its own on first use
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


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
class Call(Expr):
    """fn(arg), fn the name of a _CALLS entry that has a series rule."""

    fn: str
    arg: Expr


def f_of(u: Expr) -> Expr:
    """AST of f(u) = pi + (1/2)*(4+pi)*u - 2*(u+2)*atan(sqrt(u+1))."""
    pi = Const("pi")
    half = Div(Const("1"), Const("2"))
    lin = Mul(Mul(half, Add(Const("4"), pi)), u)
    tail = Mul(Mul(Const("2"), Add(u, Const("2"))),
               Call("atan", Call("sqrt", Add(u, Const("1")))))
    return Sub(Add(pi, lin), tail)


def h_of(u: Expr) -> Expr:
    """AST of H(u) = f(u^2 - 1)."""
    return f_of(Sub(PowInt(u, 2), Const("1")))


# ---------------------------------------------------------------------------
# Truncated power series: coefficient lists c_0..c_n at a center
# ---------------------------------------------------------------------------
#
# The rules are generic over the arithmetic of the coefficients: mpf
# (the mp arithmetic) or a ball (_F64Ball, _MPBall; see _Ball).  They
# add, multiply and divide coefficients and small ints, subtract and
# negate coefficients, compare a coefficient with 0, test it for truth
# (an exact zero is false), and take the scalars, fsum and the functions
# of _CALLS, called by name, from _arith(coefficient) (see _Arith).  On
# mpf these are the mpmath calls, so each rule makes the same calls in
# the same order whatever the arithmetic.


def _s_scal(v, n: int) -> list:
    s = [_arith(v).scalar(0)] * (n + 1)
    s[0] = v
    return s


def _s_var(center, n: int) -> list:
    s = _s_scal(+center, n)
    if n >= 1:
        s[1] = _arith(center).scalar(1)
    return s


def _s_mul(a: list, b: list) -> list:
    # a constant operand scales the other term by term: fsum of one
    # rounded product and zeros is that product, so the bits are those
    # of the full Cauchy product
    if not any(a[1:]):
        return [a[0] * v for v in b]
    if not any(b[1:]):
        return [v * b[0] for v in a]
    # coefficient k sums a_j*b_(k-j) over the j where neither factor is
    # a padded zero; fsum skips exact zeros, so the bits are the same
    fsum = _arith(a[0]).fsum
    n = len(a) - 1
    da = max(j for j, v in enumerate(a) if v)
    db = max(j for j, v in enumerate(b) if v)
    return [fsum(a[j] * b[k - j] for j in range(max(0, k - db), min(k, da) + 1))
            for k in range(n + 1)]


def _s_div(w: list, v: list, what: Callable[[], str]) -> list:
    # what() names the divisor; it is formatted only when raising
    fsum = _arith(v[0]).fsum
    n = len(w) - 1
    if v[0] == 0:
        raise DomainError(f"division by zero at expansion center ({what()})")
    out = [w[0] / v[0]]
    for k in range(1, n + 1):
        acc = w[k] - fsum(out[j] * v[k - j] for j in range(k))
        out.append(acc / v[0])
    return out


def _s_powint(u: list, k: int) -> list:
    n = len(u) - 1
    if k == 0:
        return _s_scal(_arith(u[0]).scalar(1), n)
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
        acc = _s_div(_s_scal(_arith(u[0]).scalar(1), n), acc, lambda: "negative power")
    return acc


def _s_ode(w0, u: list, d: list) -> list:
    # d*w' = u', w_0 = w0:  k*w_k*d_0 = k*u_k - sum_{0<j<k} j*w_j*d_{k-j}
    fsum = _arith(w0).fsum
    out = [w0]
    for k in range(1, len(u)):
        acc = k * u[k] - fsum(j * out[j] * d[k - j] for j in range(1, k))
        out.append(acc / (k * d[0]))
    return out


def _s_ln(u: list) -> list:
    # w = ln(u):  u*w' = u'
    if u[0] <= 0:
        raise DomainError("ln of non-positive value at expansion center")
    return _s_ode(_arith(u[0]).call("ln", u[0]), u, u)


def _s_sqrt(u: list) -> list:
    # w^2 = u  =>  w_k = (u_k - sum_{0<j<k} w_j*w_{k-j}) / (2*w_0)
    ar = _arith(u[0])
    n = len(u) - 1
    if u[0] < 0:
        raise DomainError("sqrt of negative value at expansion center")
    if u[0] == 0 and n:
        raise NonDifferentiableError("sqrt is not differentiable where its argument vanishes")
    out = [ar.call("sqrt", u[0])]  # a ball that reaches 0 raises here
    for k in range(1, n + 1):
        acc = u[k] - ar.fsum(out[j] * out[k - j] for j in range(1, k))
        out.append(acc / (2 * out[0]))
    return out


def _s_atan(u: list) -> list:
    # w = atan(u):  (1+u^2)*w' = u'
    d = _s_mul(u, u)
    d[0] += 1
    return _s_ode(_arith(u[0]).call("atan", u[0]), u, d)


def _s_sin(u: list) -> list:
    # Joint recurrence for s = sin(u), c = cos(u):  s' = u'*c,  c' = -u'*s.
    ar = _arith(u[0])
    n = len(u) - 1
    s = [ar.call("sin", u[0])]
    c = [ar.call("cos", u[0])]
    for k in range(1, n + 1):
        s.append(ar.fsum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k)
        c.append(-ar.fsum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k)
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
        raise DomainError(f"division by zero in {_quote(e)}")
    return a / b


def _pow(e: PowInt, b: mpf) -> mpf:
    if e.exponent < 0 and b == 0:
        raise DomainError(f"zero base with negative exponent in {_quote(e)}")
    return b ** e.exponent


def _ln(a: mpf) -> mpf:
    if a <= 0:
        raise DomainError(f"ln of non-positive value {mpmath.nstr(a, 8)}")
    return mpmath.ln(a)


def _sqrt(a: mpf) -> mpf:
    if a < 0:
        raise DomainError(f"sqrt of negative value {mpmath.nstr(a, 8)}")
    return mpmath.sqrt(a)


# Ball rules: binary64 value and absolute error bound (see _Op).
_U = 2.0 ** -53  # unit roundoff of binary64
_LIBM = 8 * _U  # 4 ulps: libm's log, atan, sin and integer pow
_TINY = 2.0 ** -1070  # covers the underflow of each operation's few roundings
_GROW = 1 + 2.0 ** -40  # covers the roundings of the error terms themselves


def _ball(v: float, err: float, rel: float = _U) -> tuple:
    """(v, bound): err, the inputs' propagated error, plus v's own rounding."""
    return v, (err + rel * abs(v)) * _GROW + _TINY


def _const_ball(e: Const, ctx=None) -> tuple:
    return _ball(math.pi if e.value == "pi" else float(e.value), 0.0)


def _mul_ball(e: Mul, a: tuple, b: tuple) -> tuple:
    (x, ex), (y, ey) = a, b
    return _ball(x * y, abs(x) * ey + abs(y) * ex + ex * ey)


def _div_ball(e: Div, a: tuple, b: tuple) -> tuple:
    (x, ex), (y, ey) = a, b
    if not abs(y) > 2 * ey:
        raise ArithmeticError("divisor ball reaches 0")
    q = x / y
    # _TINY: the division would scale up an underflow in the numerator
    return _ball(q, (ex + abs(q) * ey + _TINY) / (abs(y) - ey))


def _pow_ball(e: PowInt, a: tuple) -> tuple:
    # |x^k - v^k| <= |k| * m^(k-1) * err, with m the largest |x| in the
    # ball for k > 0 and the smallest for k < 0
    (x, ex), k = a, e.exponent
    if k == 0:
        return 1.0, 0.0
    if k < 0 and not abs(x) > 2 * ex:
        raise ArithmeticError("base ball of a negative power reaches 0")
    m = abs(x) + ex if k > 0 else abs(x) - ex
    # _TINY: |k| would scale up an underflow of m^(k-1)
    return _ball(x ** k, abs(k) * (m ** (k - 1) + _TINY) * ex, _LIBM)


# The call rows' error rules, shared by their ball rules and by the ball
# arithmetics: err(x, ex) bounds |F(s) - F(x)| over |s - x| <= ex and
# raises ArithmeticError where the ball comes within a factor 2 of the
# domain edge; each bound only grows as |x| shrinks.


def _ln_err(x: float, ex: float) -> float:
    if not x > 2 * ex:
        raise ArithmeticError("ln argument ball reaches 0")
    return ex / (x - ex)


def _sqrt_err(x: float, ex: float) -> float:
    if not x > 2 * ex:
        raise ArithmeticError("sqrt argument ball reaches 0")
    return ex / math.sqrt(x)


def _atan_err(x: float, ex: float) -> float:
    d = abs(x) - ex  # the slope 1/(1+s^2) is largest at the smallest |s|
    return ex / (1 + d * d) if d > 0 else ex


def _trig_err(x: float, ex: float) -> float:
    return ex  # |sin'| and |cos'| are at most 1


# name: (binary64 function, point rule, error rule, rounding in units u,
# series rule); a function with no series rule (cos, which only _s_sin's
# joint recurrence calls) has no call row, so it cannot be parsed
_CALLS = {
    "ln": (math.log, _ln, _ln_err, 8, _s_ln),
    "sqrt": (math.sqrt, _sqrt, _sqrt_err, 1, _s_sqrt),
    "atan": (math.atan, mpmath.atan, _atan_err, 8, _s_atan),
    "sin": (math.sin, mpmath.sin, _trig_err, 8, _s_sin),
    "cos": (math.cos, mpmath.cos, _trig_err, 8, None),
}


def _call_op(name: str) -> _Op:
    """A Call node's row: its point, series, ball and block rules from _CALLS."""
    fn, point, err, ulps, series = _CALLS[name]
    rel = ulps * _U

    def ball(a: tuple) -> tuple:
        e = err(*a)  # before fn, which may reject the argument differently
        return _ball(fn(a[0]), e, rel)

    def block(a: tuple) -> tuple:
        xs, ex, _, small = a
        return _column(list(map(fn, xs)), err(small, ex), rel)

    return _Op("call", name, _PREC_ATOM, point, series, ball, block)


# Block rules: a block's column is (values, err, big, small), the values
# those of the ball rule at each point of the block, bit for bit, err one
# error bound for every point, big the largest |value| and small the
# smallest |value| with the values' sign, 0 where their signs mix (see _Op).


def _extent(vs: list) -> tuple:
    """(big, small) of the values vs; OverflowError where one is inf or NaN."""
    # a NaN anywhere makes the sum NaN, while min and max may skip it; the
    # sum of finite values may overflow too, so then look at each value
    if not abs(sum(vs)) < math.inf and not all(map(math.isfinite, vs)):
        raise OverflowError("a value of the block overflows")
    lo, hi = min(vs), max(vs)
    return max(hi, -lo), lo if lo > 0 else hi if hi < 0 else 0.0


def _column(vs: list, err: float, rel: float = _U) -> tuple:
    """The column of the values vs: err, the inputs' propagated error, plus
    the values' own rounding rel*big."""
    big, small = _extent(vs)
    return vs, _ball(big, err, rel)[1], big, small


def _spread(ball: tuple, n: int) -> tuple:
    """A variable-free ball (v, err) as the column of a block of n points."""
    v, err = ball
    vs = [v] * n
    return (vs, err, *_extent(vs))


def _mul_block(e: Mul, a: tuple, b: tuple) -> tuple:
    (xs, ex, hx, _), (ys, ey, hy, _) = a, b
    return _column(list(map(mul, xs, ys)), hx * ey + hy * ex + ex * ey)


def _div_block(e: Div, a: tuple, b: tuple) -> tuple:
    (xs, ex, _, _), (ys, ey, _, sy) = a, b
    low = abs(sy)
    if not low > 2 * ey:
        raise ArithmeticError("divisor ball reaches 0")
    qs = list(map(truediv, xs, ys))
    big, small = _extent(qs)
    return qs, _ball(big, (ex + big * ey + _TINY) / (low - ey))[1], big, small


def _pow_block(e: PowInt, a: tuple) -> tuple:
    (xs, ex, big, small), k = a, e.exponent
    if k == 0:
        return _spread((1.0, 0.0), len(xs))
    if k < 0 and not abs(small) > 2 * ex:
        raise ArithmeticError("base ball of a negative power reaches 0")
    m = big + ex if k > 0 else abs(small) - ex
    return _column([x ** k for x in xs], abs(k) * (m ** (k - 1) + _TINY) * ex, _LIBM)


# ---------------------------------------------------------------------------
# Arithmetics of the series rules
# ---------------------------------------------------------------------------


class _Arith(NamedTuple):
    """What a series rule takes from its arithmetic besides operators."""

    scalar: Callable  # a small int as a coefficient
    const: Callable  # a Const node's value as a coefficient
    fsum: Callable
    call: Callable  # call(name, x): the _CALLS function name at x


_MP = _Arith(mpf, _const_value, mpmath.fsum, lambda name, x: _CALLS[name][1](x))


def _arith(x):
    """The arithmetic of coefficient x: its ball class, or _MP."""
    return x.__class__ if isinstance(x, _Ball) else _MP


class _Ball:
    """A series coefficient as a ball: the exact coefficient lies within
    e (a float) of the midpoint v, and h is a float >= |v|.  The class
    is its arithmetic (see _Arith): _F64Ball rounds v in binary64,
    _MPBall at mpmath's working precision, and call takes the function,
    its error rule and its rounding from _CALLS.  Both follow the _Op
    error model with u the unit roundoff of v, 8u*|v| for pi as for the
    functions, |k|ex for an int multiple, and the sum of the errs plus
    u times the sum of |terms| for fsum (mpmath's drops a term far below
    the others).

    The rules compare a coefficient only with 0, at a pole or a domain
    edge; the answer is whether the ball reaches that side of 0, so the
    rule raises rather than vouch for a ball it cannot.
    """

    __slots__ = ("v", "e", "h")

    def __init__(self, v, e: float = 0.0):
        self.v, self.e, self.h = v, e, self._hi(v)

    @classmethod
    def _make(cls, v, err: float, ulps: int = 1) -> "_Ball":
        b = cls.__new__(cls)
        b.v, b.h = v, cls._hi(v)
        b.e = (err + ulps * cls._u() * b.h) * _GROW + _TINY
        return b

    @classmethod
    def scalar(cls, k: int) -> "_Ball":
        return cls(cls._exact(k))

    @classmethod
    def fsum(cls, terms) -> "_Ball":
        terms = list(terms)
        err = math.fsum([b.e for b in terms]) + cls._u() * math.fsum([b.h for b in terms])
        return cls._make(cls._sum([b.v for b in terms]), err)

    @classmethod
    def call(cls, name: str, x: "_Ball") -> "_Ball":
        rules = _CALLS[name]
        # the error rule sees a float no larger than |v|, of v's sign
        e = rules[2](math.copysign(cls._lo(x.v), x.v), x.e)
        return cls._make(rules[cls._fn](x.v), e, rules[3])

    def __add__(self, o):
        if not isinstance(o, _Ball):
            o = self.scalar(o)
        return self._make(self.v + o.v, self.e + o.e)

    def __sub__(self, o):
        return self._make(self.v - o.v, self.e + o.e)

    def __neg__(self):
        b = self.__class__.__new__(self.__class__)
        b.v, b.e, b.h = -self.v, self.e, self.h
        return b

    def __pos__(self):
        return self

    def __mul__(self, o):
        if not isinstance(o, _Ball):  # a small int
            return self._make(self.v * o, abs(o) * self.e)
        return self._make(self.v * o.v, self.h * o.e + o.h * self.e + self.e * o.e)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, _Ball):
            o = self.scalar(o)
        low = self._lo(o.v)
        if not low > 2 * o.e:
            raise ArithmeticError("divisor ball reaches 0")
        q = self.v / o.v
        return self._make(q, (self.e + self._hi(q) * o.e + _TINY) / (low - o.e))

    def __bool__(self):
        return bool(self.v) or bool(self.e)

    def __lt__(self, zero):
        return not self.v >= self.e

    def __le__(self, zero):
        return not self.v > self.e

    def __eq__(self, zero):
        return not abs(self.v) > self.e

    __hash__ = None


class _F64Ball(_Ball):
    """A ball with a binary64 midpoint: the arithmetic of the ball rules."""

    __slots__ = ()
    _fn = 0  # the binary64 function of a _CALLS entry
    _exact = float
    _sum = math.fsum
    _hi = _lo = abs

    @staticmethod
    def _u() -> float:
        return _U

    @classmethod
    def const(cls, e: Const) -> "_F64Ball":
        return cls(*_const_ball(e))


def _mp_hi(v: mpf) -> float:
    # |v| = man*2^exp < 2^(exp+bc); _TINY where that underflows to 0
    _, man, exp, bc = v._mpf_
    if not man:
        return math.inf if exp else 0.0  # inf and nan keep a nonzero exp
    return math.ldexp(1.0, exp + bc) + _TINY if exp + bc < 1024 else math.inf


def _mp_lo(v: mpf) -> float:
    # |v| >= 2^(exp+bc-1)
    _, man, exp, bc = v._mpf_
    if not man:
        return 0.0
    return math.ldexp(1.0, exp + bc - 1) if exp + bc <= 1024 else sys.float_info.max


class _MPBall(_Ball):
    """A ball with an mpf midpoint, rounded at mpmath's working precision
    (u = 2^-prec).  The error terms take |v| as the powers of two on
    either side of it, 2^(exp+bc-1) <= |v| < 2^(exp+bc)."""

    __slots__ = ()
    _fn = 1  # the point rule of a _CALLS entry
    _exact = mpf
    _sum = staticmethod(mpmath.fsum)
    _hi = staticmethod(_mp_hi)
    _lo = staticmethod(_mp_lo)

    @staticmethod
    def _u() -> float:
        return 2.0 ** -mp.prec

    @classmethod
    def const(cls, e: Const) -> "_MPBall":
        return cls._make(_const_value(e), 0.0, 8 if e.value == "pi" else 1)


def _div_degree(e: Div, a: int, b: int) -> int:
    if b:
        raise ValueError("division by a non-constant is not polynomial")
    return a


def _pow_degree(e: PowInt, a: int) -> int:
    if e.exponent < 0:
        raise ValueError("negative powers are not polynomial")
    return a * e.exponent


class _Op(NamedTuple):
    """One row of the op table.

    kind fixes where a node keeps its children and how it prints:
    "leaf" (form names the printed field), "prefix" and "call" (child
    arg), "infix" (left and right) and "postfix" (base, printed as
    base^exponent).  Leaf rules get the node and the walk's context (x,
    or (center, n)); prefix and call rules get the child's result;
    infix and postfix rules get the node, then the children's results.
    A call row is _call_op's, keyed by the name of its _CALLS entry.

    A ball rule is a point rule in binary64: its context is (x, err),
    and each result is (v, err) with the exact value of the node within
    err of v whenever the exact values of its children are within
    their errs.  Every result's err adds to the propagated input errors
    the rounding of v: u*|v| with u = 2^-53 for + - * / and sqrt, and
    8u*|v| (4 ulps) for libm's log, atan, sin and integer pow; an
    absolute 2^-1070 per operation covers underflow, and a factor
    1 + 2^-40 the roundings of the error terms.  The propagated terms
    are |x|ey + |y|ex + ex*ey for a product, (ex + |q|ey)/(|y| - ey) for
    a quotient, |k|*m^(k-1)*ex for x^k (m the largest |x| in the ball,
    the smallest if k < 0), ex/(x - ex) for ln, ex/sqrt(x) for sqrt,
    ex/(1 + (|x| - ex)^2) for atan and ex for sin (the _CALLS error
    rules); where a quotient or |k| would scale up an underflowed term,
    that term gets 2^-1070 too.  Div, negative PowInt, ln and sqrt raise
    ArithmeticError when the argument's ball comes within a factor 2 of
    the pole or the domain edge, so that a ball never vouches for a
    value the point rules would reject.

    A block rule is the ball rule over a block of points (see
    Tape.balls).  It takes and gives columns: the values at each point,
    bit for bit those of the ball rule, and one error bound for them all.
    The bound is the ball rule's with each term that grows with |x| taken
    at the column's largest |x|: the rounding rel*|v|, the factors |x| and
    |y| of a product and m of a positive power.  Each term that grows as
    |x| shrinks is taken at its smallest |x|, with the values' sign, or 0
    where their signs mix: a divisor's |y|, m of a negative power and the
    argument of the _CALLS error rules.  So the bound holds at every
    point, and the refusals, made at the smallest |x| with the block's
    error, raise wherever a point would, and where the signs mix.

    A series rule is generic over the arithmetic of its coefficients
    (see the _s_* rules).  Walked from a ball center, a _F64Ball or an
    _MPBall, the series rules are ball rules too, by the same error
    model with u the unit roundoff of the midpoints (see _Ball): each
    coefficient encloses the exact Taylor coefficient at every point of
    the center's ball.

    A degree rule takes children's degrees where the others take their
    results, and a leaf's takes only the node; it raises ValueError for
    a non-polynomial node, and the call rows have none.  A polynomial is
    its own jet at 0, of order its degree.
    """

    kind: str
    form: str
    prec: int
    point: Callable
    series: Callable
    ball: Callable
    block: Callable
    degree: Optional[Callable] = None


_OPS: dict = {
    Const: _Op("leaf", "value", _PREC_ATOM, _const_value,
               lambda e, c: _s_scal(_arith(c[0]).const(e), c[1]), _const_ball,
               lambda e, c: _spread(_const_ball(e), len(c[0])), lambda e: 0),
    Var: _Op("leaf", "name", _PREC_ATOM, lambda e, x: x,
             lambda e, c: _s_var(c[0], c[1]), lambda e, c: c, lambda e, c: c, lambda e: 1),
    Neg: _Op("prefix", "-", _PREC_NEG, lambda a: -a, lambda a: [-v for v in a],
             lambda a: (-a[0], a[1]), lambda a: (list(map(neg, a[0])), a[1], a[2], -a[3]),
             lambda a: a),
    Add: _Op("infix", " + ", _PREC_ADD, lambda e, a, b: a + b,
             lambda e, a, b: [x + y for x, y in zip(a, b)],
             lambda e, a, b: _ball(a[0] + b[0], a[1] + b[1]),
             lambda e, a, b: _column(list(map(add, a[0], b[0])), a[1] + b[1]),
             lambda e, a, b: max(a, b)),
    Sub: _Op("infix", " - ", _PREC_ADD, lambda e, a, b: a - b,
             lambda e, a, b: [x - y for x, y in zip(a, b)],
             lambda e, a, b: _ball(a[0] - b[0], a[1] + b[1]),
             lambda e, a, b: _column(list(map(sub, a[0], b[0])), a[1] + b[1]),
             lambda e, a, b: max(a, b)),
    Mul: _Op("infix", "*", _PREC_MUL, lambda e, a, b: a * b,
             lambda e, a, b: _s_mul(a, b), _mul_ball, _mul_block, lambda e, a, b: a + b),
    Div: _Op("infix", "/", _PREC_MUL, _div,
             lambda e, a, b: _s_div(a, b, lambda: _quote(e.right)), _div_ball, _div_block,
             _div_degree),
    PowInt: _Op("postfix", "^", _PREC_POW, _pow,
                lambda e, a: _s_powint(a, e.exponent), _pow_ball, _pow_block, _pow_degree),
    # the call rows, keyed by function name (see _key)
    **{name: _call_op(name) for name, entry in _CALLS.items() if entry[4]},
}


def _key(e: Expr):
    """e's key in _OPS: a Call's function name, any other node's class."""
    return getattr(e, "fn", e.__class__)


def _children(e: Expr, kind: str) -> tuple:
    if kind == "leaf":
        return ()
    if kind == "infix":
        return e.left, e.right
    if kind == "postfix":
        return (e.base,)
    return (e.arg,)


class _Prefix(NamedTuple):
    """The flatten state of a tape's references (see _prefix)."""

    references: tuple  # the trees, held so that their ids stay theirs
    rows: tuple  # (key, row) of each _OPS row the entries hold
    entries: tuple
    slots: dict
    equal: dict
    varying: tuple
    keys: tuple  # the slot keys of the references' slots 1..S


def _flatten(roots, start: Optional[_Prefix] = None) -> tuple:
    """(tape, root slots, slots, slot keys, varying) of the roots flattened
    together, after the nodes of start (see _prefix) if given.  Slot 0
    holds a walk's context; slots 1.. are the roots' distinct nodes, each
    after its children, in the order the tree walks first finish them.
    An entry is (slot, _OPS row, the node for rules whose kind passes it
    or None, child slot, second child slot or None, varying); a leaf's
    child is slot 0.  A node reached twice is one slot, and so are
    structurally equal nodes (every variable is the same variable): they
    compute the same value by the same operations.  slots maps the id of
    each node visited to its slot.  Slot k's key, the (k-1)-th, names its
    row, its fields and its children's slots, so equal key prefixes are
    equal tape prefixes; the keys map to their slots in slot order.
    start's state is copied, never changed."""
    if start is None:
        tape, slots, varying, equal = [], {}, [False], {}
    else:
        tape, slots = list(start.entries), dict(start.slots)
        varying, equal = list(start.varying), dict(start.equal)

    def visit(n):
        k = slots.get(id(n))
        if k is None:
            name = _key(n)  # Var's own name stays out of the key
            op = _OPS[name]
            kids = [visit(c) for c in _children(n, op.kind)] or [0]
            key = (name, getattr(n, "value", None), getattr(n, "exponent", None), *kids)
            k = slots[id(n)] = equal.setdefault(key, len(varying))
            if k < len(varying):
                return k
            varying.append(n.__class__ is Var or varying[kids[0]] or varying[kids[-1]])
            node = None if op.kind in ("prefix", "call") else n
            tape.append((k, op, node, *(kids + [None])[:2], varying[k]))
        return k

    root_slots = [visit(r) for r in roots]
    return tape, root_slots, slots, equal, varying


# Reference tuples whose flatten state is kept, for the whole process: a
# jet at 1 and a two-sided radius search share one, a one-sided search
# has another.
_KEPT_PREFIXES = 4
# the ids of the reference trees -> their _Prefix
_PREFIXES: dict = {}


def _prefix(references: tuple) -> _Prefix:
    """The references flattened (see _flatten), kept for the last
    _KEPT_PREFIXES tuples of trees by identity.  A kept state whose
    entries hold an _OPS row that is no longer the table's is built
    again, so a tape always holds the table's current rows."""
    key = tuple(map(id, references))
    kept = _PREFIXES.get(key)
    if kept is not None and all(_OPS[name] is row for name, row in kept.rows):
        return kept
    tape, root_slots, slots, equal, varying = _flatten(references)
    rows = {k[0]: entry[1] for k, entry in zip(equal, tape)}
    kept = _Prefix(references, tuple(rows.items()), tuple(tape), slots, equal, tuple(varying),
                   tuple(equal)[:max(root_slots, default=0)])
    _PREFIXES.pop(key, None)
    if len(_PREFIXES) >= _KEPT_PREFIXES:
        del _PREFIXES[next(iter(_PREFIXES))]
    _PREFIXES[key] = kept
    return kept


# the fields of the rules in an _Op row
_POINT, _SERIES, _BALL, _BLOCK = (_Op._fields.index(f)
                                  for f in ("point", "series", "ball", "block"))


def _walk(tape: list, r: int, ctx, out: Optional[list] = None) -> list:
    """Every slot's result, in tape order, by the rule in field r of each
    row (_POINT: ctx is x; _SERIES: (center, n); _BALL: (x, err);
    _BLOCK: the column of a block's points, see Tape.balls).  A
    slot already set in out is kept; values and errors are the tree
    walk's.  No rule changes its arguments in place, so parents share a
    slot."""
    out = [None] * (len(tape) + 1) if out is None else out
    out[0] = ctx
    for k, op, node, i, j, _ in tape:
        if out[k] is None:
            if node is None:
                out[k] = op[r](out[i])
            elif j is None:
                out[k] = op[r](node, out[i])
            else:
                out[k] = op[r](node, out[i], out[j])
    return out


# Keys per walk whose variable-free slots a tape keeps: enough for a
# witness's p and p.doubled(), and for the block sizes 64, 24 and a tail.
_KEPT_PRECISIONS = 4

# Keys whose reference slots the series walks keep (see Tape), for all
# tapes together: a certificate's jet and the two ball walks of each
# pattern's radius search, at a few orders and precisions.
_KEPT_REFERENCES = 16
# (reference slot keys, center's class, value, err, order, mp.prec) ->
# the values of slots 1..S
_REFERENCE_SLOTS: dict = {}


class Tape:
    """Expressions flattened into one tape, and walked together.

    Structurally equal subtrees of the roots share one slot, so a value
    they have in common is computed once per point.  The variable-free
    slots are kept from the first walk that returned, per key for the
    last _KEPT_PRECISIONS keys: the working precision for point, one key
    for ball, the block size for balls.  A walk that raises keeps
    nothing, so the next one computes them, and raises, again.

    The references, if any, are flattened before the roots, so their
    subtrees take slots 1..S, the same slots in every tape with the
    same references, and a root's subtree equal to one of them shares
    its slot.  They are flattened once per process (see _prefix): a tape
    starts from their kept state and visits only its roots, with the
    entries of a flatten of the references and the roots together.
    Their series slots are kept for the whole process, in
    _REFERENCE_SLOTS, for the last _KEPT_REFERENCES keys: the
    references, the center's class and value (and a ball's err), the
    order and mp.prec.  A series walk with a kept key starts from them
    and computes only the other slots, with the same bits.  The kept
    coefficient lists are shared, and no caller changes them.
    """

    def __init__(self, roots, references=()):
        references = tuple(references)
        prefix = _prefix(references) if references else None
        self.entries, self.roots = _flatten(roots, prefix)[:2]
        # the references' slots are 1..S, and their keys describe them
        self._references = prefix.keys if prefix else ()
        # rule field -> {key: variable-free slots}
        self._kept = {_POINT: {}, _BALL: {}, _BLOCK: {}}

    def _kept_walk(self, r: int, key, ctx) -> list:
        kept = self._kept[r]
        consts = kept.get(key)
        if consts is not None:
            return _walk(self.entries, r, ctx, list(consts))
        out = _walk(self.entries, r, ctx)
        if len(kept) >= _KEPT_PRECISIONS:
            del kept[next(iter(kept))]
        kept[key] = [None] + [None if varying else out[k] for k, *_, varying in self.entries]
        return out

    def point(self, x: mpf) -> list:
        """The roots' values at x at the working precision."""
        out = self._kept_walk(_POINT, mp.prec, x)
        return [out[k] for k in self.roots]

    def ball(self, x: float, err: float) -> list:
        """The roots' (value, error bound) pairs in binary64 at a point
        within err of x (see _Op for the bounds).  Raises ArithmeticError
        or ValueError where a ball cannot vouch for its value."""
        out = self._kept_walk(_BALL, None, (x, err))
        return [out[k] for k in self.roots]

    def balls(self, xs: list, err: float) -> list:
        """The roots' (values, error bound) pairs over a block of points,
        each within err of its x: the values are those of ball at each x,
        bit for bit, and the one bound is at least the error of ball at
        every point.  Each slot is walked over the block by its row's
        block rule (see _Op), which on a variable-free column gives the
        ball rule's value at every point and its bound, bit for bit.
        Raises where ball raises at any point, and may raise where none
        does: where the smallest |value| of a divisor, a negative power's
        base or a function argument is too close to 0 for the block's
        error or its signs mix, and where any value is inf or NaN."""
        out = self._kept_walk(_BLOCK, len(xs), (xs, err, *_extent(xs)))
        return [out[k][:2] for k in self.roots]

    def series(self, center, n: int) -> list:
        """The roots' Taylor coefficients 0..n at center, in center's
        arithmetic: an mpf at the working precision, or a ball (see
        _Ball) whose coefficients enclose those at every point of it."""
        refs = self._references
        if not refs:
            out = _walk(self.entries, _SERIES, (center, n))
            return [out[k] for k in self.roots]
        ball = isinstance(center, _Ball)
        key = (refs, center.__class__, center.v if ball else center, center.e if ball else None,
               n, mp.prec)
        kept = _REFERENCE_SLOTS.get(key)
        if kept is not None:
            start = [None, *kept] + [None] * (len(self.entries) - len(refs))
            out = _walk(self.entries, _SERIES, (center, n), start)
        else:
            out = _walk(self.entries, _SERIES, (center, n))
            if len(_REFERENCE_SLOTS) >= _KEPT_REFERENCES:
                del _REFERENCE_SLOTS[next(iter(_REFERENCE_SLOTS))]
            _REFERENCE_SLOTS[key] = tuple(out[1:len(refs) + 1])
        return [out[k] for k in self.roots]


def _tape(e: Expr, at_1: bool = False) -> Tape:
    """e flattened once, and kept on e; at_1, the tape of e whose
    references are _REFERENCES_AT_1, kept beside it."""
    name = "_tape_at_1" if at_1 else "_tape"
    tape = e.__dict__.get(name)
    if tape is None:
        tape = Tape((e,), _REFERENCES_AT_1 if at_1 else ())
        # nodes are frozen; the tape is not a field, so equality, hashing
        # and printing ignore it
        object.__setattr__(e, name, tape)
    return tape


def _point(e: Expr, x: mpf) -> mpf:
    """Value of e at x at the working precision."""
    return _tape(e)._kept_walk(_POINT, mp.prec, x)[-1]  # e's slot is the last


def _text(e: Expr, min_prec: int = 0):
    """e's text in pieces, parenthesised when e binds less tightly than min_prec."""
    kind, form, prec = _OPS[_key(e)][:3]
    if prec < min_prec:
        yield "("
    if kind == "leaf":
        yield getattr(e, form)
    elif kind == "infix":
        yield from _text(e.left, prec)
        yield form
        yield from _text(e.right, prec + 1)
    elif kind == "postfix":
        yield from _text(e.base, prec + 1)
        yield f"{form}{e.exponent}"
    else:
        # a call's argument is always parenthesised; so is a nested Neg,
        # for readability, though the grammar would accept the bare form
        yield form
        yield from _text(e.arg, prec + 1 if kind == "prefix" else _PREC_ATOM + 1)
    if prec < min_prec:
        yield ")"


def to_text(e: Expr) -> str:
    """Render e so that parse(to_text(e)) is structurally equal to e."""
    return "".join(_text(e))


def _quote(e: Expr, limit: int = 200) -> str:
    """e's text for a message, cut to limit characters and "...".  No
    piece is empty, so at most limit + 1 are rendered, however far a
    shared tree unfolds."""
    text = "".join(islice(_text(e), limit + 1))
    return text if len(text) <= limit else text[:limit] + "..."


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# every name that takes a parenthesised argument: the call rows, then the
# aliases, which expand at parse time
_FUNCS: dict = {**{op.form: partial(Call, op.form) for op in _OPS.values()
                   if op.kind == "call"}, "f": f_of, "H": h_of}
# infix token -> (node class, precedence), from the rows the printer reads
_INFIX: dict = {op.form.strip(): (cls, op.prec) for cls, op in _OPS.items()
                if op.kind == "infix"}
_VAR_NAMES = ("t", "x")
# ASCII only: str.isdigit also accepts characters such as '²' that no
# number conversion reads
_DIGITS = "0123456789"
_NUMBER_CHARS = _DIGITS + "."

# Deepest expression tree (and parser nesting) accepted.  Flattening
# into a tape and printing recurse once or twice per level, so this
# keeps them well inside Python's default recursion limit.
MAX_DEPTH = 100


def _check_digits(digits: str, part: str, pos: int) -> None:
    # mpf() reads a literal's digits with int(), which refuses more than
    # the interpreter's limit (Python 3.11, and 3.10 from 3.10.7; 0 is
    # no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(digits) > limit:
        raise ParseError(f"number literal has {len(digits)} {part} digits, "
                         f"more than the limit of {limit}", pos)


class _Parser:
    """Precedence climbing over the grammar

        expr   := factor (infix factor)*, infix operators binding by
                  their _OPS precedence, each left-associative
        factor := '-' factor | base ('^' integer)?
        base   := number | 'pi' | variable | func '(' expr ')' | '(' expr ')'

    Unary minus is accepted at the factor level so that printed Neg
    nodes re-parse to themselves.  A token is lexed when the parser first
    peeks at it and kept until it is consumed, so of two errors in the
    text the first in reading order is raised.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tok = None  # (kind, text, position) peeked and not yet consumed
        self.var_seen: Optional[str] = None
        self.nesting = 0

    def peek(self):
        if self.tok is None:
            self.tok = self._lex()
        return self.tok

    def next(self):
        tok = self.peek()
        self.tok = None
        return tok

    def _lex(self):
        text, i = self.text, self.pos
        while i < len(text) and text[i] in " \t":
            i += 1
        j = i + 1
        if i >= len(text):
            kind, j = "eof", i
        elif text[i] in "+-*/^()":
            kind = text[i]
        elif text[i] in _NUMBER_CHARS:
            kind = "num"
            while j < len(text) and text[j] in _NUMBER_CHARS:
                j += 1
            lit = text[i:j]
            if lit.count(".") > 1 or lit == ".":
                raise ParseError(f"malformed number {lit!r}", i)
            _check_digits(lit.replace(".", ""), "mantissa", i)
            # a decimal exponent: e or E, an optional sign, then digits
            k = j + 1 + (text[j + 1:j + 2] in ("+", "-"))
            if text[j:j + 1] in ("e", "E") and k < len(text) and text[k] in _DIGITS:
                j = k + 1
                while j < len(text) and text[j] in _DIGITS:
                    j += 1
                _check_digits(text[k:j], "exponent", i)
        elif text[i].isalpha() or text[i] == "_":
            kind = "ident"
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
        else:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        self.pos = j
        return kind, text[i:j], i

    def parse(self) -> Expr:
        e = self.expr()
        kind, _, pos = self.peek()
        if kind != "eof":
            raise ParseError("unexpected trailing input", pos)
        return e

    def expr(self, min_prec: int = _PREC_ADD) -> Expr:
        e = self.factor()
        while True:
            cls, prec = _INFIX.get(self.peek()[0], (None, 0))
            if prec < min_prec:
                return e
            self.next()
            e = cls(e, self.expr(prec + 1))

    def factor(self) -> Expr:
        # every recursive descent passes through here, so this bounds
        # the parser's own stack
        kind, _, pos = self.peek()
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
        if kind == "-":
            self.next()
            e = Neg(self.factor())
        else:
            e = self.base()
            if self.peek()[0] == "^":
                self.next()
                e = PowInt(e, self.integer())
        self.nesting -= 1
        return e

    def integer(self) -> int:
        sign = 1
        kind, lit, pos = self.next()
        if kind == "-":
            sign = -1
            kind, lit, pos = self.next()
        if kind != "num" or not lit.isdigit():
            raise ParseError("expected integer exponent", pos)
        return sign * int(lit)

    def base(self) -> Expr:
        kind, lit, pos = self.next()
        if kind == "num":
            return Const(lit)
        if kind == "(":
            return self.closed(self.expr())
        if kind == "ident":
            if lit == "pi":
                return Const("pi")
            if self.peek()[0] == "(":
                if lit not in _FUNCS:
                    raise ParseError(f"unknown function {lit!r}", pos)
                self.next()
                return _FUNCS[lit](self.closed(self.expr()))
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

    def closed(self, e: Expr) -> Expr:
        kind, _, pos = self.next()
        if kind != ")":
            raise ParseError("expected ')'", pos)
        return e


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


# The reference functions of the local results at t = 1, 2t*ln(t) and
# H(t) = f(t^2 - 1): the references of a jet at 1 (see jet).
_REFERENCES_AT_1 = (parse("2*t*ln(t)"), parse("H(t)"))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_expr(e: Expr, x: Num, p: Precision = DEFAULT_PRECISION, *,
              check: Optional[Callable[[mpf], None]] = None) -> mpf:
    """Evaluate e at x, accurate to ~10^(2-digits) relative error.

    Domain violations raise DomainError rather than returning NaN.  check,
    if given, is called first with x as the walk reads it."""
    with mp.workdps(p.digits + GUARD_DIGITS):
        xv = mpmath.mpmathify(x)
        if check is not None:
            check(xv)
        val = _point(e, xv)
    return p.round(val)


# ---------------------------------------------------------------------------
# Jets: truncated Taylor expansion at a point
# ---------------------------------------------------------------------------


# (order, bits) -> k! for k = 0..order, kept for the jets' few orders
# and precisions
@lru_cache(maxsize=64)
def _factorials(order: int, prec: int) -> tuple:
    """mpmath.factorial(k) at prec bits for k = 0..order, as raw libmp
    values: rounded where k! has more than prec significant bits."""
    with mp.workprec(prec):
        return tuple(mpmath.factorial(k)._mpf_ for k in range(order + 1))


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
        return self.derivatives[k]

    @cached_property
    def derivatives(self) -> tuple:
        """k! * c_k for k = 0..order, computed once per jet: the bits of
        +(c_k * mpmath.factorial(k)) under mp.workdps(digits), one libmp
        product of c_k and the kept k! at digits' bits each."""
        prec = _bits(self.digits)
        return tuple(mp.make_mpf(mpf_mul(c._mpf_, k_fac, prec, round_nearest))
                     for c, k_fac in zip(self.coeffs, _factorials(self.order, prec)))


def jet(e: Expr, center: Num, order: int, p: Precision = DEFAULT_PRECISION) -> Jet:
    """Taylor-expand e at the center point up to the given order.

    Coefficients are produced by the classical truncated-power-series
    recurrences; atan goes through its derivative ODE w'*(1+u^2) = u'
    so the closed-form derivative formula can be tested against it
    independently.  A jet at 1 walks the tape of e whose references are
    2t*ln(t) and H (see Tape), so their slots are walked once per process
    and key, and a subtree of e equal to one takes its kept slots; a jet
    at any other center walks e's own tape.  Both give the same bits.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    with mp.workdps(p.digits + GUARD_DIGITS + order):
        c = mpmath.mpmathify(center)
        coeffs = _tape(e, c == 1).series(c, order)[0]
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


def fd_derivative(
    e: Expr,
    center: Num,
    k: int,
    p: Precision = DEFAULT_PRECISION,
) -> mpf:
    """k-th derivative of e at center by mpmath.diff's central difference.

    mpmath.diff evaluates e at k + 1 points x0 + (k - 2i)*h, with the
    step h = 2^-(b + 10) for b the bits of digits + GUARD_DIGITS, and
    works at (b + 20)*(k + 1) bits, about k + 1 times the working bits,
    so the difference keeps them.  The result is rounded once to digits.
    """
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    with mp.workdps(p.digits + GUARD_DIGITS):
        d = mpmath.diff(lambda x: _point(e, x), mpmath.mpmathify(center), k)
    return p.round(d)
