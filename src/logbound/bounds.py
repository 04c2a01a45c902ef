"""The logarithm bound family and its gap analysis.

Five upper bounds of ln(1+x) on x >= 0 are tracked:

    SQRT      x/sqrt(x+1)
    PADE      x*(2+x)/(2*(1+x))
    KARAMATA  x*(6+x)/(2*(3+2x))
    CUBIC     (x+2)*((x+1)^3-1)/(3*(1+x)*((x+1)^2+1))
    CB        f(x)/sqrt(x+1)     with f(x) = pi + (1/2)(4+pi)x - 2(x+2)atan(sqrt(x+1))

CB is the tightest of the family and flips to a lower bound on (-1, 0].
In the substituted variable t = sqrt(x+1) the CB bound reads
2t*ln(t) <= H(t) for t >= 1 (reversed on (0,1]), where H(t) = f(t^2-1);
the gap function R(t) = 2t*ln(t) - H(t) is zero at t = 1, non-increasing
on (0, oo), and maps (0, 1] into [0, 2 - pi/2).

Note on the R range: R(1) = 0 together with monotonicity and
R(0+) = 2 - pi/2 force the interval [0, 2 - pi/2) on (0,1]; a commonly
quoted transposed form of this interval is inconsistent with R(1) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

from .errors import DomainError, OutOfRegionError
from .exprjet import (
    DEFAULT_PRECISION,
    Expr,
    GUARD_DIGITS,
    Num,
    Precision,
    eval_expr,
    jet,
    parse,
)


@dataclass(frozen=True)
class BoundSpec:
    """One member of the bound family: an upper bound of ln(1+x) on
    its region (CB is also a lower bound on (-1, 0])."""

    id: str
    formula: Expr
    region_lo: float
    region_lo_open: bool

    def in_region(self, x: mpf) -> bool:
        return x > self.region_lo if self.region_lo_open else x >= self.region_lo


# Registry order is report order: atlas columns, compare rows and the
# selftest chain all follow it.
BOUNDS = {
    "SQRT": BoundSpec("SQRT", parse("x/sqrt(x+1)"), 0.0, False),
    "PADE": BoundSpec("PADE", parse("x*(2+x)/(2*(1+x))"), 0.0, False),
    "KARAMATA": BoundSpec("KARAMATA", parse("x*(6+x)/(2*(3+2*x))"), 0.0, False),
    "CUBIC": BoundSpec("CUBIC", parse("(x+2)*((x+1)^3-1)/(3*(1+x)*((x+1)^2+1))"), 0.0, False),
    "CB": BoundSpec("CB", parse("f(x)/sqrt(x+1)"), -1.0, True),
}

ATLAS_COLUMNS = ("x", "ln1p") + tuple(bid.lower() for bid in BOUNDS)


@dataclass(frozen=True)
class GapValue:
    """Value of R(t) = 2t*ln(t) - f(t^2-1) at a point t > 0."""

    t: mpf
    value: mpf


def _f(x: mpf) -> mpf:
    # the one closed form of f, unrounded at the caller's working precision
    return mp.pi + (4 + mp.pi) * x / 2 - 2 * (x + 2) * mpmath.atan(mpmath.sqrt(x + 1))


def f_cb(x: Num, p: Precision = DEFAULT_PRECISION) -> mpf:
    """f(x) = pi + (1/2)*(4+pi)*x - 2*(x+2)*atan(sqrt(x+1)) for x >= -1."""
    with mp.workdps(p.digits + GUARD_DIGITS):
        xv = mpmath.mpmathify(x)
        if xv < -1:
            raise DomainError(f"f is defined on x >= -1, got {mpmath.nstr(xv, 8)}")
        val = _f(xv)
    with mp.workdps(p.digits):
        return +val


def bound_value(bound_id: str, x: Num, p: Precision = DEFAULT_PRECISION) -> mpf:
    """Evaluate one bound of the family at x (region-checked)."""
    spec = BOUNDS[bound_id]
    with mp.workdps(p.digits + GUARD_DIGITS):
        xv = mpmath.mpmathify(x)
        if not spec.in_region(xv):
            raise OutOfRegionError(
                f"{bound_id} is valid for x {'>' if spec.region_lo_open else '>='} "
                f"{spec.region_lo}, got {mpmath.nstr(xv, 8)}"
            )
    return eval_expr(spec.formula, x, p)


def ln1p(x: Num, p: Precision = DEFAULT_PRECISION) -> mpf:
    """ln(1+x), the function the family bounds."""
    with mp.workdps(p.digits + GUARD_DIGITS):
        xv = mpmath.mpmathify(x)
        if xv <= -1:
            raise DomainError("ln(1+x) requires x > -1")
        val = mpmath.ln(1 + xv)
    with mp.workdps(p.digits):
        return +val


def gap_R(t: Num, p: Precision = DEFAULT_PRECISION) -> GapValue:
    """R(t) = 2t*ln(t) - f(t^2-1) for t > 0.

    R(1) = 0 and R is non-increasing, so R <= 0 for t >= 1 and
    0 <= R(t) < 2 - pi/2 on (0, 1].
    """
    with mp.workdps(p.digits + GUARD_DIGITS):
        tv = mpmath.mpmathify(t)
        if tv <= 0:
            raise DomainError(f"R is defined for t > 0, got {mpmath.nstr(tv, 8)}")
        val = 2 * tv * mpmath.ln(tv) - _f(tv * tv - 1)
    with mp.workdps(p.digits):
        return GapValue(t=+tv, value=+val)


_PHI = parse("ln(t) - ((1/2)*(4+pi)*t - 2*t*atan(t) - 2)")


def phi_identity(t: Num, p: Precision = DEFAULT_PRECISION):
    """Second-derivative identity behind the monotonicity of R.

    Returns (lhs, rhs) where lhs is the jet-computed second derivative
    of phi(t) = ln(t) - ((1/2)(4+pi)t - 2t*atan(t) - 2) and
    rhs = -(t^2-1)^2 * t^(-2) * (t^2+1)^(-2).  The two agree to roughly
    the working precision; phi'' <= 0 is what makes R non-increasing.
    """
    with mp.workdps(p.digits + GUARD_DIGITS):
        tv = mpmath.mpmathify(t)
        if tv <= 0:
            raise DomainError("phi is defined for t > 0")
        rhs = -((tv * tv - 1) ** 2) / (tv * tv * (tv * tv + 1) ** 2)
    lhs = jet(_PHI, t, 2, p).derivative(2)
    with mp.workdps(p.digits):
        return lhs, +rhs


def atan_deriv(n: int, x: Num, p: Precision = DEFAULT_PRECISION) -> mpf:
    """Closed-form n-th derivative of arctan:

        (atan x)^(n) = (-1)^(n-1) (n-1)! (1+x^2)^(-n/2) sin(n*pi/2 - n*atan x)
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    with mp.workdps(p.digits + GUARD_DIGITS):
        xv = mpmath.mpmathify(x)
        val = (
            (-1) ** (n - 1)
            * mpmath.factorial(n - 1)
            * (1 + xv * xv) ** (-mpf(n) / 2)
            * mpmath.sin(n * mp.pi / 2 - n * mpmath.atan(xv))
        )
    with mp.workdps(p.digits):
        return +val


def H_value(t: Num, p: Precision = DEFAULT_PRECISION) -> mpf:
    """H(t) = f(t^2 - 1), defined for all real t."""
    with mp.workdps(p.digits + GUARD_DIGITS):
        tv = mpmath.mpmathify(t)
        val = _f(tv * tv - 1)
    with mp.workdps(p.digits):
        return +val


def H_deriv(n: int, t: Num, p: Precision = DEFAULT_PRECISION) -> mpf:
    """n-th derivative of H(t) = f(t^2-1) in closed form, for t > 0.

    Low orders are written out directly:

        H'(t)   = (4+pi)t - 4t*atan(t) - 2
        H''(t)  = (4+pi) - 4*atan(t) - 4t/(1+t^2)
        H'''(t) = -8/(1+t^2)^2

    and for n >= 4 the Leibniz expansion of [t*atan t]^(n-1) gives

        H^(n)(t) = -4*[t*atan^(n-1)(t) + (n-1)*atan^(n-2)(t)].

    Note the arctangent orders n-1 and n-2 here: this is the expansion
    forced by H^(n) = -4*[t*atan t]^(n-1), and it reproduces
    H^(5)(1) = -8.  Writing the same expansion with orders n and n-1
    (a form that sometimes appears in print) yields -12 at n = 5,
    which contradicts the directly computed value; see
    certifier.case3_constant for the side-by-side comparison.
    """
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    if n == 0:
        return H_value(t, p)
    with mp.workdps(p.digits + GUARD_DIGITS):
        tv = mpmath.mpmathify(t)
        if tv <= 0:
            raise DomainError(f"H derivatives require t > 0, got {mpmath.nstr(tv, 8)}")
        if n == 1:
            val = (4 + mp.pi) * tv - 4 * tv * mpmath.atan(tv) - 2
        elif n == 2:
            val = (4 + mp.pi) - 4 * mpmath.atan(tv) - 4 * tv / (1 + tv * tv)
        elif n == 3:
            val = -8 / (1 + tv * tv) ** 2
        else:
            pp = Precision(p.digits + GUARD_DIGITS)
            val = -4 * (
                tv * atan_deriv(n - 1, tv, pp) + (n - 1) * atan_deriv(n - 2, tv, pp)
            )
    with mp.workdps(p.digits):
        return +val


def atlas_rows(xs, p: Precision = DEFAULT_PRECISION):
    """Bound-family values at each x >= 0: rows of mpf keyed by
    ATLAS_COLUMNS order (x, ln1p, then the five bounds)."""
    rows = []
    for x in xs:
        row = [mpmath.mpmathify(x), ln1p(x, p)]
        for bid in BOUNDS:
            row.append(bound_value(bid, x, p))
        rows.append(row)
    return rows


def log_grid(lo: Num, hi: Num, count: int, p: Precision = DEFAULT_PRECISION):
    """Log-spaced grid of count points on [lo, hi], lo > 0."""
    with mp.workdps(p.digits):
        a, b = mpmath.mpmathify(lo), mpmath.mpmathify(hi)
        if a <= 0 or b <= a or count < 2:
            raise ValueError("log grid needs 0 < lo < hi and count >= 2")
        la, lb = mpmath.ln(a), mpmath.ln(b)
        return [mpmath.exp(la + (lb - la) * i / (count - 1)) for i in range(count)]


def linear_grid(lo: Num, hi: Num, count: int, p: Precision = DEFAULT_PRECISION):
    """Uniform grid of count points on [lo, hi]; the last point is hi exactly."""
    with mp.workdps(p.digits):
        a, b = mpmath.mpmathify(lo), mpmath.mpmathify(hi)
        if count < 2:
            raise ValueError("grid needs count >= 2")
        return [a + (b - a) * i / (count - 1) for i in range(count - 1)] + [b]
