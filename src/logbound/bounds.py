"""The logarithm bound family and its gap analysis.

Five upper bounds of ln(1+x) on x >= 0 are tracked:

    SQRT      x/sqrt(x+1)
    PADE      x*(2+x)/(2*(1+x))
    KARAMATA  x*(6+x)/(2*(3+2x))
    CUBIC     (x+2)*((x+1)^3-1)/(3*(1+x)*((x+1)^2+1))
    CB        f(x)/sqrt(x+1)     with f(x) = pi + (1/2)(4+pi)x - 2(x+2)atan(sqrt(x+1))

f is defined once, by exprjet.f_of: CB, f_cb, H_value and gap_R
evaluate trees parsed from it.

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
    _REFERENCES_AT_1,
    DEFAULT_PRECISION,
    Expr,
    GUARD_DIGITS,
    Num,
    Precision,
    Sub,
    Tape,
    eval_expr,
    jet,
    parse,
)


@dataclass(frozen=True)
class BoundSpec:
    """One member of the bound family: an upper bound of ln(1+x) on
    its region (CB is also a lower bound on (-1, 0]).  Its id is its
    key in BOUNDS."""

    formula: Expr
    region_lo: float
    region_lo_open: bool

    def in_region(self, x: mpf) -> bool:
        return x > self.region_lo if self.region_lo_open else x >= self.region_lo


# Registry order is report order: atlas columns, compare rows and the
# selftest chain all follow it.
BOUNDS = {
    "SQRT": BoundSpec(parse("x/sqrt(x+1)"), 0.0, False),
    "PADE": BoundSpec(parse("x*(2+x)/(2*(1+x))"), 0.0, False),
    "KARAMATA": BoundSpec(parse("x*(6+x)/(2*(3+2*x))"), 0.0, False),
    "CUBIC": BoundSpec(parse("(x+2)*((x+1)^3-1)/(3*(1+x)*((x+1)^2+1))"), 0.0, False),
    "CB": BoundSpec(parse("f(x)/sqrt(x+1)"), -1.0, True),
}

ATLAS_COLUMNS = ("x", "ln1p") + tuple(bid.lower() for bid in BOUNDS)


_F = parse("f(x)")
_TWO_T_LN_T, _H = _REFERENCES_AT_1
_R = Sub(_TWO_T_LN_T, _H)


def _check_f_domain(xv: mpf) -> None:
    if not xv >= -1:
        raise DomainError(f"f is defined on x >= -1, got {mpmath.nstr(xv, 8)}")


def f_cb(x: Num, p: Precision = DEFAULT_PRECISION) -> mpf:
    """f(x) = pi + (1/2)*(4+pi)*x - 2*(x+2)*atan(sqrt(x+1)) for x >= -1."""
    return eval_expr(_F, x, p, check=_check_f_domain)


def _check_region(bound_id: str, xv: mpf) -> None:
    spec = BOUNDS[bound_id]
    if not spec.in_region(xv):
        raise OutOfRegionError(f"{bound_id} is valid for x {'>' if spec.region_lo_open else '>='} "
                               f"{spec.region_lo}, got {mpmath.nstr(xv, 8)}")


def bound_value(bound_id: str, x: Num, p: Precision = DEFAULT_PRECISION) -> mpf:
    """Evaluate one bound of the family at x (region-checked)."""
    return eval_expr(BOUNDS[bound_id].formula, x, p, check=lambda xv: _check_region(bound_id, xv))


def _ln1p(x: mpf) -> mpf:
    """ln(1+x) for x > -1 at the working precision, of the exact 1+x: no digit lost near 0."""
    if not x > -1:
        raise DomainError("ln(1+x) requires x > -1")
    return mpmath.ln(mpmath.fadd(1, x, exact=True))


def ln1p(x: Num, p: Precision = DEFAULT_PRECISION) -> mpf:
    """ln(1+x), the function the family bounds."""
    with mp.workdps(p.digits + GUARD_DIGITS):
        val = _ln1p(mpmath.mpmathify(x))
    return p.round(val)


def _check_R_domain(tv: mpf) -> None:
    if not tv > 0:
        raise DomainError(f"R is defined for t > 0, got {mpmath.nstr(tv, 8)}")


def gap_R(t: Num, p: Precision = DEFAULT_PRECISION) -> mpf:
    """R(t) = 2t*ln(t) - f(t^2-1) for t > 0, at p's digits.

    R(1) = 0 and R is non-increasing, so R <= 0 for t >= 1 and
    0 <= R(t) < 2 - pi/2 on (0, 1].
    """
    return eval_expr(_R, t, p, check=_check_R_domain)


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
        if not tv > 0:
            raise DomainError("phi is defined for t > 0")
        rhs = -((tv * tv - 1) ** 2) / (tv * tv * (tv * tv + 1) ** 2)
    return jet(_PHI, t, 2, p).derivative(2), p.round(rhs)


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
    return p.round(val)


def H_value(t: Num, p: Precision = DEFAULT_PRECISION) -> mpf:
    """H(t) = f(t^2 - 1), defined for all real t."""
    return eval_expr(_H, t, p)


def H_deriv(n: int, t: Num, p: Precision = DEFAULT_PRECISION) -> mpf:
    """n-th derivative of H(t) = f(t^2-1) in closed form, for t > 0.

    The first two orders are written out directly:

        H'(t)   = (4+pi)t - 4t*atan(t) - 2
        H''(t)  = (4+pi) - 4*atan(t) - 4t/(1+t^2)

    and for n >= 3 the Leibniz expansion of [t*atan t]^(n-1) gives

        H^(n)(t) = -4*[t*atan^(n-1)(t) + (n-1)*atan^(n-2)(t)],

    which at n = 3 is -8/(1+t^2)^2.

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
        if not tv > 0:
            raise DomainError(f"H derivatives require t > 0, got {mpmath.nstr(tv, 8)}")
        if n == 1:
            val = (4 + mp.pi) * tv - 4 * tv * mpmath.atan(tv) - 2
        elif n == 2:
            val = (4 + mp.pi) - 4 * mpmath.atan(tv) - 4 * tv / (1 + tv * tv)
        else:
            pp = Precision(p.digits + GUARD_DIGITS)
            val = -4 * (
                tv * atan_deriv(n - 1, tv, pp) + (n - 1) * atan_deriv(n - 2, tv, pp)
            )
    return p.round(val)


# The family on one tape: shared subtrees such as sqrt(x+1) are one slot.
_FAMILY = Tape([spec.formula for spec in BOUNDS.values()])


def atlas_rows(xs, p: Precision = DEFAULT_PRECISION):
    """Bound-family values at each x >= 0: rows of mpf keyed by ATLAS_COLUMNS
    order (x, ln1p, then the five bounds, with the bits of bound_value);
    ln1p's DomainError comes first, then the bounds' in registry order."""
    rows = []
    for x in xs:
        row = [mpmath.mpmathify(x), ln1p(x, p)]
        with mp.workdps(p.digits + GUARD_DIGITS):
            xv = mpmath.mpmathify(x)
            for bid in BOUNDS:
                _check_region(bid, xv)
            row += map(p.round, _FAMILY.point(xv))
        rows.append(row)
    return rows


def chain_stats(xs, slack: mpf, p: Precision = DEFAULT_PRECISION):
    """The chain ln(1+x) <= CB <= every other bound over xs (x >= 0): per
    bound, CB first, the largest gap to ln(1+x), the least link (CB -
    ln(1+x) for CB, the bound - CB for the others) and the count of links
    below -slack; and the first x with such a link, or None."""
    stats = {bid: {"max_gap_ln": mpf(0), "min_gap_cb": mpf("inf"), "violations": 0}
             for bid in ("CB", *BOUNDS)}
    broken = None
    with mp.workdps(p.digits):
        for x, l, *vals in atlas_rows(xs, p):
            values = dict(zip(BOUNDS, vals))
            for bid, s in stats.items():
                v = values[bid]
                link = v - (l if bid == "CB" else values["CB"])
                s["max_gap_ln"] = max(s["max_gap_ln"], v - l)
                s["min_gap_cb"] = min(s["min_gap_cb"], link)
                if link < -slack:
                    s["violations"] += 1
                    if broken is None:
                        broken = x
    return stats, broken


def _finite_ends(lo: Num, hi: Num):
    a, b = mpmath.mpmathify(lo), mpmath.mpmathify(hi)
    if not (mpmath.isfinite(a) and mpmath.isfinite(b)):
        raise ValueError("grid endpoints must be finite, got "
                         f"[{mpmath.nstr(a, 8)}, {mpmath.nstr(b, 8)}]")
    return a, b


def log_grid(lo: Num, hi: Num, count: int, p: Precision = DEFAULT_PRECISION):
    """Log-spaced grid of count points on [lo, hi], 0 < lo < hi < inf."""
    with mp.workdps(p.digits):
        a, b = _finite_ends(lo, hi)
        if a <= 0 or b <= a or count < 2:
            raise ValueError("log grid needs 0 < lo < hi and count >= 2")
        la, lb = mpmath.ln(a), mpmath.ln(b)
        return [mpmath.exp(la + (lb - la) * i / (count - 1)) for i in range(count)]


def linear_grid(lo: Num, hi: Num, count: int, p: Precision = DEFAULT_PRECISION):
    """Uniform grid of count points on [lo, hi], both finite, lo < hi;
    the last point is hi exactly."""
    with mp.workdps(p.digits):
        a, b = _finite_ends(lo, hi)
        if b <= a or count < 2:
            raise ValueError("grid needs lo < hi and count >= 2")
        width = b - a  # once per grid; the points' bits are unchanged
        return [a + width * i / (count - 1) for i in range(count - 1)] + [b]
