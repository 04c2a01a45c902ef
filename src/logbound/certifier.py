"""Derivative-jet certification of local bounds for 2t*ln(t) near t = 1.

A candidate P with P(1) = 0 is certified through one of four condition
sets on its derivatives at 1.  Write G(t) = P(t) - 2t*ln(t) and
Q(t) = P(t) - H(t) with H(t) = f(t^2-1).  Since

    (2t*ln t)^(j)(1) = -c_j   where c_1 = -2, c_j = 2*(-1)^(j+1)*(j-2)! (j >= 2),

the equality condition "P^(j)(1) + c_j = 0" says G^(j)(1) = 0.  The
four cases:

    I    P'(1) >= 2, G^(j)(1) = 0 for j = 2..n+1 (n odd) and
         G^(n+2)(1) > 0.  Certifies the one-sided pattern (dr):
         2t*ln t <= P on [1, 1+r] and >= on [1-r, 1].
    II   G^(j)(1) = 0 for j = 1..n (n even >= 6), G^(n+1)(1) > 0.
    III  G^(j)(1) = 0 for j = 1..4, Q^(j)(1) = 0 for j = 5..n
         (n even >= 6), Q^(n+1)(1) < 0.
    IV   G^(j)(1) = 0 for j = 1..4 and P^(5)(1) in (-12, -8).

Cases II-IV certify the two-sided pattern (drr): additionally
P <= H on [1, 1+r] and P >= H on [1-r, 1].

The case-III constants exist in two modes.  Derived mode uses
q_j = -H^(j)(1) (so "P^(j)(1) + q_j = 0" is exactly Q^(j)(1) = 0);
paper-literal mode evaluates the displayed constants
4*[t*atan^(j) + (j-1)*atan^(j-1)](1), which use arctangent orders one
higher than the Leibniz expansion of H^(j) produces.  The two disagree
from j = 5 on (+8 vs -12 at j = 5); derived mode is the default and is
the one consistent with finite differences and with H^(5)(1) = -8.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import mpmath
from mpmath import mp, mpf

from .bounds import H_deriv, H_value, atan_deriv
from .errors import PrecisionError
from .exprjet import (
    DEFAULT_PRECISION,
    Expr,
    GUARD_DIGITS,
    Jet,
    Num,
    Precision,
    decimal_text,
    eval_expr,
    jet,
)

CASES = ("I", "II", "III", "IV")

DEFAULT_MAX_N = 12
# Largest max_n accepted: the jet order and the number of conditions
# both grow with it, so the cost of certify grows about quadratically.
MAX_N_CEILING = 40
DEFAULT_JET_ORDER = 7


@dataclass(frozen=True)
class CandidateJet:
    """Candidate P together with its jet at 1 and half-width a."""

    expr: Expr
    jet_at_1: Jet
    a: mpf

    def __post_init__(self):
        if self.jet_at_1.center != 1:
            raise ValueError("candidate jet must be centered at 1")
        if not (0 < self.a < 1):
            raise ValueError("half-width a must lie in (0, 1)")

    @classmethod
    def build(
        cls,
        expr: Expr,
        a: Num,
        order: int = DEFAULT_JET_ORDER,
        p: Precision = DEFAULT_PRECISION,
    ) -> "CandidateJet":
        av = mpmath.mpmathify(a)
        return cls(expr=expr, jet_at_1=jet(expr, 1, order, p), a=av)

    @cached_property
    def derivatives(self) -> tuple:
        """P^(k)(1) for k = 0..order, computed once per candidate."""
        return tuple(self.jet_at_1.derivatives())


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one derivative condition.

    kind is "equality" (pass iff |margin| <= tol), "strict" (pass iff
    margin > tol) or "at-least" (pass iff margin >= -tol); margin is
    the signed distance into the passing region.
    """

    label: str
    kind: str
    target: mpf
    actual: mpf
    margin: mpf
    passed: bool


@dataclass(frozen=True)
class Certificate:
    """Result of condition checking, optionally with a verified radius."""

    case: str  # "I" | "II" | "III" | "IV" | "none"
    n: Optional[int]
    conditions: tuple
    direction_pair: Optional[str]  # "dr" | "drr"
    radius: Optional[mpf]
    digits: int
    mode: str  # "derived" | "paper-literal"
    nearest_miss: Optional[str] = None

    def with_radius(self, r: mpf) -> "Certificate":
        return dataclasses.replace(self, radius=r)

    def to_json_dict(self) -> dict:
        dec = lambda v: decimal_text(v, self.digits)
        return {
            "case": self.case,
            "n": self.n,
            "conditions": [
                {
                    "label": c.label,
                    "target": dec(c.target),
                    "actual": dec(c.actual),
                    "margin": dec(c.margin),
                    "pass": c.passed,
                }
                for c in self.conditions
            ],
            "radius": dec(self.radius),
            "precision_digits": self.digits,
            "mode": self.mode,
        }


def condition_tolerance(p: Precision = DEFAULT_PRECISION) -> mpf:
    """Shared tolerance for equality and strict margins: 10^(10-digits).

    Jet coefficients at the default 50 digits carry error far below
    this, so exact-zero margins (boundary candidates) fail strict
    conditions as they should.
    """
    with mp.workdps(p.digits):
        return mpf(10) ** (10 - p.digits)


# Condition constants depend on (j, digits, mode) only, and every
# certify call asks for the same few dozen; the memo keeps the most
# recently used ones.
_CONSTANTS_KEPT = 512


def equality_constant(j: int, p: Precision = DEFAULT_PRECISION) -> mpf:
    """c_j with c_1 = -2 and c_j = 2*(-1)^(j+1)*(j-2)! for j >= 2.

    "P^(j)(1) + c_j = 0" pins P's j-th derivative at 1 to that of
    2t*ln(t).  The j = 1 value is forced by G'(1) = P'(1) - 2; the
    factorial form would need (-1)! there.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    return _equality_constant(j, p.digits)


@lru_cache(maxsize=_CONSTANTS_KEPT)
def _equality_constant(j: int, digits: int) -> mpf:
    with mp.workdps(digits):
        if j == 1:
            return mpf(-2)
        return +(2 * (-1) ** (j + 1) * mpmath.factorial(j - 2))


def case3_constant(j: int, p: Precision = DEFAULT_PRECISION, paper_literal: bool = False) -> mpf:
    """The j-th additive constant of the case-III conditions.

    Derived mode (default): q_j = -H^(j)(1), so the condition
    "P^(j)(1) + q_j = 0" is Q^(j)(1) = 0.  Paper-literal mode evaluates
    the displayed form 4*[t*atan^(j)(t) + (j-1)*atan^(j-1)(t)] at t=1,
    whose arctangent orders are shifted up by one; at j = 5 it gives
    -12 where the derived constant is +8.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    return _case3_constant(j, p.digits, bool(paper_literal))


@lru_cache(maxsize=_CONSTANTS_KEPT)
def _case3_constant(j: int, digits: int, paper_literal: bool) -> mpf:
    with mp.workdps(digits + GUARD_DIGITS):
        pp = Precision(digits + GUARD_DIGITS)
        if paper_literal:
            val = 4 * (atan_deriv(j, 1, pp) + (j - 1) * atan_deriv(j - 1, 1, pp))
        else:
            val = -H_deriv(j, 1, pp)
    with mp.workdps(digits):
        return +val


def _report(label, kind, target, actual, tol, digits):
    with mp.workdps(digits):
        target = +mpmath.mpmathify(target)
        actual = +mpmath.mpmathify(actual)
        if kind == "equality":
            margin = actual - target
            passed = abs(margin) <= tol
        elif kind == "strict":
            margin = actual - target
            passed = margin > tol
        elif kind == "strict-below":
            margin = target - actual
            passed = margin > tol
            kind = "strict"
        elif kind == "at-least":
            margin = actual - target
            passed = margin >= -tol
        else:
            raise ValueError(f"unknown condition kind {kind!r}")
        return ConditionReport(label, kind, target, actual, +margin, bool(passed))


def check_case(
    c: CandidateJet,
    case: str,
    n: Optional[int] = None,
    p: Precision = DEFAULT_PRECISION,
    paper_literal: bool = False,
):
    """Evaluate every condition of one case on the candidate's jet.

    Returns the list of ConditionReport; the case holds iff all pass.
    Case I needs n odd and jet order >= n+2; cases II/III need n even
    >= 6 and order >= n+1; case IV ignores n and needs order >= 5.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    tol = condition_tolerance(p)
    d = c.derivatives
    order = c.jet_at_1.order
    digits = p.digits

    def need(k):
        if order < k:
            raise ValueError(f"case {case} with n={n} needs jet order >= {k}, have {order}")

    def eq_g(j):
        cj = equality_constant(j, p)
        return _report(f"j={j} equality", "equality", -cj, d[j], tol, digits)

    reports = [_report("P(1)", "equality", mpf(0), d[0], tol, digits)]

    if case == "I":
        if n is None or n < 1 or n % 2 == 0:
            raise ValueError("case I needs an odd n >= 1")
        need(n + 2)
        reports.append(_report("j=1 slope", "at-least", mpf(2), d[1], tol, digits))
        for j in range(2, n + 2):
            reports.append(eq_g(j))
        cj = equality_constant(n + 2, p)
        reports.append(_report(f"j={n + 2} strict", "strict", -cj, d[n + 2], tol, digits))
    elif case == "II":
        if n is None or n < 6 or n % 2 == 1:
            raise ValueError("case II needs an even n >= 6")
        need(n + 1)
        for j in range(1, n + 1):
            reports.append(eq_g(j))
        cj = equality_constant(n + 1, p)
        reports.append(_report(f"j={n + 1} strict", "strict", -cj, d[n + 1], tol, digits))
    elif case == "III":
        if n is None or n < 6 or n % 2 == 1:
            raise ValueError("case III needs an even n >= 6")
        need(n + 1)
        for j in range(1, 5):
            reports.append(eq_g(j))
        for j in range(5, n + 1):
            qj = case3_constant(j, p, paper_literal)
            reports.append(_report(f"j={j} equality", "equality", -qj, d[j], tol, digits))
        qn1 = case3_constant(n + 1, p, paper_literal)
        reports.append(
            _report(f"j={n + 1} strict (below)", "strict-below", -qn1, d[n + 1], tol, digits)
        )
    else:  # case IV
        need(5)
        for j in range(1, 5):
            reports.append(eq_g(j))
        reports.append(_report("j=5 above -12", "strict", mpf(-12), d[5], tol, digits))
        reports.append(_report("j=5 below -8", "strict-below", mpf(-8), d[5], tol, digits))
    return reports


def _attempts(max_n: int):
    yield ("IV", None)
    for n in range(1, max_n + 1, 2):
        yield ("I", n)
    for n in range(6, max_n + 1, 2):
        yield ("II", n)
    for n in range(6, max_n + 1, 2):
        yield ("III", n)


def certify(
    e: Expr,
    a: Num,
    max_n: int = DEFAULT_MAX_N,
    p: Precision = DEFAULT_PRECISION,
    paper_literal: bool = False,
    compute_radius: bool = True,
) -> Certificate:
    """Certify a candidate expression on (1-a, 1+a).

    Builds the jet at 1 once (order max_n+2), then tries case IV, case
    I over odd n, case II and case III over even n >= 6, returning the
    first case whose conditions all pass.  When compute_radius is set
    the certified inequality pattern is grid-verified out to the
    largest radius found (see find_radius).  If nothing passes, the
    returned certificate has case "none" and carries the
    nearest-missing attempt's reports.  max_n must lie in
    [1, MAX_N_CEILING].
    """
    if not 1 <= max_n <= MAX_N_CEILING:
        raise ValueError(f"max_n must lie in [1, {MAX_N_CEILING}], got {max_n}")
    mode = "paper-literal" if paper_literal else "derived"
    cand = CandidateJet.build(e, a, order=max(max_n + 2, DEFAULT_JET_ORDER), p=p)

    best = None  # (n_failed, worst_margin, label, reports)
    for case, n in _attempts(max_n):
        reports = check_case(cand, case, n, p, paper_literal)
        failed = [r for r in reports if not r.passed]
        if not failed:
            cert = Certificate(
                case=case,
                n=n,
                conditions=tuple(reports),
                direction_pair="dr" if case == "I" else "drr",
                radius=None,
                digits=p.digits,
                mode=mode,
            )
            if compute_radius:
                cert = cert.with_radius(find_radius(e, cert, p, a=a))
            return cert
        worst = max(abs(r.margin) for r in failed)
        label = f"case {case}" + (f" n={n}" if n is not None else "")
        key = (len(failed), worst)
        if best is None or key < best[0]:
            best = (key, label, reports)
    return Certificate(
        case="none",
        n=None,
        conditions=tuple(best[2]),
        direction_pair=None,
        radius=None,
        digits=p.digits,
        mode=mode,
        nearest_miss=best[1],
    )


# ---------------------------------------------------------------------------
# Radius search and grid verification
# ---------------------------------------------------------------------------


def _gap_values(e: Expr, t: mpf, drr: bool, digits: int):
    """(G(t), Q(t) or None) at working precision."""
    with mp.workdps(digits + GUARD_DIGITS):
        pt = eval_expr(e, t, Precision(digits))
        g = pt - 2 * t * mpmath.ln(t)
        q = None
        if drr:
            q = pt - H_value(t, Precision(digits))
        return g, q


def _violation(e: Expr, t: mpf, drr: bool, digits: int, slack: mpf):
    """Name of the first gap condition violated at t, or None.

    Right of 1 the pattern requires G >= 0 (and Q <= 0 for drr);
    left of 1 it requires G <= 0 (and Q >= 0).
    """
    g, q = _gap_values(e, t, drr, digits)
    if t >= 1:
        if g < -slack:
            return "G-right"
        if drr and q > slack:
            return "Q-right"
    else:
        if g > slack:
            return "G-left"
        if drr and q < -slack:
            return "Q-left"
    return None


def verify_pattern_on_grid(
    e: Expr,
    r: Num,
    drr: bool,
    points: int = 1000,
    p: Precision = DEFAULT_PRECISION,
):
    """First grid point of [1-r, 1+r] violating the pattern, or None."""
    slack = condition_tolerance(p)
    with mp.workdps(p.digits):
        rv = mpmath.mpmathify(r)
        ts = [1 - rv + 2 * rv * i / (points - 1) for i in range(points)]
    for t in ts:
        if t <= 0:
            return t
        if _violation(e, t, drr, p.digits, slack) is not None:
            return t
    return None


def _bisect_gap_sign(e: Expr, t_good: mpf, t_bad: mpf, drr: bool, digits: int, slack):
    """Bisect toward the first sign change of the violated gap between
    a clean point and a violating point; returns the last clean t."""
    with mp.workdps(digits + GUARD_DIGITS):
        lo, hi = t_good, t_bad
        for _ in range(60):
            mid = (lo + hi) / 2
            if _violation(e, mid, drr, digits, slack) is None:
                lo = mid
            else:
                hi = mid
        return lo


def find_radius(
    e: Expr,
    cert: Certificate,
    p: Precision = DEFAULT_PRECISION,
    a: Optional[Num] = None,
    grid_points: int = 1000,
) -> mpf:
    """Largest r in (0, a] such that the certified pattern holds on a
    grid of [1-r, 1+r].

    Outward doubling scan from r = 1e-6 locates the first violating
    sample of G (or Q for two-sided certificates); 60 bisection steps
    pin down the sign change; the resulting radius is then re-verified
    on the full grid at precision p, shrinking below any violation the
    coarse scan missed.
    """
    if cert.case == "none":
        raise ValueError("cannot search for a radius without a certificate")
    if a is None:
        a = mpf("0.999")
    drr = cert.direction_pair == "drr"
    slack = condition_tolerance(p)
    digits = p.digits

    with mp.workdps(digits + GUARD_DIGITS):
        av = mpmath.mpmathify(a)
        r = mpf("1e-6")
        bracket = None  # (which, t_good, t_bad)
        # Outward doubling; each new annulus is sampled on both sides.
        frontier = mpf(0)
        while bracket is None and frontier < av:
            r = min(r, av)
            samples = 24
            for i in range(1, samples + 1):
                dt = frontier + (r - frontier) * i / samples
                for t in (1 + dt, 1 - dt):
                    if t <= 0:
                        continue
                    which = _violation(e, t, drr, digits, slack)
                    if which is not None:
                        t_good = 1 + (frontier + (r - frontier) * (i - 1) / samples) * (
                            1 if t >= 1 else -1
                        )
                        bracket = (which, t_good, t)
                        break
                if bracket:
                    break
            if bracket is None:
                if r >= av:
                    break
                frontier = r
                r = min(2 * r, av)
        candidate = av if bracket is None else None
        if bracket is not None:
            _, t_good, t_bad = bracket
            t_star = _bisect_gap_sign(e, t_good, t_bad, drr, digits, slack)
            candidate = abs(t_star - 1) * (1 - mpf("1e-9"))
        # Full-grid confirmation; shrink past any missed dip.
        for _ in range(64):
            if candidate <= mpf(10) ** (-digits // 2):
                raise PrecisionError(
                    "no positive verified radius at this precision; "
                    "inconsistent with a valid certificate"
                )
            bad = verify_pattern_on_grid(e, candidate, drr, grid_points, p)
            if bad is None:
                with mp.workdps(digits):
                    return +candidate
            t_star = _bisect_gap_sign(e, mpf(1), bad, drr, digits, slack)
            candidate = abs(t_star - 1) * (1 - mpf("1e-9"))
        raise PrecisionError("radius verification did not stabilize")
