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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from operator import add, sub
from typing import NamedTuple, Optional

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (fone, mpf_abs, mpf_ge, mpf_gt, mpf_le, mpf_neg, mpf_sub, round_nearest,
                          to_float)

from .bounds import _H, _TWO_T_LN_T, H_deriv, atan_deriv
from .errors import BudgetError, DomainError, LogboundError, PrecisionError
from .exprjet import (
    _F64Ball,
    _GROW,
    _MPBall,
    _TINY,
    _U,
    _ball,
    DEFAULT_PRECISION,
    Expr,
    GUARD_DIGITS,
    Jet,
    Num,
    Precision,
    Sub,
    Tape,
    decimal_text,
    eval_expr,  # not called here; perfbench/test_perfbench.py checks this binding
    jet,
)

CASES = ("I", "II", "III", "IV")

DEFAULT_MAX_N = 12
# Largest max_n accepted: the jet order and the number of conditions
# both grow with it, so the cost of certify grows about quadratically.
MAX_N_CEILING = 40
DEFAULT_JET_ORDER = 7

# A radius candidate is confirmed on a grid of GRID_POINTS points of
# [1-r, 1+r]; each rejection bisects to a smaller candidate, and after
# RADIUS_CONFIRMATIONS grids the search gives up with BudgetError.
GRID_POINTS = 1000
RADIUS_CONFIRMATIONS = 4


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
    radius: Optional[mpf]
    digits: int
    mode: str  # "derived" | "paper-literal"
    nearest_miss: Optional[str] = None

    @property
    def direction_pair(self) -> Optional[str]:
        """The certified pattern: "dr" for case I, "drr" for cases II-IV,
        None without a certificate."""
        return None if self.case == "none" else "dr" if self.case == "I" else "drr"

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
    """Shared tolerance of the conditions and the radius slack: 10^(10-digits).

    A condition compares its margin against this tolerance times
    max(1, |target|), because the jet's error is relative: at
    j = 24 a target of size 24!*|c_24| carries an error far above an
    absolute 10^(10-digits).  Jet coefficients at the default 50
    digits carry error far below the scaled tolerance, so exact-zero
    margins (boundary candidates) fail strict conditions as they
    should.  The radius search uses the tolerance unscaled.
    """
    with mp.workdps(p.digits):
        return mpf(10) ** (10 - p.digits)


# Condition constants depend on (j, digits, mode) only, and every
# certify call asks for the same few dozen; each constant's memo keeps
# the most recently used ones.
_CONSTANTS_KEPT = 512


@lru_cache(maxsize=_CONSTANTS_KEPT)
def equality_constant(j: int, p: Precision = DEFAULT_PRECISION) -> mpf:
    """c_j with c_1 = -2 and c_j = 2*(-1)^(j+1)*(j-2)! for j >= 2.

    "P^(j)(1) + c_j = 0" pins P's j-th derivative at 1 to that of
    2t*ln(t).  The j = 1 value is forced by G'(1) = P'(1) - 2; the
    factorial form would need (-1)! there.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    with mp.workdps(p.digits):
        if j == 1:
            return mpf(-2)
        return +(2 * (-1) ** (j + 1) * mpmath.factorial(j - 2))


@lru_cache(maxsize=_CONSTANTS_KEPT)
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
    with mp.workdps(p.digits + GUARD_DIGITS):
        pp = Precision(p.digits + GUARD_DIGITS)
        if paper_literal:
            val = 4 * (atan_deriv(j, 1, pp) + (j - 1) * atan_deriv(j - 1, 1, pp))
        else:
            val = -H_deriv(j, 1, pp)
    return p.round(val)


def _outcomes(d, conds) -> list:
    """(margin, passed) of each condition on the derivatives d at 1, the
    margin a raw libmp value: the operations of the mpf operators on
    d[j], target and tol at the working precision, which they already
    carry."""
    prec, rnd = mp._prec_rounding
    out = []
    for _, kind, sign, j, target, tol in conds:
        a, b = d[j]._mpf_, target._mpf_
        margin = mpf_sub(a, b, prec, rnd) if sign > 0 else mpf_sub(b, a, prec, rnd)
        if kind == "equality":
            passed = mpf_le(mpf_abs(margin, prec, rnd), tol._mpf_)
        elif kind == "strict":
            passed = mpf_gt(margin, tol._mpf_)
        else:  # at-least
            passed = mpf_ge(margin, mpf_neg(tol._mpf_, prec, rnd))
        out.append((margin, passed))
    return out


def _reports(d, conds, outcomes) -> list:
    """The ConditionReport of each condition, from its outcome."""
    return [ConditionReport(label, kind, target, d[j], mp.make_mpf(margin), passed)
            for (label, kind, _, j, target, _), (margin, passed) in zip(conds, outcomes)]


@lru_cache(maxsize=_CONSTANTS_KEPT)
def _conditions(case: str, n: Optional[int], digits: int, paper_literal: bool) -> tuple:
    """(label, kind, sign, derivative order, target, tolerance) of each
    condition of one case, all at `digits`; sign is +1 where the margin
    is actual - target and -1 where it is target - actual."""
    p = Precision(digits)
    with mp.workdps(digits):

        def eq_g(j):
            return (f"j={j} equality", "equality", 1, j, -equality_constant(j, p))

        conds = [("P(1)", "equality", 1, 0, mpf(0))]
        if case == "I":
            conds.append(("j=1 slope", "at-least", 1, 1, mpf(2)))
            conds += [eq_g(j) for j in range(2, n + 2)]
            conds.append((f"j={n + 2} strict", "strict", 1, n + 2, -equality_constant(n + 2, p)))
        elif case == "II":
            conds += [eq_g(j) for j in range(1, n + 1)]
            conds.append((f"j={n + 1} strict", "strict", 1, n + 1, -equality_constant(n + 1, p)))
        elif case == "III":
            conds += [eq_g(j) for j in range(1, 5)]
            conds += [(f"j={j} equality", "equality", 1, j, -case3_constant(j, p, paper_literal))
                      for j in range(5, n + 1)]
            conds.append((f"j={n + 1} strict (below)", "strict", -1, n + 1,
                          -case3_constant(n + 1, p, paper_literal)))
        else:  # case IV
            conds += [eq_g(j) for j in range(1, 5)]
            conds.append(("j=5 above -12", "strict", 1, 5, mpf(-12)))
            conds.append(("j=5 below -8", "strict", -1, 5, mpf(-8)))
        tol = condition_tolerance(p)
        return tuple((*c, tol * max(1, abs(c[4]))) for c in conds)


def check_case(
    jet_at_1: Jet,
    case: str,
    n: Optional[int] = None,
    p: Precision = DEFAULT_PRECISION,
    paper_literal: bool = False,
):
    """Evaluate every condition of one case on a candidate's jet at 1.

    Returns the list of ConditionReport; the case holds iff all pass.
    Case I needs n odd and jet order >= n+2; cases II/III need n even
    >= 6 and order >= n+1; case IV ignores n and needs order >= 5.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    if case == "I" and (n is None or n < 1 or n % 2 == 0):
        raise ValueError("case I needs an odd n >= 1")
    if case in ("II", "III") and (n is None or n < 6 or n % 2 == 1):
        raise ValueError(f"case {case} needs an even n >= 6")
    if jet_at_1.center != 1:
        raise ValueError("candidate jet must be centered at 1")
    conds = _conditions(case, None if case == "IV" else n, p.digits,
                        case == "III" and bool(paper_literal))
    order = jet_at_1.order
    need = conds[-1][3]
    if order < need:
        raise ValueError(f"case {case} with n={n} needs jet order >= {need}, have {order}")
    d = jet_at_1.derivatives
    with mp.workdps(p.digits):
        if jet_at_1.digits != p.digits:
            d = [+v for v in d]
        return _reports(d, conds, _outcomes(d, conds))


def _half_width(a: Num, digits: int) -> mpf:
    """a read at digits+GUARD_DIGITS; a ValueError unless it lies in
    (0, 1) once rounded to digits."""
    with mp.workdps(digits + GUARD_DIGITS):
        av = mpmath.mpmathify(a)
    if not 0 < Precision(digits).round(av) < 1:
        raise ValueError("half-width a must lie in (0, 1)")
    return av


def _attempts(max_n: int):
    yield ("IV", None)
    for n in range(1, max_n + 1, 2):
        yield ("I", n)
    for n in range(6, max_n + 1, 2):
        yield ("II", n)
    for n in range(6, max_n + 1, 2):
        yield ("III", n)


# (max_n, digits, paper_literal) of the plans kept: a certify call reads
# one, and callers use a few
_PLANS_KEPT = 32


@lru_cache(maxsize=_PLANS_KEPT)
def _plan(max_n: int, digits: int, paper_literal: bool) -> tuple:
    """(conditions, attempts) of a certify search: the distinct conditions
    of every attempt (see _conditions), in order of first use, and per
    attempt in _attempts order (case, n, its conditions, the index of
    each in the distinct ones).  Two conditions are one where their
    kind, sign, derivative order, target and tolerance bits agree, so
    their outcomes on any derivatives agree; labels may differ."""
    index, distinct, attempts = {}, [], []
    for case, n in _attempts(max_n):
        conds = _conditions(case, n, digits, case == "III" and paper_literal)
        at = []
        for c in conds:
            _, kind, sign, j, target, tol = c
            key = (kind, sign, j, target._mpf_, tol._mpf_)
            if key not in index:
                index[key] = len(distinct)
                distinct.append(c)
            at.append(index[key])
        attempts.append((case, n, conds, tuple(at)))
    return tuple(distinct), tuple(attempts)


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
    nearest-missing attempt's reports: that of the fewest failed
    conditions, then the smallest largest |margin| among them, the first
    on a tie.  Each attempt's margins and pass flags are those of
    check_case: every distinct condition of the search (see _plan) is
    decided once, and each attempt reads its own conditions' outcomes.
    Only the returned attempt's reports are built, from its own
    conditions.
    max_n must lie in [1, MAX_N_CEILING], and a in (0, 1) once rounded
    to p's digits.
    """
    if not 1 <= max_n <= MAX_N_CEILING:
        raise ValueError(f"max_n must lie in [1, {MAX_N_CEILING}], got {max_n}")
    av = _half_width(a, p.digits)
    mode = "paper-literal" if paper_literal else "derived"
    d = jet(e, 1, max(max_n + 2, DEFAULT_JET_ORDER), p).derivatives

    # the jet is at p's digits and of every attempt's order
    conditions, attempts = _plan(max_n, p.digits, bool(paper_literal))
    with mp.workdps(p.digits):
        outcomes = _outcomes(d, conditions)
    # each failed condition's |margin| at the caller's precision, once
    worst = [None if passed else abs(mp.make_mpf(margin)) for margin, passed in outcomes]
    best = None  # ((n_failed, worst_margin), label, conditions, indices)
    for case, n, conds, at in attempts:
        failed = [worst[i] for i in at if worst[i] is not None]
        if not failed:
            cert = Certificate(
                case=case,
                n=n,
                conditions=tuple(_reports(d, conds, [outcomes[i] for i in at])),
                radius=None,
                digits=p.digits,
                mode=mode,
            )
            if compute_radius:
                cert = dataclasses.replace(cert, radius=find_radius(e, cert, p, a=av))
            return cert
        key = (len(failed), max(failed))
        if best is None or key < best[0]:
            best = (key, f"case {case}" + (f" n={n}" if n is not None else ""), conds, at)
    return Certificate(
        case="none",
        n=None,
        conditions=tuple(_reports(d, best[2], [outcomes[i] for i in best[3]])),
        radius=None,
        digits=p.digits,
        mode=mode,
        nearest_miss=best[1],
    )


# ---------------------------------------------------------------------------
# Radius search and grid verification
# ---------------------------------------------------------------------------


# The Taylor model of the radius search (see _Search.model_box): each
# gap's Taylor polynomial of order MODEL_ORDER at t = 1, with a remainder
# bound over the box |t - 1| <= MODEL_RADIUS.
MODEL_RADIUS = 1 / 64
MODEL_ORDER = 8
# Points of a run decided together in binary64 (see _Search.first_broken):
# a violation early in a run wastes at most one block's walk.
BLOCK = 64


def _offset(t: mpf) -> tuple:
    """Whether t >= 1, and the exact t - 1 rounded once to the nearest float."""
    d = mpf_sub(t._mpf_, fone)
    return not d[0], to_float(d, rnd=round_nearest)


class _Points(NamedTuple):
    """The radius points of a run as a function of their index i, at
    the working precision: lo + width*i/den on a grid (side 0), and
    1 + (lo + width*i/den) or 1 - (lo + width*i/den) on the right or
    left side of a scan annulus (side 1 or -1)."""

    lo: mpf
    width: mpf
    den: int
    side: int = 0

    def __call__(self, i: int) -> mpf:
        d = self.lo + self.width * i / self.den
        if not self.side:
            return d
        return 1 + d if self.side > 0 else 1 - d

    def balls(self, block: range) -> tuple:
        """(centers, radius) of the block's points: the floats of the same
        formula, and one radius that holds each point within it of its
        center.

        With S = |base| + |lo| + |q| (base 1 on a scan side, else 0, and
        q = width*i/den), the mpf point's four roundings at the working
        unit u_p = 2^-prec move it at most 4u_p*S from the exact formula,
        and the floats of lo and width (u each, round to nearest), the
        float product, quotient and the two sums move the center at most
        3u|lo| + 5u|q| + u*base, so within 5u*S, from it.  The radius
        (8u + 5u_p)*S', with S' from the floats, covers both and the
        floats' own roundings of S'; the block's is that of its largest
        |q|, at one of its ends (width >= 0)."""
        base, sign = (1.0 if self.side else 0.0), (-1.0 if self.side < 0 else 1.0)
        lo, width, den = float(self.lo), float(self.width), self.den
        rel = (8 * _U + 5 * 2.0 ** -mp.prec) * _GROW
        xs = [base + sign * (lo + width * i / den) for i in block]
        q = max(abs(width * block[0] / den), abs(width * block[-1] / den))
        return xs, rel * (base + abs(lo) + q) + _TINY


def _past(gap: tuple, floor: bool, cut: float, pad: float) -> Optional[bool]:
    """True where the gap ball (v, e) proves the pattern broken, False
    where it proves it kept, None where it cannot tell; the gap must stay
    >= -cut where floor is set, else <= cut."""
    v, e = gap
    # signed distance into the pattern
    above, err = _ball((v if floor else -v) + cut, e + pad)
    if above < -err:
        return True
    return False if above > err else None


def _search(e: Expr, drr: bool, digits: int) -> "_Search":
    """The radius search of e's pattern (drr or dr) at digits, built on
    first use and kept on e.  Its tape's references, 2t*ln(t) and for drr
    H, keep their series slots at t = 1 for the process (see
    exprjet.Tape), so a new candidate's Taylor model walks only its own."""
    kept = e.__dict__.setdefault("_searches", {})
    search = kept.get((drr, digits))
    if search is None:
        search = kept[drr, digits] = _Search(e, drr, digits)
    return search


class _Search:
    """The radius search of one candidate P, pattern and precision.

    Right of 1 the pattern requires G = P - 2t*ln(t) >= -slack (and
    Q = P - H <= slack for drr); left of 1 it requires G <= slack (and
    Q >= -slack), with slack = condition_tolerance at digits.  tape holds
    the roots P, 2t*ln(t) and, for drr, H(t), then the gaps G and, for
    drr, Q as the rows Sub(P, 2t*ln(t)) and Sub(P, H(t)), whose rules give
    each gap's ball, column and coefficients (structurally equal subtrees
    share a slot, so P and the H inside it are computed once per point);
    2t*ln(t) and H are also its references, flattened first, whose series
    slots are kept for the process (see exprjet.Tape); gaps is the number
    of gaps, the tape's last roots.  cut is the slack as a float and rho
    the pad scale of range_verdict, 10^-digits or more, a normal float.
    Every decision gives the verdict of walk_verdict, the pattern test at
    digits+GUARD_DIGITS."""

    def __init__(self, e: Expr, drr: bool, digits: int):
        others = (_TWO_T_LN_T,) + ((_H,) if drr else ())
        self.tape = Tape((e, *others, *(Sub(e, o) for o in others)), others)
        self.gaps = len(others)
        self.digits = digits
        self.p = Precision(digits)
        self.slack = condition_tolerance(self.p)
        self.cut = float(self.slack)
        self.rho = 10.0 ** -min(digits, 300)

    @cached_property
    def model(self) -> Optional[tuple]:
        """Per gap (G, then Q for drr): the rows (g_k, w_k) for
        k = 0..MODEL_ORDER and the remainder bound R of model_box, built
        on first use; None where the build raises, a pole or domain edge
        in the box for one: then no point is decided by the model.

        The gaps' coefficients at t = 1 are the mpf balls of their rows'
        series walk at digits+GUARD_DIGITS, so P's and 2t*ln(t)'s (or H's)
        cancel there and not at each point; both walks start from the
        references' kept slots where the process has walked them.  g_k is
        the float nearest the midpoint; w_k bounds the ball's radius, that
        rounding and the float roundings of model_box per unit of |d|^k.  R bounds the gap's
        order-(MODEL_ORDER+1) coefficient at every center in the box
        (binary64 balls, see exprjet._Ball), so that R*|d|^(MODEL_ORDER+1)
        bounds the Lagrange remainder.
        """
        try:
            with mp.workdps(self.digits + GUARD_DIGITS):
                coeffs = self.tape.series(_MPBall(mpf(1)), MODEL_ORDER)[-self.gaps:]
            # the box reaches past MODEL_RADIUS by more than d's rounding
            box = self.tape.series(_F64Ball(1.0, MODEL_RADIUS * _GROW ** 2), MODEL_ORDER + 1)
        except (ArithmeticError, ValueError, LogboundError):
            return None
        models = []
        for c, over in zip(coeffs, box[-self.gaps:]):
            g = [float(b.v) for b in c]
            rows = tuple((v, (b.e + (2 * MODEL_ORDER + 2) * _U * abs(v) + _TINY) * _GROW)
                         for v, b in zip(g, c))
            r = over[-1]  # the gap's order-(MODEL_ORDER+1) coefficient over the box
            models.append((rows, (abs(r.v) + r.e) * _GROW))
        return tuple(models)

    def pads(self, roots: list) -> list:
        """The pad of each gap (see range_verdict) from the balls of the
        roots before the gaps: P's first, then 2t*ln(t)'s and, for drr,
        H's."""
        (vp, ep), *others = roots
        return [self.rho * (abs(vp) + abs(vo) + (ep + eo) / _U) + 2 * _U * self.cut
                for vo, eo in others]

    def float_verdicts(self, xs: list, err: float, right: bool) -> list:
        """walk_verdict's answer at each point of a block where binary64
        balls prove it, else None.

        Point k is any t within err of xs[k], on the side of 1 that right
        names; the columns (Tape.balls) hold the roots' and the gaps' values
        at the xs and one error bound for every point.  The test is
        range_verdict's without a model: at a point the gap's ball, padded
        as there, is compared with the slack.  Its pad and roundings take
        the block's largest |P|, |2t*ln(t) or H|, |gap| and |slack +- gap|,
        so that one bound per gap serves the whole block and a point costs
        its comparisons.  A walk that raises or overflows at any point
        decides no point of the block.
        """
        try:
            cols = self.tape.balls(xs, err)
        except (ArithmeticError, ValueError):
            return [None] * len(xs)
        cut, verdicts = self.cut, [False] * len(xs)
        pads = self.pads([(max(map(abs, vs)), e) for vs, e in cols[:-self.gaps]])
        # G must stay >= -slack right of 1 and <= slack left of it; Q the reverse
        for (gaps, gap), floor, pad in zip(cols[-self.gaps:], (right, not right), pads):
            # the signed distances into the pattern, then one bound for all
            aboves = list(map(add if floor else sub, repeat(cut), gaps))
            bound = _ball(max(max(aboves), -min(aboves)), gap + pad)[1]
            for k, (above, known) in enumerate(zip(aboves, verdicts)):
                if known is False:
                    verdicts[k] = True if above < -bound else (False if above > bound else None)
        return verdicts

    def walk_verdict(self, t: mpf, right: bool) -> bool:
        """The pattern test at digits+GUARD_DIGITS, with P and H rounded to
        digits first.  A t where P is undefined (a pole or a domain edge
        of P, DomainError) breaks the pattern."""
        with mp.workdps(self.digits + GUARD_DIGITS):
            try:
                pt, two_t_ln_t, *h = self.tape.point(t)[:-self.gaps]
            except DomainError:
                return True
            pt, h = self.p.round(pt), [self.p.round(v) for v in h]
            g = pt - two_t_ln_t
            if (g < -self.slack) if right else (g > self.slack):
                return True
            if not h:
                return False
            q = pt - h[0]
            return (q > self.slack) if right else (q < -self.slack)

    def model_box(self, t0: mpf, t1: mpf) -> list:
        """The gaps' (value, error bound) pairs enclosing them at every t
        between t0 and t1 from the Taylor model; none unless both lie on
        one side of 1 (t >= 1 or t < 1) within MODEL_RADIUS and there is a
        model.  A point t is the range from t to t.

        The exact |t - 1| lies in [lo, hi]: the floats of the exact t0 - 1
        and t1 - 1 (see _offset), each widened by its rounding 2u|d|.  On
        that one-signed range each term g_k*d^k is monotone, so the sums of
        its smaller and of its larger end bound sum g_k d^k.  The error adds
        at |d| = hi the coefficients' balls and float roundings w_k*hi^k,
        which with (2N+2)u|g_k|hi^k also cover the roundings of the powers,
        products and sums here, and the remainder R*hi^(N+1); (|g_k| + 1)*_TINY
        per term covers an underflow of a power.
        """
        right, d0 = _offset(t0)
        right1, d1 = (right, d0) if t1 is t0 else _offset(t1)
        lo, hi = sorted((abs(d0), abs(d1)))
        if right1 != right or hi > MODEL_RADIUS or self.model is None:
            return []
        lo = max(0.0, (lo - 2 * _U * lo - _TINY) / _GROW)
        hi = (hi + 2 * _U * hi + _TINY) * _GROW
        boxes = []
        for rows, rem in self.model:
            bottom = top = err = 0.0
            low = high = 1.0  # lo^k and hi^k
            for k, (g, w) in enumerate(rows):
                c = -g if k % 2 and not right else g  # the coefficient of |d|^k
                # the term's smaller and larger end: c*lo^k <= c*hi^k for c >= 0
                small, large = (c * low, c * high) if c >= 0 else (c * high, c * low)
                bottom += small
                top += large
                err += w * high + (abs(g) + 1) * _TINY
                low, high = low * lo, high * hi
            err += rem * high
            boxes.append(((bottom + top) / 2, ((top - bottom) / 2 + _U * (abs(bottom) + abs(top))
                                               + err) * _GROW + 2 * _TINY))
        return boxes

    def range_verdict(self, t0: mpf, t1: mpf, right: bool) -> Optional[bool]:
        """walk_verdict's answer at every t from t0 to t1, all on the side
        of 1 that right names, where binary64 balls prove it, else None:
        True where every such t breaks the pattern, False where none does.
        A point t is the range from t to t.

        The range is one input ball (x, half) that holds every point's
        (float(t) within 2u|float(t)| of t): float(t0) itself when t1 is t0,
        else the hull of float(t0) and float(t1), whose half-width covers
        their spread and the roundings of both ends and of the center.  The
        ball rules, like interval arithmetic, give a larger input a ball
        that holds the smaller input's, so the range's balls (Tape.ball)
        hold every point's and, with |v| <= |V| + E - e for a ball (v, e)
        inside (V, E), its pads dominate theirs.  A gap whose ball cannot
        decide it takes the Taylor model's box over the range instead
        (model_box, which exists within MODEL_RADIUS of 1); both enclose
        the exact gap.

        walk_verdict's G and Q differ from the exact ones by the rounding
        of P and H to digits, at most 10^-(digits+1) of each, and by its
        walk's own error.  That walk rounds the same operations with a unit
        roundoff about 10^-(digits+14)/u times u = 2^-53, so its error is at
        most that factor times the balls' errors, which a wider input ball
        only widens.  A pad of 10^-digits * (|P| + |2t*ln(t) or H| + their
        errors/u) covers both, and with the conversion of slack it is added
        to the gap's error before the comparison.  A walk that raises
        decides nothing; balls that overflow to inf or NaN decide nothing.
        """
        f0 = float(t0)
        if t1 is t0:
            x, half = f0, 2 * _U * abs(f0)
        else:
            f1 = float(t1)
            x, half = (f0 + f1) / 2, (abs(f1 - f0) / 2 + 4 * _U * max(abs(f0), abs(f1))) * _GROW
        try:
            balls = self.tape.ball(x, half)
        except (ArithmeticError, ValueError):
            return None
        box = None  # model_box's balls, computed on first need
        # G must stay >= -slack right of 1 and <= slack left of it; Q the reverse
        for i, (gap, floor, pad) in enumerate(zip(balls[-self.gaps:], (right, not right),
                                                  self.pads(balls[:-self.gaps]))):
            verdict = _past(gap, floor, self.cut, pad)
            if verdict is None:
                box = self.model_box(t0, t1) if box is None else box
                verdict = _past(box[i], floor, self.cut, pad) if box else None
            if verdict is not False:
                return verdict
        return False

    def violates(self, t: mpf) -> bool:
        """Whether t breaks the pattern.  t is decided as a range of one
        (range_verdict): binary64 balls of the tape's roots at t, where
        their error bounds keep G and Q clear of the thresholds, and for
        |t - 1| <= MODEL_RADIUS the Taylor model of the gaps at t = 1 (see
        model_box), which encloses them where the balls' errors,
        O(u*|t-1|), swamp gaps that vanish to high order at 1.  Where
        neither clears the thresholds by range_verdict's pad, or the float
        walk raises or overflows, walk_verdict decides, with the same
        verdict.  The searches call it for bisection points and for the
        points that first_broken leaves undecided."""
        right = t >= 1
        verdict = self.range_verdict(t, t, right)
        return self.walk_verdict(t, right) if verdict is None else verdict

    def first_broken(self, point: _Points, run: range, near: bool, right: bool) -> Optional[int]:
        """The first i of run, in order, whose point(i) breaks the pattern,
        or None: violates' verdict at each point(i) up to the first broken
        one.

        The points increase or decrease with i, all on the side of 1 that
        right names.  A near run, within MODEL_RADIUS of 1, is first decided
        as the range from its first point to its last (range_verdict);
        where the range cannot tell, a run of more than BLOCK points is
        split in halves, each decided the same way.  Any other run goes to
        float_verdicts BLOCK points at a time, from the floats of
        point.balls, each block walked only when no earlier point broke.  A
        point left undecided is a range of one and then the walk
        (violates).  Only the ends of near runs and the undecided points
        are computed in mpf."""
        if near and len(run) > 1:
            verdict = self.range_verdict(point(run[0]), point(run[-1]), right)
            if verdict is not None:
                return run[0] if verdict else None
            if len(run) > BLOCK:
                half = len(run) // 2
                first = self.first_broken(point, run[:half], near, right)
                if first is None:
                    first = self.first_broken(point, run[half:], near, right)
                return first
        for start in range(0, len(run), BLOCK):
            block = run[start:start + BLOCK]
            verdicts = ([None] * len(block) if near
                        else self.float_verdicts(*point.balls(block), right))
            for i, verdict in zip(block, verdicts):
                if verdict or verdict is None and self.violates(point(i)):
                    return i
        return None

    def bisect(self, t_good: mpf, t_bad: mpf) -> mpf:
        """Bisect toward the first sign change of the violated gap between
        a clean point and a violating point, at the caller's working
        precision; returns the last clean t."""
        lo, hi = t_good, t_bad
        for _ in range(60):
            mid = (lo + hi) / 2
            if not self.violates(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def scan(self, av: mpf) -> Optional[tuple]:
        """(last clean t, t) at the first violating sample of the outward
        doubling scan, or None, at the caller's working precision: annuli
        (frontier, r] from r = 1e-6, doubling up to av < 1, each sampled at
        24 points on both sides of 1, right before left at each index.  Each
        side of an annulus is a run of first_broken, near while
        r <= MODEL_RADIUS: i is the right side's first violating index, and
        j the left side's below i, or below 25 where the right has none.
        The left bracket at j, if any, comes first in the scan's order, then
        the right one at i; so the bracket is that of the point tests alone,
        and the last clean t is the previous sample on the violating side,
        point(0) = 1 +- frontier at the first."""
        frontier, r, samples = mpf(0), min(mpf("1e-6"), av), 24
        while frontier < av:
            step = r - frontier  # once per annulus; the points' bits are unchanged
            near = r <= MODEL_RADIUS
            right, left = (_Points(frontier, step, samples, side) for side in (1, -1))
            i = self.first_broken(right, range(1, samples + 1), near, True)
            j = self.first_broken(left, range(1, samples + 1 if i is None else i), near, False)
            if j is not None:
                return left(j - 1), left(j)
            if i is not None:
                return right(i - 1), right(i)
            frontier, r = r, min(2 * r, av)
        return None


def verify_pattern_on_grid(e: Expr, r: Num, drr: bool, p: Precision = DEFAULT_PRECISION):
    """First point of the GRID_POINTS-point grid of [1-r, 1+r] violating
    the pattern, or None; r, rounded to p's digits, must lie in (0, 1).
    Four runs cover the grid, each on one side of 1 (see
    _Search.first_broken): the two within MODEL_RADIUS of 1 are decided
    as ranges, split while undecided, and the two beyond it BLOCK points
    at a time.  Only the points those do not decide are computed, and
    violates decides them in the grid's order, so the first violating
    point is that of the point tests alone."""
    search = _search(e, drr, p.digits)
    with mp.workdps(p.digits):
        rv = mpmath.mpmathify(r)
        if not 0 < +rv < 1:
            raise ValueError("radius r must lie in (0, 1)")
        # lo and width once per grid; the points' bits are unchanged
        point = _Points(1 - rv, 2 * rv, GRID_POINTS - 1)

        # t - 1 increases with i (rounding keeps the order), so the runs
        # within MODEL_RADIUS of 1 are [a, b) left of 1 and [b, c) right
        grid = range(GRID_POINTS)

        def offset(i):
            return point(i) - 1

        a, b = (bisect_left(grid, d, key=offset) for d in (-MODEL_RADIUS, 0))
        c = bisect_right(grid, MODEL_RADIUS, key=offset)
        for run, near, right in ((range(a), False, False), (range(a, b), True, False),
                                 (range(b, c), True, True), (range(c, GRID_POINTS), False, True)):
            i = search.first_broken(point, run, near, right)
            if i is not None:
                return point(i)
    return None


def find_radius(
    e: Expr,
    cert: Certificate,
    p: Precision = DEFAULT_PRECISION,
    *,
    a: Num,
) -> mpf:
    """Largest r in (0, a] such that the certified pattern holds on a
    grid of [1-r, 1+r], where a is the half-width the certificate was
    made for (certify passes its own).

    Outward doubling scan from r = 1e-6 (see _Search.scan) locates the
    first violating sample of G (or Q for two-sided certificates); 60
    bisection steps pin down the sign change; the resulting radius is
    then re-verified on the full grid at precision p, shrinking below
    any violation the coarse scan missed, at most RADIUS_CONFIRMATIONS
    times before BudgetError.  One search object (_Search) per
    expression, pattern and precision holds the tape of P, 2t*ln(t) and,
    for two-sided certificates, H, the slack and the gaps' Taylor model
    at t = 1, and every decision gives the verdict of its walk at
    digits+GUARD_DIGITS.  The scan and the grid split their points into
    runs on one side of 1, each searched for its first violating point
    by first_broken.  A run within MODEL_RADIUS of 1 is decided as one
    range (range_verdict): binary64 balls over the range, then the Taylor
    model's box, split in halves while undecided and longer than BLOCK.
    A run beyond goes BLOCK points at a time to one binary64 walk over
    the floats of the points, with one error bound per slot for the
    block (float_verdicts).  Only a point these do not
    decide is computed, and it goes to violates: a range of one, and then
    the walk.  Points are visited in order, so the first violating sample,
    every radius and every report byte are those of the point tests
    alone.  An a that does not lie in (0, 1) once rounded to p's digits
    is a ValueError, and an a at or below 10^(-digits//2), where no radius
    is verified, a PrecisionError, both up front.
    """
    if cert.case == "none":
        raise ValueError("cannot search for a radius without a certificate")
    drr = cert.direction_pair == "drr"
    digits = p.digits
    search = _search(e, drr, digits)
    av = _half_width(a, digits)
    with mp.workdps(digits + GUARD_DIGITS):
        floor = mpf(10) ** (-digits // 2)
        if av <= floor:
            raise PrecisionError(
                f"a = {mpmath.nstr(av, 8)} is not above the radius floor 1e{-digits // 2} "
                f"at {digits} digits; raise a or the working precision"
            )
        bracket = search.scan(av)
        if bracket is None:
            candidate = av
        else:
            t_star = search.bisect(*bracket)
            candidate = abs(t_star - 1) * (1 - mpf("1e-9"))
        # Full-grid confirmation; shrink past any missed dip.
        for _ in range(RADIUS_CONFIRMATIONS):
            if candidate <= floor:
                raise PrecisionError(
                    "no positive verified radius at this precision; "
                    "inconsistent with a valid certificate"
                )
            bad = verify_pattern_on_grid(e, candidate, drr, p=p)
            if bad is None:
                return p.round(candidate)
            t_star = search.bisect(mpf(1), bad)
            candidate = abs(t_star - 1) * (1 - mpf("1e-9"))
        raise BudgetError(f"radius confirmation exhausted its budget of {RADIUS_CONFIRMATIONS} "
                          "grids; raise the working precision and retry")
