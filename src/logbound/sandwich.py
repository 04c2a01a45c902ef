"""Rational intermediation experiments.

No rational function P/Q can sit between ln(1+x) and the corridor
bound cb(x) = f(x)/sqrt(x+1) on all of [0, oo), nor between them (in
reversed order) on (-1, 0].  This module makes that impossibility
executable:

  * check_sandwich verifies a candidate on a finite grid and returns
    the first confirmed violation as a Witness;
  * find_witness hunts a violation within a fixed budget, guided by
    the mechanics of the impossibility proof: any candidate must match
    ln(1+x) to fourth order at 0 (the corridor gap is x^5/960 + O(x^6)
    there), every rational eventually exits the corridor as x -> oo
    (the upper wall grows like sqrt(x), the lower like ln x, a rational
    like a power of x), and near -1 the lower wall diverges;
  * fit_sandwich probes the complementary fact that on a compact
    interval the corridor does admit rational inhabitants, by solving
    the sampled linear feasibility problem in the coefficients through
    the LP dual of its phase 1, in extended precision.

All witnesses re-verify at doubled precision with margin > 1e-20
before being returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Optional, Sequence

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (
    finf,
    fone,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_sub,
    normalize,
    round_nearest,
)

from .bounds import _ln1p, f_cb, linear_grid
from .errors import (
    BudgetError,
    PrecisionError,
    QVanishesError,
)
from .exprjet import (
    DEFAULT_PRECISION,
    Expr,
    GUARD_DIGITS,
    Num,
    Precision,
    _s_div,
    _tape,
    decimal_text,
)

WITNESS_MARGIN = mpf("1e-20")
# Probes of each asymptotic exit, and the fallback grid sizes of the
# witness search; a search that exhausts them raises BudgetError.
WITNESS_DOUBLINGS = 120
WITNESS_GRIDS = (1000, 10000)
# Highest polynomial degree expr_to_poly multiplies out.
MAX_POLY_DEGREE = 100

# Contact derivatives of ln(1+x) at 0 (orders 1..4).  A candidate whose
# derivatives differ from these leaves the corridor immediately at 0.
LN1P_CONTACT = (1, -1, 2, -6)


@dataclass(frozen=True)
class RationalFn:
    """P/Q by coefficient lists a_0..a_n and b_0..b_m (constant first).

    Leading coefficients must be nonzero and P must not be identically
    zero (a zero numerator cannot produce a sandwich: ln(1+x) changes
    sign while 0 does not).
    """

    p_coeffs: tuple
    q_coeffs: tuple

    def __post_init__(self):
        # convert far above any downstream working precision so decimal
        # string coefficients stay faithful under doubled-precision checks
        with mp.workdps(max(mp.dps, 200)):
            p = tuple(+mpmath.mpmathify(c) for c in self.p_coeffs)
            q = tuple(+mpmath.mpmathify(c) for c in self.q_coeffs)
        object.__setattr__(self, "p_coeffs", p)
        object.__setattr__(self, "q_coeffs", q)
        if not p or not q:
            raise ValueError("coefficient lists must be non-empty")
        if all(c == 0 for c in p):
            raise ValueError("numerator polynomial must not be identically zero")
        if p[-1] == 0 or q[-1] == 0:
            raise ValueError("leading coefficients must be nonzero")

    def p_value(self, x: mpf) -> mpf:
        return _horner(self.p_coeffs, x)

    def q_value(self, x: mpf) -> mpf:
        return _horner(self.q_coeffs, x)


def _horner(coeffs: Sequence, x) -> mpf:
    """Horner's rule on raw libmp values, each acc*x + c rounded as mpf's operators round it."""
    prec, rnd = mp._prec_rounding
    xr = mpf.mpf_convert_rhs(x)  # an int, float or mpf: exact, as the operators read it
    if type(xr) is not tuple:  # a decimal string
        xr = mpmath.mpmathify(x)._mpf_
    acc = fzero
    for c in reversed(coeffs):
        acc = mpf_add(mpf_mul(acc, xr, prec, rnd), c._mpf_, prec, rnd)
    return mp.make_mpf(acc)


def expr_to_poly(e: Expr, p: Precision = DEFAULT_PRECISION):
    """Coefficient list of a polynomial expression (constant first).

    Supports the rational-arithmetic subset of the language: constants,
    the variable, +, -, *, non-negative integer powers, and division by
    a nonzero constant.  One pass over e's tape: each slot's degree
    comes from its row's degree rule, and its coefficients from its
    series rule at center 0 and that order, trailing zeros trimmed.
    Slots of degree above MAX_POLY_DEGREE raise ValueError before they
    are multiplied out.
    """
    out = [None]  # slot k's coefficients; slot 0, a leaf's child, is unused
    with mp.workdps(p.digits + GUARD_DIGITS):
        for _, op, node, i, j, _ in _tape(e).entries:
            if op.degree is None:  # a call row: Atan for atan
                raise ValueError(f"not a polynomial expression: {op.form.capitalize()}")
            kids = [out[k] for k in (i, j) if k]
            head = () if node is None else (node,)
            d = op.degree(*head, *(len(c) - 1 for c in kids))
            if d > MAX_POLY_DEGREE:
                raise ValueError(f"polynomial degree {d} exceeds the limit {MAX_POLY_DEGREE}")
            args = [(c + [mpf(0)] * d)[:d + 1] for c in kids] or [(mpf(0), d)]
            c = op.series(*head, *args)
            while len(c) > 1 and c[-1] == 0:
                c = c[:-1]
            out.append(c)
    return out[-1]


@dataclass(frozen=True)
class Witness:
    """A confirmed violation point of a proposed sandwich.

    side "log" means the ln(1+x) comparison failed; side "cb" means the
    corridor-bound comparison failed.  lhs and rhs are the two sides of
    the violated inequality as written in the region's chain
    (ln <= P/Q <= cb on [0, X]; ln >= P/Q >= cb on (-1, 0]), both
    recomputed at doubled precision.  margin > 1e-20 is guaranteed.
    """

    x: mpf
    side: str
    lhs: mpf
    rhs: mpf
    margin: mpf
    region: str

    def to_json_dict(self, digits: int = 50) -> dict:
        return {
            "x": decimal_text(self.x, digits),
            "side": self.side,
            "lhs": decimal_text(self.lhs, digits),
            "rhs": decimal_text(self.rhs, digits),
            "margin": decimal_text(self.margin, digits),
            "region": self.region,
        }

    def to_json(self, digits: int = 50) -> str:
        return json.dumps(self.to_json_dict(digits), indent=2)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the sampled rational-corridor feasibility problem.

    max_slack is the worst constraint slack of the returned
    coefficients when feasible (>= 0 up to arithmetic noise), and minus
    the phase-1 infeasibility optimum when infeasible (< 0; the total
    constraint violation that remains after minimization).
    """

    degree_p: int
    degree_q: int
    region: str
    lo: mpf
    hi: mpf
    sample_count: int
    status: str  # "feasible" | "infeasible"
    max_slack: mpf
    p_coeffs: Optional[tuple]
    q_coeffs: Optional[tuple]

    def to_json_dict(self, digits: int = 50) -> dict:
        dec = lambda v: decimal_text(v, digits)
        return {
            "degree_p": self.degree_p,
            "degree_q": self.degree_q,
            "region": self.region,
            "lo": dec(self.lo),
            "hi": dec(self.hi),
            "samples": self.sample_count,
            "status": self.status,
            "max_slack": dec(self.max_slack),
            "p_coeffs": [dec(c) for c in self.p_coeffs] if self.p_coeffs else None,
            "q_coeffs": [dec(c) for c in self.q_coeffs] if self.q_coeffs else None,
        }


# ---------------------------------------------------------------------------
# Grid checking
# ---------------------------------------------------------------------------


def _region_grid(region: str, xmax, delta, count: int, p: Precision):
    with mp.workdps(p.digits + GUARD_DIGITS):
        if region == "upper":
            xv = mpmath.mpmathify(xmax)
            if not xv > 0:
                raise ValueError("upper region needs xmax > 0")
            return linear_grid(0, xv, count, p)
        if region == "lower":
            d = mpmath.mpmathify(delta)
            if not (0 < d < 1):
                raise ValueError("lower region needs delta in (0, 1)")
            ts = linear_grid(mpf(-1) + d, 0, count, p)
            if not ts[0] > -1:
                raise ValueError(f"lower region: -1 + delta rounds to -1 at {p.digits} digits; "
                                 "raise --digits")
            return ts
    raise ValueError(f"unknown region {region!r}")


def _corridor(x: mpf, p: Precision) -> tuple:
    """The corridor's walls (bounds' ln(1+x), cb(x) = f(x)/sqrt(x+1)) at x > -1, f
    rounded to p.digits + GUARD_DIGITS; call it at that working precision."""
    return _ln1p(x), f_cb(x, Precision(p.digits + GUARD_DIGITS)) / mpmath.sqrt(x + 1)


def _check_q_sign(r: RationalFn, ts, p: Precision):
    sign = 0
    with mp.workdps(p.digits + GUARD_DIGITS):
        for t in ts:
            q = r.q_value(t)
            if q == 0:
                raise QVanishesError(f"Q vanishes at x = {mpmath.nstr(t, 10)}")
            s = 1 if q > 0 else -1
            if sign == 0:
                sign = s
            elif s != sign:
                raise QVanishesError("Q changes sign on the region")


def _violation_margins(r: RationalFn, x: mpf, region: str, p: Precision):
    """((side, lhs, rhs, margin) for each violated inequality at x), none
    where Q(x) = 0."""
    with mp.workdps(p.digits + GUARD_DIGITS):
        q = r.q_value(x)
        if q == 0:
            return []
        v = r.p_value(x) / q
        log_side, cb_side = _corridor(x, p)
        # the upper region requires ln(1+x) <= v <= cb, the lower the reverse
        sign = 1 if region == "upper" else -1
        out = (("log", log_side, v, sign * (log_side - v)),
               ("cb", v, cb_side, sign * (v - cb_side)))
        return [(s, +l, +rr, +m) for (s, l, rr, m) in out if m > 0]


def _witness_at(r: RationalFn, x: mpf, region: str, p: Precision) -> Optional[Witness]:
    """The witness at x re-checked at doubled precision, or None where
    Q(x) = 0 or no violation at working precision exceeds
    WITNESS_MARGIN / 2."""
    hits = _violation_margins(r, x, region, p)
    if not hits or max(h[3] for h in hits) <= WITNESS_MARGIN / 2:
        return None
    p2 = p.doubled()
    with mp.workdps(p2.digits):
        hits = [h for h in _violation_margins(r, x, region, p2) if h[3] > WITNESS_MARGIN]
        if hits:
            return Witness(+x, *max(hits, key=lambda h: h[3]), region)
    return None


def check_sandwich(
    r: RationalFn,
    region: str = "upper",
    xmax: Num = 10,
    delta: Num = "1e-6",
    grid: int = 1000,
    p: Precision = DEFAULT_PRECISION,
) -> Optional[Witness]:
    """Test the sandwich on a uniform grid of the region.

    Returns the first grid point whose violation survives
    doubled-precision confirmation, or None when the chain holds at
    every grid point.  Q must keep one sign on the grid.
    """
    ts = _region_grid(region, xmax, delta, grid, p)
    _check_q_sign(r, ts, p)
    for t in ts:
        w = _witness_at(r, t, region, p)
        if w is not None:
            return w
    return None


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------


def _contact_mismatch(r: RationalFn, p: Precision) -> bool:
    """True when P/Q fails to match ln(1+x) to 4th order at 0.

    P and Q are their own Taylor coefficients at 0, so their quotient's
    jet is one series division, rounded to p.digits as jet() rounds."""
    pad = lambda c: list(c[:5]) + [mpf(0)] * (5 - len(c))
    with mp.workdps(p.digits + GUARD_DIGITS + 4):
        coeffs = _s_div(pad(r.p_coeffs), pad(r.q_coeffs), lambda: "Q")
    with mp.workdps(p.digits):
        for k, want in enumerate(LN1P_CONTACT, start=1):
            d = +coeffs[k] * mpmath.factorial(k)
            if abs(d - want) > mpf("1e-6") * max(1, abs(mpf(want))):
                return True
    return False


def _probes(r: RationalFn, region: str, p: Precision):
    """Probe points of the witness search in order; iterate at
    p.digits + GUARD_DIGITS.  A broken contact at 0 shows up arbitrarily
    close to 0: halve toward it from 0.5, where the margin is still
    confirmable.  Then the asymptotic exit: double outward from 1 (the
    corridor walls grow like ln x and sqrt x), or halve toward -1, where
    the log wall diverges, interleaved with the approach to 0."""
    sign = 1 if region == "upper" else -1
    if _contact_mismatch(r, p):
        for i in range(2 * p.digits):
            yield sign * (mpf("0.5") / 2 ** i)
    for i in range(WITNESS_DOUBLINGS):
        if region == "upper":
            yield mpf(2) ** i
        else:
            yield mpf(-1) + mpf("0.5") / 2 ** i
            yield -mpf("0.5") / 2 ** i


@lru_cache(maxsize=16)
def _probe_grid(region: str, p: Precision) -> tuple:
    """find_witness's grid for Q's sign, built once per region and digits."""
    return tuple(_region_grid(region, 1, "1e-6", 64, p))


def find_witness(r: RationalFn, region: str = "upper",
                 p: Precision = DEFAULT_PRECISION) -> Witness:
    """Find a verified violation of the proposed sandwich.

    Walks the probe points of _probes, then checks the region on the
    grids of WITNESS_GRIDS.  Exhausting them raises BudgetError (raise
    the precision and retry).
    """
    _check_q_sign(r, _probe_grid(region, p), p)
    with mp.workdps(p.digits + GUARD_DIGITS):
        for x in _probes(r, region, p):
            w = _witness_at(r, x, region, p)
            if w is not None:
                return w
    for grid in WITNESS_GRIDS:
        w = check_sandwich(r, region, xmax=2 ** 16, delta="1e-9", grid=grid, p=p)
        if w is not None:
            return w
    raise BudgetError(
        "witness search exhausted its budget; raise the working precision and retry"
    )


# ---------------------------------------------------------------------------
# Compact-domain feasibility (phase 1 through the LP dual)
# ---------------------------------------------------------------------------


def fit_sandwich(
    n: int,
    m: int,
    region: str = "upper",
    xmax: Num = 1,
    delta: Num = "1e-6",
    samples: int = 0,
    p: Precision = DEFAULT_PRECISION,
    sample_points: Optional[Sequence] = None,
) -> FeasibilityReport:
    """Sampled feasibility of a degree-(n, m) rational inside the
    corridor on [0, xmax] (upper) or [-1+delta, 0] (lower).

    At each sample x_i the constraints are

        ln(1+x_i)*Q(x_i) <= P(x_i) <= cb(x_i)*Q(x_i)      (upper)

    (reversed for lower) with the normalization Q(x_i) >= 1.  Phase 1
    of the linear program in the coefficients is solved through its
    dual in extended precision (see _phase1_simplex), so the tableau
    has n+m+2 rows whatever the sample count.  Requires
    samples >= 4*(n+m+2).
    An explicit sample_points sequence overrides the uniform grid
    (useful for nested-sample experiments); the minimum-count rule then
    applies to its length.
    """
    if not (0 <= n <= 8 and 0 <= m <= 8):
        raise ValueError("degrees are limited to 0..8")
    min_samples = 4 * (n + m + 2)
    if sample_points is not None:
        sample_points = sorted(mpmath.mpmathify(x) for x in sample_points)
        samples = len(sample_points)
    elif samples == 0:
        samples = min_samples
    if samples < min_samples:
        raise ValueError(f"need at least {min_samples} samples for degrees ({n},{m})")
    xs = sample_points or _region_grid(region, xmax, delta, samples, p)
    wd = p.digits + GUARD_DIGITS
    with mp.workdps(wd):
        lo, hi = +xs[0], +xs[-1]
        lnv, cbv = [], []
        for x in xs:
            l, c = _corridor(x, p)
            if x != 0 and abs(c - l) < mpf(10) ** (2 - p.digits):
                raise PrecisionError(
                    f"corridor width at x = {mpmath.nstr(x, 8)} is below resolution; "
                    "raise the working precision"
                )
            lnv.append(l)
            cbv.append(c)

        # Constraint rows in ">= rhs" form over [a_0..a_n, b_0..b_m].
        # The homogeneous corridor rows are loosened by distinct
        # jitters ~1e-digits (Charnes-style perturbation).  In the dual
        # LP that _phase1_simplex solves, a jitter is the objective
        # coefficient of its row's weight: corridor rows that would tie
        # in pricing get distinct reduced costs, and the jitter terms
        # enter the infeasibility optimum, so every infeasible report's
        # max_slack bytes depend on them.  The jitter is ~40 digits
        # below the corridor widths at the samples, so it cannot
        # manufacture feasibility.
        nv = n + m + 2
        jitter = mpf(10) ** (-p.digits)
        rows, rhs = [], []
        for i, x in enumerate(xs):
            xp = [x ** j for j in range(max(n, m) + 1)]
            pa = xp[: n + 1]
            qb = xp[: m + 1]
            low, high = (lnv[i], cbv[i]) if region == "upper" else (cbv[i], lnv[i])
            rows.append(pa + [-low * b for b in qb])  # P - low*Q >= 0
            rhs.append(-jitter * (2 * i + 1))
            rows.append([-a for a in pa] + [high * b for b in qb])  # high*Q - P >= 0
            rhs.append(-jitter * (2 * i + 2))
            rows.append([mpf(0)] * (n + 1) + list(qb))  # Q >= 1
            rhs.append(mpf(1))

        status, y, infeas = _phase1_simplex(rows, rhs, nv, p)
        if status == "feasible":
            slack = min(_dot(row, y) - r0 for row, r0 in zip(rows, rhs))
        else:
            slack = -infeas
    return FeasibilityReport(
        degree_p=n,
        degree_q=m,
        region=region,
        lo=p.round(lo),
        hi=p.round(hi),
        sample_count=samples,
        status=status,
        max_slack=p.round(slack),
        p_coeffs=tuple(map(p.round, y[: n + 1])) if y else None,
        q_coeffs=tuple(map(p.round, y[n + 1 :])) if y else None,
    )


def _dot(row, y):
    return mpmath.fsum(a * b for a, b in zip(row, y))


def _size(v, prec):
    """An exact integer key that orders finite raw libmp values of at
    most prec bits by magnitude: zero first, then by the leading bit's
    exponent and the mantissa widened to prec bits."""
    _, man, exp, bc = v
    return (man != 0, exp + bc, man << (prec - bc))


def _entering(cost, at_upper, floor, prec, bland):
    """The columns j < len(at_upper) whose gain exceeds floor, the
    _size of the pricing tolerance, in the order the simplex enters
    them: the largest gain first and the lowest index on ties (Dantzig),
    or the lowest index first (Bland).  Raising a w_j at 0 gains
    cost[j]; lowering one at its bound 1 gains -cost[j]."""
    gains = [(size, j) for j, (v, up) in enumerate(zip(cost, at_upper))
             if v[0] == up and (size := _size(v, prec)) > floor]
    if not bland:
        gains.sort(key=itemgetter(0), reverse=True)  # stable: ties keep index order
    return [j for _, j in gains]


def _msub_row(row, f, prow, prec):
    """[v - f*w for v, w in zip(row, prow)] on finite raw libmp values of
    at most prec bits: each product rounded to prec bits, then each
    difference, to nearest with ties to even, as
    mpf_sub(v, mpf_mul(f, w, prec, 'n'), prec, 'n') rounds them.  Both
    roundings are of exact integer results, and each difference (and a
    product where v is zero) rounds through libmp's normalize, so each
    entry is libmp's tuple, bit for bit.  A zero product leaves v
    itself."""
    fsign, fman, fexp, _ = f
    if not fman:
        return list(row)
    out = []
    append = out.append
    for v, (wsign, wman, wexp, _) in zip(row, prow):
        if not wman:
            append(v)
            continue
        man = fman * wman
        exp = fexp + wexp
        vsign, vman, vexp, _ = v
        if not vman:
            append(normalize(fsign ^ wsign ^ 1, man, exp, man.bit_length(), prec, round_nearest))
            continue
        # the product rounded as normalize rounds it, inline: a call here
        # made a fit about 25% slower; its trailing zeros may stay
        n = man.bit_length() - prec
        if n > 0:
            t = man >> (n - 1)
            if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
                man = (t >> 1) + 1
            else:
                man = t >> 1
            exp += n
        # v - f*w as one signed integer times 2**min(vexp, exp)
        if fsign ^ wsign:
            man = -man
        if vsign:
            vman = -vman
        if vexp >= exp:
            man = (vman << (vexp - exp)) - man
        else:
            man = vman - (man << (exp - vexp))
            exp = vexp
        sign = 0
        if man < 0:
            sign, man = 1, -man
        append(normalize(sign, man, exp, man.bit_length(), prec, round_nearest))
    return out


def _phase1_simplex(rows, rhs, nv: int, p: Precision):
    """Phase 1 for {A y >= rhs} with y free, solved through its LP dual.

    Phase 1 minimizes the total violation of the rhs > 0 rows subject
    to the others.  Its dual, max rhs.w s.t. A^T w = 0, w >= 0 and
    w_i <= 1 where rhs_i > 0, starts feasible at w = 0 and has the same
    optimum.  The tableau is [A^T | I] with one row per unknown; the
    identity block carries B^-1, so y, the simplex multipliers, is minus
    its reduced costs.  w_i <= 1 is a bound flip in the ratio test.
    Dantzig pivots with a switch to Bland's rule after a degenerate
    streak guard against cycling.

    The tableau, costs, bounds, basic values and optimum are raw libmp
    values (mpf._mpf_) at the working precision, rounded to nearest, in
    the order the mpf expressions would evaluate.  pivot's row updates,
    nearly all of the work, go through _msub_row, which computes each
    v - f*w on the tuples' integers: the exact product rounded once, then
    the exact difference rounded once by libmp's normalize, in its
    canonical odd-mantissa form.  libmp's mpf_mul and mpf_sub also round
    their exact results once to nearest, so each entry is the tuple they
    give, bit for bit.
    Pricing and the starting basis compare magnitudes by _size's exact
    integer keys, so each pivot choice and tie is the one mpf_gt would
    make; the ratio test and the basic values call libmp itself.

    A bound flip leaves the reduced costs as they are and makes only its
    own column's gain negative, so the columns that gain, sorted once
    after each pivot, are the entering columns up to the next pivot, in
    order: a full pricing scan per pivot, not per iteration.

    Returns ("feasible", y, 0) or ("infeasible", None, optimum), as mpf.
    """
    wd = p.digits + GUARD_DIGITS
    with mp.workdps(wd):
        prec, rnd = mp._prec_rounding
        m_rows = len(rows)
        piv_tol = (mpf(10) ** (-(wd - 10)))._mpf_
        feas_tol = mpf(10) ** (-(p.digits - 10))
        floor = _size(piv_tol, prec)

        def raw(v):
            # an mpf of at most prec bits already is its rounding to prec
            if type(v) is mpf and v._mpf_[3] <= prec:
                return v._mpf_
            return mpf(v)._mpf_

        # columns m_rows.. are the identity block: fixed at 0, never entering
        tab = [[raw(row[k]) for row in rows] + [fone if k == j else fzero for j in range(nv)]
               for k in range(nv)]
        cost = [raw(r) for r in rhs] + [fzero] * nv  # reduced costs
        upper = [fone if r > 0 else finf for r in rhs] + [fzero] * nv
        at_upper = [False] * m_rows
        basis = [m_rows + k for k in range(nv)]
        value = [fzero] * nv  # of each row's basic variable
        zeros = [fzero] * (m_rows + nv)

        def pivot(r, j):
            # the pivot row times inv is 0 - (-inv)*v, one rounding each
            inv = mpf_div(fone, tab[r][j], prec, rnd)
            tab[r] = prow = _msub_row(zeros, mpf_neg(inv), tab[r], prec)
            for i in range(nv):
                f = tab[i][j]
                if i != r and f != fzero:
                    tab[i] = _msub_row(tab[i], f, prow, prec)
            cost[:] = _msub_row(cost, cost[j], prow, prec)
            basis[r] = j

        # Starting basis at w = 0: pivot each row on its largest entry
        # (the first, on ties).  A row with none above the tolerance
        # depends on earlier rows (repeated sample points) and keeps its
        # identity column at 0.
        for k in range(nv):
            size = [_size(v, prec) for v in tab[k][:m_rows]]
            j = max(range(m_rows), key=size.__getitem__)
            if size[j] > floor:
                pivot(k, j)

        optimum = fzero
        degenerate_streak = 0
        bland = False
        # a flip steps a full 1, so it never lengthens the degenerate
        # streak or switches to Bland's rule: one order serves until the
        # next pivot
        order = iter(_entering(cost, at_upper, floor, prec, bland))
        for _ in range(20000):
            enter = next(order, -1)
            if enter < 0:
                break
            # ratio test; ties keep the bound flip, then the lowest basis index
            down = at_upper[enter]
            theta, leave, to_upper = upper[enter], -1, False
            for i in range(nv):
                a = mpf_neg(tab[i][enter], prec, rnd) if down else tab[i][enter]
                if not mpf_gt(mpf_abs(a, prec, rnd), piv_tol):
                    continue
                if mpf_gt(a, fzero):
                    ratio = mpf_div(value[i], a, prec, rnd)
                else:
                    ratio = mpf_div(mpf_sub(upper[basis[i]], value[i], prec, rnd),
                                    mpf_neg(a, prec, rnd), prec, rnd)
                if mpf_lt(ratio, mpf_sub(theta, piv_tol, prec, rnd)) or (
                    leave >= 0
                    and not mpf_gt(mpf_abs(mpf_sub(ratio, theta, prec, rnd), prec, rnd), piv_tol)
                    and basis[i] < basis[leave]
                ):
                    theta, leave, to_upper = ratio, i, mpf_lt(a, fzero)
            if theta == finf:
                break  # unbounded dual ray: treat as stalled
            degenerate_streak = 0 if mpf_gt(theta, piv_tol) else degenerate_streak + 1
            bland = bland or degenerate_streak > 50
            step = mpf_neg(theta, prec, rnd) if down else theta
            optimum = mpf_add(optimum, mpf_mul(step, cost[enter], prec, rnd), prec, rnd)
            for i in range(nv):
                value[i] = mpf_sub(value[i], mpf_mul(step, tab[i][enter], prec, rnd), prec, rnd)
            if leave < 0:
                at_upper[enter] = not at_upper[enter]
                continue
            if basis[leave] < m_rows:
                at_upper[basis[leave]] = to_upper
            value[leave] = mpf_add(upper[enter] if at_upper[enter] else fzero, step, prec, rnd)
            at_upper[enter] = False
            pivot(leave, enter)
            order = iter(_entering(cost, at_upper, floor, prec, bland))
        else:
            raise BudgetError("simplex iteration guard exceeded")

        optimum = mp.make_mpf(optimum)
        if optimum <= feas_tol:
            return "feasible", [mp.make_mpf(mpf_neg(c, prec, rnd)) for c in cost[m_rows:]], mpf(0)
        return "infeasible", None, optimum
