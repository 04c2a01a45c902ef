"""Rational intermediation experiments.

No rational function P/Q can sit between ln(1+x) and the corridor
bound cb(x) = f(x)/sqrt(x+1) on all of [0, oo), nor between them (in
reversed order) on (-1, 0].  This module makes that impossibility
executable:

  * check_sandwich verifies a candidate on a finite grid and returns
    the first confirmed violation as a Witness;
  * find_witness hunts a guaranteed violation, guided by the mechanics
    of the impossibility proof: any candidate must match ln(1+x) to
    fourth order at 0 (the corridor gap is x^5/960 + O(x^6) there),
    every rational eventually exits the corridor as x -> oo (the upper
    wall grows like sqrt(x), the lower like ln x, a rational like a
    power of x), and near -1 the lower wall diverges;
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
from typing import Optional, Sequence

import mpmath
from mpmath import mp, mpf

from .bounds import f_cb, linear_grid, ln1p
from .errors import (
    BudgetError,
    DomainError,
    PrecisionError,
    QVanishesError,
)
from .exprjet import (
    Add,
    Const,
    DEFAULT_PRECISION,
    Div,
    Expr,
    GUARD_DIGITS,
    Mul,
    Neg,
    Num,
    PowInt,
    Precision,
    Sub,
    Var,
    decimal_text,
    jet,
)

REGIONS = ("upper", "lower")
WITNESS_MARGIN = mpf("1e-20")
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

    @property
    def degree_p(self) -> int:
        return len(self.p_coeffs) - 1

    @property
    def degree_q(self) -> int:
        return len(self.q_coeffs) - 1

    def p_value(self, x: mpf) -> mpf:
        return _horner(self.p_coeffs, x)

    def q_value(self, x: mpf) -> mpf:
        return _horner(self.q_coeffs, x)

    def value(self, x: mpf) -> mpf:
        q = self.q_value(x)
        if q == 0:
            raise DomainError("denominator vanishes at evaluation point")
        return self.p_value(x) / q

    def to_expr(self, var: str = "x") -> Expr:
        return Div(_poly_expr(self.p_coeffs, var), _poly_expr(self.q_coeffs, var))


def _horner(coeffs: Sequence, x: mpf) -> mpf:
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_expr(coeffs: Sequence, var: str) -> Expr:
    terms = None
    v = Var(var)
    for k, c in enumerate(coeffs):
        lit = Const(mpmath.nstr(c, mp.dps)) if c != 0 else None
        if lit is None:
            continue
        term = lit if k == 0 else Mul(lit, v if k == 1 else PowInt(v, k))
        terms = term if terms is None else Add(terms, term)
    return terms if terms is not None else Const("0")


def expr_to_poly(e: Expr, p: Precision = DEFAULT_PRECISION):
    """Coefficient list of a polynomial expression (constant first).

    Supports the rational-arithmetic subset of the language: constants,
    the variable, +, -, *, non-negative integer powers, and division by
    a nonzero constant.  Products and powers of degree above
    MAX_POLY_DEGREE raise ValueError before they are multiplied out.
    """

    def trim(c):
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return c

    def check_degree(d):
        if d > MAX_POLY_DEGREE:
            raise ValueError(f"polynomial degree {d} exceeds the limit {MAX_POLY_DEGREE}")

    def go(e):
        if isinstance(e, Const):
            with mp.workdps(p.digits + GUARD_DIGITS):
                return [+mp.pi if e.value == "pi" else mpf(e.value)]
        if isinstance(e, Var):
            return [mpf(0), mpf(1)]
        if isinstance(e, Neg):
            return [-c for c in go(e.arg)]
        if isinstance(e, (Add, Sub)):
            a, b = go(e.left), go(e.right)
            n = max(len(a), len(b))
            a += [mpf(0)] * (n - len(a))
            b += [mpf(0)] * (n - len(b))
            sign = 1 if isinstance(e, Add) else -1
            return [x + sign * y for x, y in zip(a, b)]
        if isinstance(e, Mul):
            a, b = trim(go(e.left)), trim(go(e.right))
            check_degree(len(a) + len(b) - 2)
            out = [mpf(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out
        if isinstance(e, Div):
            b = go(e.right)
            if len(trim(list(b))) != 1:
                raise ValueError("division by a non-constant is not polynomial")
            if b[0] == 0:
                raise DomainError("division by zero")
            return [c / b[0] for c in go(e.left)]
        if isinstance(e, PowInt):
            if e.exponent < 0:
                raise ValueError("negative powers are not polynomial")
            base = trim(go(e.base))
            check_degree(e.exponent * (len(base) - 1))
            if len(base) == 1:
                return [base[0] ** e.exponent]
            out = [mpf(1)]
            for _ in range(e.exponent):
                nxt = [mpf(0)] * (len(out) + len(base) - 1)
                for i, x in enumerate(out):
                    for j, y in enumerate(base):
                        nxt[i + j] += x * y
                out = nxt
            return out
        raise ValueError(f"not a polynomial expression: {type(e).__name__}")

    with mp.workdps(p.digits + GUARD_DIGITS):
        return trim(go(e))


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

    def to_json(self, digits: int = 50, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(digits), indent=indent)


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
            return linear_grid(mpf(-1) + d, 0, count, p)
    raise ValueError(f"unknown region {region!r}")


def _cb(x: mpf, p: Precision) -> mpf:
    """cb(x) = f(x)/sqrt(x+1), with f rounded to p.digits + GUARD_DIGITS;
    call it at that working precision."""
    return f_cb(x, Precision(p.digits + GUARD_DIGITS)) / mpmath.sqrt(x + 1)


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
    """((side, lhs, rhs, margin) for each violated inequality at x)."""
    with mp.workdps(p.digits + GUARD_DIGITS):
        v = r.value(x)
        log_side = ln1p(x, p)
        cb_side = _cb(x, p)
        out = []
        if region == "upper":
            if log_side - v > 0:
                out.append(("log", log_side, v, log_side - v))
            if v - cb_side > 0:
                out.append(("cb", v, cb_side, v - cb_side))
        else:
            if v - log_side > 0:
                out.append(("log", log_side, v, v - log_side))
            if cb_side - v > 0:
                out.append(("cb", v, cb_side, cb_side - v))
        return [(s, +l, +rr, +m) for (s, l, rr, m) in out]


def _confirm_witness(r: RationalFn, x: mpf, region: str, p: Precision) -> Optional[Witness]:
    """Re-check a candidate violation at doubled precision."""
    p2 = p.doubled()
    with mp.workdps(p2.digits):
        hits = _violation_margins(r, mpmath.mpmathify(x), region, p2)
        best = None
        for side, lhs, rhs, margin in hits:
            if margin > WITNESS_MARGIN and (best is None or margin > best.margin):
                best = Witness(
                    x=+mpmath.mpmathify(x),
                    side=side,
                    lhs=lhs,
                    rhs=rhs,
                    margin=margin,
                    region=region,
                )
        return best


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
        hits = _violation_margins(r, t, region, p)
        if hits and max(h[3] for h in hits) > WITNESS_MARGIN / 2:
            w = _confirm_witness(r, t, region, p)
            if w is not None:
                return w
    return None


# ---------------------------------------------------------------------------
# Guaranteed witness search
# ---------------------------------------------------------------------------


def _contact_mismatch(r: RationalFn, p: Precision) -> bool:
    """True when P/Q fails to match ln(1+x) to 4th order at 0."""
    j = jet(r.to_expr(), 0, 4, p)
    with mp.workdps(p.digits):
        for k, want in enumerate(LN1P_CONTACT, start=1):
            d = j.derivative(k)
            if abs(d - want) > mpf("1e-6") * max(1, abs(mpf(want))):
                return True
    return False


def find_witness(
    r: RationalFn,
    region: str = "upper",
    p: Precision = DEFAULT_PRECISION,
    max_doublings: int = 120,
) -> Witness:
    """Find a verified violation of the proposed sandwich.

    Strategy: (1) if the fourth-order contact at 0 fails, scan
    geometrically toward 0 where the corridor is thinner than the
    candidate's defect; (2) upper region: double x outward — the
    corridor walls grow like ln x and sqrt x, so any rational exits;
    (3) lower region: scan geometrically toward -1 (where the log wall
    diverges) interleaved with the approach to 0; (4) fall back to
    successively refined grids.  Exhausting the budget raises
    BudgetError (raise the precision and retry).
    """
    if region not in REGIONS:
        raise ValueError(f"unknown region {region!r}")
    probe = _region_grid(region, 1, "1e-6", 64, p)
    _check_q_sign(r, probe, p)

    def attempt(x) -> Optional[Witness]:
        with mp.workdps(p.digits + GUARD_DIGITS):
            xv = mpmath.mpmathify(x)
            if r.q_value(xv) == 0:
                return None
            hits = _violation_margins(r, xv, region, p)
        if hits:
            return _confirm_witness(r, xv, region, p)
        return None

    # Stage 1: broken contact at 0 shows up arbitrarily close to 0;
    # scan from moderate offsets down so the margin stays confirmable.
    if _contact_mismatch(r, p):
        with mp.workdps(p.digits + GUARD_DIGITS):
            for i in range(2 * p.digits):
                off = mpf("0.5") / 2 ** i
                xs = [off] if region == "upper" else [-off]
                for x in xs:
                    w = attempt(x)
                    if w is not None:
                        return w

    # Stage 2/3: region-specific asymptotic exits.
    with mp.workdps(p.digits + GUARD_DIGITS):
        if region == "upper":
            x = mpf(1)
            for _ in range(max_doublings):
                w = attempt(x)
                if w is not None:
                    return w
                x *= 2
        else:
            for i in range(max_doublings):
                for x in (mpf(-1) + mpf("0.5") / 2 ** i, -mpf("0.5") / 2 ** i):
                    w = attempt(x)
                    if w is not None:
                        return w

    # Stage 4: refined grids.
    grid = 1000
    while grid <= 10 ** 7:
        w = check_sandwich(r, region, xmax=2 ** 16, delta="1e-9", grid=grid, p=p)
        if w is not None:
            return w
        grid *= 10
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
        xs = sorted(mpmath.mpmathify(x) for x in sample_points)
        samples = len(xs)
    else:
        if samples == 0:
            samples = min_samples
        xs = _region_grid(region, xmax, delta, samples, p)
    if samples < min_samples:
        raise ValueError(f"need at least {min_samples} samples for degrees ({n},{m})")
    wd = p.digits + GUARD_DIGITS
    with mp.workdps(wd):
        lo, hi = +xs[0], +xs[-1]
        lnv, cbv = [], []
        for x in xs:
            l = mpmath.ln(1 + x)
            c = _cb(x, p)
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
            a = tuple(y[: n + 1])
            b = tuple(y[n + 1 :])
            slack = min(
                _horner_dot(row, y) - r0 for row, r0 in zip(rows, rhs)
            )
            with mp.workdps(p.digits):
                return FeasibilityReport(
                    degree_p=n,
                    degree_q=m,
                    region=region,
                    lo=+lo,
                    hi=+hi,
                    sample_count=samples,
                    status="feasible",
                    max_slack=+slack,
                    p_coeffs=tuple(+c for c in a),
                    q_coeffs=tuple(+c for c in b),
                )
        with mp.workdps(p.digits):
            return FeasibilityReport(
                degree_p=n,
                degree_q=m,
                region=region,
                lo=+lo,
                hi=+hi,
                sample_count=samples,
                status="infeasible",
                max_slack=+(-infeas),
                p_coeffs=None,
                q_coeffs=None,
            )


def _horner_dot(row, y):
    return mpmath.fsum(a * b for a, b in zip(row, y))


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

    Returns ("feasible", y, 0) or ("infeasible", None, optimum).
    """
    wd = p.digits + GUARD_DIGITS
    with mp.workdps(wd):
        zero = mpf(0)
        m_rows = len(rows)
        piv_tol = mpf(10) ** (-(wd - 10))
        feas_tol = mpf(10) ** (-(p.digits - 10))
        # columns m_rows.. are the identity block: fixed at 0, never entering
        tab = [[mpf(row[k]) for row in rows] + [mpf(k == j) for j in range(nv)]
               for k in range(nv)]
        cost = [mpf(r) for r in rhs] + [zero] * nv  # reduced costs
        upper = [mpf(1) if r > 0 else mpmath.inf for r in rhs] + [zero] * nv
        at_upper = [False] * m_rows
        basis = [m_rows + k for k in range(nv)]
        value = [zero] * nv  # of each row's basic variable

        def pivot(r, j):
            inv = 1 / tab[r][j]
            tab[r] = prow = [v * inv for v in tab[r]]
            for i in range(nv):
                f = tab[i][j]
                if i != r and f != zero:
                    tab[i] = [v - f * w for v, w in zip(tab[i], prow)]
            f = cost[j]
            cost[:] = [v - f * w for v, w in zip(cost, prow)]
            basis[r] = j

        # Starting basis at w = 0: pivot each row on its largest entry.  A
        # row with none above the tolerance depends on earlier rows
        # (repeated sample points) and keeps its identity column at 0.
        for k in range(nv):
            j = max(range(m_rows), key=lambda j: abs(tab[k][j]))
            if abs(tab[k][j]) > piv_tol:
                pivot(k, j)

        optimum = zero
        degenerate_streak = 0
        bland = False
        for _ in range(20000):
            # raising a w_j at 0 gains cost[j]; lowering one at 1 gains -cost[j]
            enter, best = -1, piv_tol
            for j in range(m_rows):
                gain = -cost[j] if at_upper[j] else cost[j]
                if gain > best:
                    enter, best = j, gain
                    if bland:
                        break
            if enter < 0:
                break
            # ratio test; ties keep the bound flip, then the lowest basis index
            sign = -1 if at_upper[enter] else 1
            theta, leave, to_upper = upper[enter], -1, False
            for i in range(nv):
                a = sign * tab[i][enter]
                if abs(a) <= piv_tol:
                    continue
                ratio = value[i] / a if a > 0 else (upper[basis[i]] - value[i]) / -a
                if ratio < theta - piv_tol or (
                    leave >= 0 and abs(ratio - theta) <= piv_tol and basis[i] < basis[leave]
                ):
                    theta, leave, to_upper = ratio, i, a < 0
            if theta == mpmath.inf:
                break  # unbounded dual ray: treat as stalled
            degenerate_streak = degenerate_streak + 1 if theta <= piv_tol else 0
            bland = bland or degenerate_streak > 50
            step = sign * theta
            optimum += step * cost[enter]
            for i in range(nv):
                value[i] -= step * tab[i][enter]
            if leave < 0:
                at_upper[enter] = not at_upper[enter]
                continue
            if basis[leave] < m_rows:
                at_upper[basis[leave]] = to_upper
            value[leave] = (upper[enter] if at_upper[enter] else zero) + step
            at_upper[enter] = False
            pivot(leave, enter)
        else:
            raise BudgetError("simplex iteration guard exceeded")

        if optimum <= feas_tol:
            return "feasible", [-c for c in cost[m_rows:]], zero
        return "infeasible", None, optimum
