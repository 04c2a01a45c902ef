"""Condition checking, certificates, and verified radii."""

import contextlib
import json
import math
import operator
import os
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from logbound import certifier, cli, exprjet
from logbound.certifier import (
    case3_constant,
    certify,
    check_case,
    equality_constant,
    find_radius,
    verify_pattern_on_grid,
)
from logbound.errors import BudgetError, LogboundError
from logbound.exprjet import Precision, jet, parse


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def poly_in_shifted_powers(derivs_at_1):
    """Expression text of sum_j d_j/j! * (t-1)^j from derivative values."""
    terms = []
    for j, d in enumerate(derivs_at_1, start=1):
        c = Fraction(int(d)) / Fraction(math.factorial(j))
        if c == 0:
            continue
        terms.append(f"({c.numerator}/{c.denominator})*(t-1)^{j}")
    return " + ".join(terms) if terms else "0*t"


def direct_pattern_check(fn_lo, fn_mid, fn_hi, r, points=2000, digits=100):
    """Grid check of fn_lo <= fn_mid (<= fn_hi) on [1, 1+r] and the
    reversed ordering on [1-r, 1], written directly in mpmath (kept
    independent of the certifier's own grid logic).  fn_hi=None checks
    the one-sided pattern only."""
    with mp.workdps(digits):
        rv = mpmath.mpmathify(r)
        slack = mpf(10) ** (10 - digits)
        for i in range(points):
            t = 1 - rv + 2 * rv * i / (points - 1)
            lo, mid = fn_lo(t), fn_mid(t)
            hi = fn_hi(t) if fn_hi is not None else None
            if t >= 1:
                if lo > mid + slack or (hi is not None and mid > hi + slack):
                    return False
            else:
                if lo < mid - slack or (hi is not None and mid < hi - slack):
                    return False
    return True


def two_t_ln_t(t):
    return 2 * t * mpmath.ln(t)


def H_direct(t):
    return (
        mp.pi
        + (4 + mp.pi) * (t * t - 1) / 2
        - 2 * (t * t + 1) * mpmath.atan(t)
    )


# ---------------------------------------------------------------------------
# condition constants
# ---------------------------------------------------------------------------


def test_equality_constants():
    assert equality_constant(1) == -2
    assert equality_constant(2) == -2
    assert equality_constant(3) == 2
    assert equality_constant(4) == -4
    assert equality_constant(5) == 12
    assert equality_constant(6) == -48


def test_case3_constants_both_modes():
    assert case3_constant(5) == 8
    assert case3_constant(5, paper_literal=True) == -12
    # derived mode equals -H^(j)(1) for a range of j
    from logbound.bounds import H_deriv

    for j in range(5, 9):
        assert abs(case3_constant(j) + H_deriv(j, 1)) < mpf("1e-40")


def test_condition_constant_memo_keys_are_complete():
    # digits and mode interleaved: a memo keyed on less than
    # (j, digits, mode) would hand back a value computed for another key
    keys = [(j, digits, literal) for j in range(2, certifier.MAX_N_CEILING + 2)
            for digits, literal in ((30, False), (50, True), (50, False), (30, True))]

    def values(j, digits, literal):
        p = Precision(digits)
        return case3_constant(j, p, literal)._mpf_, equality_constant(j, p)._mpf_

    cold = {}
    for key in keys:
        case3_constant.cache_clear()
        equality_constant.cache_clear()
        cold[key] = values(*key)
    assert {key: values(*key) for key in keys} == cold
    # the keys matter: at j = 40 the constants carry more than 30
    # significant digits, and from j = 5 on the two modes differ
    for literal in (False, True):
        assert all(a != b for a, b in zip(cold[40, 30, literal], cold[40, 50, literal]))
    assert cold[5, 50, False][0] != cold[5, 50, True][0]


def test_certify_computes_the_derivative_list_once(monkeypatch):
    # a derivative list reads the kept factorials once, for its order
    lookups = []
    factorials = exprjet._factorials
    monkeypatch.setattr(exprjet, "_factorials",
                        lambda order, prec: lookups.append((order, prec)) or factorials(order, prec))
    cert = certify(parse("H(t) - (1/30)*(t-1)^5"), "0.9", compute_radius=False)
    # every case of the search order was tried on one derivative list, of
    # the jet of order 14 at the default 50 digits
    assert cert.case == "none" and lookups == [(14, dps_to_prec(50))]


# ---------------------------------------------------------------------------
# check_case
# ---------------------------------------------------------------------------


def test_check_case_quadratic_case_I():
    cand = jet(parse("2*(t-1) + (t-1)^2"), 1, 7)
    reports = check_case(cand, "I", 1)
    assert all(r.passed for r in reports)
    strict = [r for r in reports if r.kind == "strict"]
    assert len(strict) == 1 and abs(strict[0].margin - 2) < mpf("1e-40")


def test_check_case_IV_of_refined_family():
    cand = jet(parse("H(t) - (1/60)*(t-1)^5"), 1, 7)
    reports = check_case(cand, "IV")
    assert all(r.passed for r in reports)
    d5 = [r for r in reports if r.label == "j=5 above -12"][0]
    assert abs(d5.actual - (-10)) < mpf("1e-40")  # -8 - 120/60

    cand = jet(parse("H(t) - (1/30)*(t-1)^5"), 1, 7)
    reports = check_case(cand, "IV")
    bad = [r for r in reports if not r.passed]
    assert len(bad) == 1 and bad[0].label == "j=5 above -12"
    assert abs(bad[0].actual - (-12)) < mpf("1e-40")  # boundary excluded


def test_check_case_III_direct():
    # H - c*(t-1)^7 satisfies case III with n = 6 in derived mode
    cand = jet(parse("H(t) - (1/10)*(t-1)^7"), 1, 8)
    reports = check_case(cand, "III", 6)
    assert all(r.passed for r in reports)
    # paper-literal constants break the j=5 equality for the same candidate
    reports = check_case(cand, "III", 6, paper_literal=True)
    assert not all(r.passed for r in reports)


def test_check_case_II_direct():
    # jet equal to 2t*ln(t) up to order 6 with a +1 bump at order 7
    derivs = [2, 2, -2, 4, -12, 48, -239]  # (2t ln t)^(7)(1) = -240
    cand = jet(parse(poly_in_shifted_powers(derivs)), 1, 8)
    reports = check_case(cand, "II", 6)
    assert all(r.passed for r in reports)


def test_check_case_validation():
    cand = jet(parse("2*(t-1)"), 1, 4)
    with pytest.raises(ValueError):
        check_case(cand, "I", 2)  # n must be odd
    with pytest.raises(ValueError):
        check_case(cand, "II", 4)  # n must be >= 6
    with pytest.raises(ValueError):
        check_case(cand, "I", 7)  # jet order too small
    with pytest.raises(ValueError):
        check_case(cand, "V")
    with pytest.raises(ValueError, match=r"^candidate jet must be centered at 1$"):
        check_case(jet(parse("2*(t-1)"), "0.5", 7), "IV")


def test_condition_targets_carry_the_working_precision():
    # -c_25 = -2*23! needs 79 bits; a target negated at the ambient 15
    # digits would keep only 53 of them
    cand = jet(parse("2*t*ln(t)"), 1, 27, Precision(50))
    reports = check_case(cand, "I", 25, Precision(50))
    target = next(r.target for r in reports if r.label == "j=25 equality")
    assert target == -2 * math.factorial(23)


@pytest.mark.parametrize("expr, case, n", [
    ("H(t) - (1/60)*(t-1)^5", "IV", None),
    ("H(t) - (1/30)*(t-1)^5", "IV", None),
    ("H(t) - (1/10)*(t-1)^7", "III", 6),
    ("H(t)", "III", 6),
    ("2*(t-1) + (t-1)^2", "I", 1),
])
def test_a_finer_jet_is_checked_at_the_working_digits(expr, case, n):
    # an 80-digit jet checked at 50 digits has its derivatives rounded to
    # 50 digits first, and passes or fails as the 50-digit jet does
    fine = jet(parse(expr), 1, 8, Precision(80))
    coarse = jet(parse(expr), 1, 8, Precision(50))
    assert (fine.digits, coarse.digits) == (80, 50)
    got, want = (check_case(c, case, n, Precision(50)) for c in (fine, coarse))
    assert [r.passed for r in got] == [r.passed for r in want]
    assert [r.label for r in got] == [r.label for r in want]


def test_condition_tolerance_scales_with_the_target():
    # the jet's error is relative: the j = 24 equality misses its target
    # of about 2.2e21 by about 3e-30, far above the absolute tolerance
    # 1e-40 and far below 1e-40 * |target|
    cert = certify(parse("2*t*ln(t) + (t-1)^25"), "0.5", max_n=23)
    assert (cert.case, cert.n, cert.radius) == ("I", 23, mpf("0.5"))
    j24 = next(r for r in cert.conditions if r.label == "j=24 equality")
    assert abs(j24.margin) > certifier.condition_tolerance() and j24.passed


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _check_case_certificate(e, max_n, p, paper_literal):
    """certify's case, n, reports and nearest miss without a radius, by
    check_case on every attempt: the first that passes, else the fewest
    failed conditions, then the smallest largest |margin|, the first on
    a tie."""
    cand = jet(e, 1, max(max_n + 2, certifier.DEFAULT_JET_ORDER), p)
    best = None
    for case, n in certifier._attempts(max_n):
        reports = check_case(cand, case, n, p, paper_literal)
        failed = [r for r in reports if not r.passed]
        if not failed:
            return case, n, reports, None
        key = (len(failed), max(abs(r.margin) for r in failed))
        if best is None or key < best[0]:
            best = (key, f"case {case}" + (f" n={n}" if n is not None else ""), reports)
    return "none", None, best[2], best[1]


def _report_bits(r):
    return r.label, r.kind, r.target._mpf_, r.actual._mpf_, r.margin._mpf_, r.passed


@pytest.mark.parametrize("expr", [
    "H(t) - 0.0513*(t-1)^5", "H(t) - 0.5*(t-1)^5", "H(t) - 2*(t-1)^5",  # family B
    "H(t) - 0.0123*(t-1)^5", "2*t*ln(t) + 0.123*(t-1)^3", "H(t) - (1/10)*(t-1)^7",
    "2*t*ln(t) + (t-1)^13", "2*t*ln(t) + (t-1)^7", "2*t*ln(t) + (t-1)^8", "H(t)", "t",
    "1/(t+1) - 0.5", "2*t*ln(t) + (t-1)^3 + 0.001",  # the last fails only P(1) = 0
])
@pytest.mark.parametrize("max_n, digits", [(12, 50), (5, 15), (9, 30), (14, 100), (40, 15),
                                          (40, 100)])
@pytest.mark.parametrize("paper_literal", [False, True])
def test_certify_reports_those_of_check_case(expr, max_n, digits, paper_literal):
    p = Precision(digits)
    cert = certify(parse(expr), "0.5", max_n, p, paper_literal, compute_radius=False)
    case, n, reports, miss = _check_case_certificate(parse(expr), max_n, p, paper_literal)
    assert (cert.case, cert.n, cert.nearest_miss) == (case, n, miss)
    assert [_report_bits(r) for r in cert.conditions] == [_report_bits(r) for r in reports]



def test_certify_refined_family_case_IV():
    cert = certify(parse("H(t) - (1/60)*(t-1)^5"), "0.9")
    assert cert.case == "IV" and cert.direction_pair == "drr"
    assert cert.radius is not None and cert.radius > mpf("0.3")


def test_certify_quadratic_case_I():
    cert = certify(parse("2*(t-1) + (t-1)^2"), "0.5")
    assert (cert.case, cert.n) == ("I", 1)
    assert cert.direction_pair == "dr"
    assert cert.radius == mpf("0.5")  # pattern holds globally, capped at a


def test_certify_boundary_curves_have_no_certificate():
    for eps in ("1/30", "1/20"):
        cert = certify(parse(f"H(t) - ({eps})*(t-1)^5"), "0.9", compute_radius=False)
        assert cert.case == "none"
        assert cert.nearest_miss is not None
        assert any(not r.passed for r in cert.conditions)


def test_certify_H_itself_is_case_I_n3():
    # H satisfies the case-I conditions at n = 3: its derivatives match
    # 2t*ln(t) through order 4 and G^(5)(1) = -8 + 12 = 4 > 0.  (It is
    # the boundary object for the two-sided cases: every case-IV/III
    # strict margin is exactly 0.)
    cert = certify(parse("H(t)"), "0.9")
    assert (cert.case, cert.n) == ("I", 3)
    reports = check_case(jet(parse("H(t)"), 1, 7), "IV")
    bad = [r for r in reports if not r.passed]
    assert len(bad) == 1 and abs(bad[0].margin) < mpf("1e-40")  # exactly boundary
    reports = check_case(jet(parse("H(t)"), 1, 8), "III", 6)
    bad = [r for r in reports if not r.passed]
    assert len(bad) == 1 and bad[0].kind == "strict" and abs(bad[0].margin) < mpf("1e-40")


def test_certify_monotone_in_eps():
    # once case IV passes for some eps, every larger eps below 1/30 passes
    assert certify(parse("H(t) - (1/120)*(t-1)^5"), "0.9", compute_radius=False).case == "IV"
    for eps in ("1/90", "1/60", "1/45", "1/35"):
        cert = certify(parse(f"H(t) - ({eps})*(t-1)^5"), "0.9", compute_radius=False)
        assert cert.case == "IV"


def test_certify_case_I_family_all_odd_n():
    # jets matching the equality chain exactly with strict slack +1
    for n in (1, 3, 5, 7):
        derivs = [2]  # j = 1
        for j in range(2, n + 2):
            derivs.append(-equality_constant(j))
        derivs.append(-equality_constant(n + 2) + 1)
        derivs = [int(d) for d in derivs]
        expr = parse(poly_in_shifted_powers(derivs))
        cand = jet(expr, 1, n + 2)
        assert all(r.passed for r in check_case(cand, "I", n))
        # search order tries case IV first; the n = 3 member lands there
        # (its fifth derivative -11 falls inside the open interval)
        cert = certify(expr, "0.8", compute_radius=False)
        if n == 3:
            assert cert.case == "IV"
        else:
            assert (cert.case, cert.n) == ("I", n)


def test_certificate_json_schema():
    cert = certify(parse("H(t) - (1/60)*(t-1)^5"), "0.9")
    d = cert.to_json_dict()
    assert set(d) == {"case", "n", "conditions", "radius", "precision_digits", "mode"}
    assert d["case"] == "IV" and d["n"] is None and d["mode"] == "derived"
    assert isinstance(d["radius"], str)
    for c in d["conditions"]:
        assert set(c) == {"label", "target", "actual", "margin", "pass"}
        assert isinstance(c["margin"], str) and isinstance(c["pass"], bool)


# ---------------------------------------------------------------------------
# find_radius
# ---------------------------------------------------------------------------


def test_find_radius_requires_certificate():
    cert = certify(parse("H(t) - (1/30)*(t-1)^5"), "0.9", compute_radius=False)
    with pytest.raises(ValueError):
        find_radius(parse("H(t) - (1/30)*(t-1)^5"), cert, a="0.9")


# below 1 exactly, but 1 once rounded to 50 digits: a radius of it used
# to print as 1.0, a claim on [0, 2]
with mp.workdps(65):
    _ROUNDS_TO_1 = 1 - mpf(2) ** -200
_OUTSIDE = ["1.5", "1", "0", "-0.5", _ROUNDS_TO_1]
_OUTSIDE_IDS = ["1.5", "1", "0", "-0.5", "1-2^-200"]


@pytest.mark.parametrize("a", _OUTSIDE, ids=_OUTSIDE_IDS)
def test_find_radius_rejects_a_outside_the_domain(a):
    # a = 1.5 used to reach ln(-0.125) and a = 1 to return 0.999999999
    e = parse("2*t*ln(t) + 0.05*(t-1)^3")
    cert = certify(e, "0.9", compute_radius=False)
    with pytest.raises(ValueError, match=r"^half-width a must lie in \(0, 1\)$"):
        find_radius(e, cert, a=a)


@pytest.mark.parametrize("a", _OUTSIDE, ids=_OUTSIDE_IDS)
def test_certify_rejects_a_outside_the_domain_before_the_jet(monkeypatch, a):
    walk = mock.Mock(side_effect=AssertionError("the jet was walked"))
    monkeypatch.setattr(certifier, "jet", walk)
    with pytest.raises(ValueError, match=r"^half-width a must lie in \(0, 1\)$"):
        certify(parse("2*t*ln(t) + 0.05*(t-1)^3"), a, compute_radius=False)
    walk.assert_not_called()


@pytest.mark.parametrize("r", _OUTSIDE, ids=_OUTSIDE_IDS)
def test_grid_rejects_r_outside_the_domain(r):
    # r = 1.5 used to return t = -0.5, outside the domain, as a violation
    with pytest.raises(ValueError, match=r"^radius r must lie in \(0, 1\)$"):
        verify_pattern_on_grid(parse("2*t*ln(t) + 0.05*(t-1)^3"), r, False)


def test_a_is_read_at_the_working_digits():
    # 17 nines is 1 at 15 digits, where the candidate's a used to be read
    cert = certify(parse("2*t*ln(t) + 0.05*(t-1)^3"), "0.99999999999999999")
    assert cert.case == "I" and cert.radius < 1
    assert exprjet.decimal_text(cert.radius, 50) == "0.99999999999999999"
    with pytest.raises(ValueError, match=r"^half-width a must lie in \(0, 1\)$"):
        certify(parse("2*t*ln(t) + 0.05*(t-1)^3"), _ROUNDS_TO_1)


def test_find_radius_refined_family_matches_sign_change_oracle():
    expr = parse("H(t) - (1/60)*(t-1)^5")
    cert = certify(expr, "0.9", compute_radius=False)
    r = find_radius(expr, cert, a="0.9")
    assert mpf("0.3") <= r <= mpf("0.9")
    # bisection oracle: the first crossing of G(t) = P - 2t ln t sits
    # between 1.5 and 1.6 (direct evaluation)
    with mp.workdps(60):
        eps = mpf(1) / 60

        def G(t):
            return H_direct(t) - eps * (t - 1) ** 5 - two_t_ln_t(t)

        assert G(mpf("1.5")) > 0 > G(mpf("1.6"))
        assert mpf("0.5") < r < mpf("0.6")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1 (exact jets at t = 1): the j = 2 margin 2e-45 "
                   "passes under the tolerance, and case IV is certified")
def test_a_margin_below_the_tolerance_is_not_certified():
    # P - H = 1e-45*(t-1)^2 - (t-1)^5/60 is positive on (1, 1 + 3.9e-15),
    # so "P <= H on [1, 1+r]" is false for every r
    cert = certify(parse("H(t) - (1/60)*(t-1)^5 + (1/10)^45*(t-1)^2"), "0.9",
                   compute_radius=False)
    assert cert.case == "none"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2 (a proved radius): the grid and the scan sample "
                   "past the dip, and the radius is 0.9")
def test_a_dip_between_samples_bounds_the_radius():
    # P - 2t*ln(t) is about -5043 at t = 1.2345678, negative on an
    # interval about 4e-28 wide there
    e = parse("2*t*ln(t) + (t-1)^3 - (t-1)^10*(1/10)^50/((t-1.2345678)^2 + (1/10)^60)")
    cert = certify(e, "0.9")
    assert cert.case == "I" and cert.radius < mpf("0.2345678")


def test_radius_confirmation_is_budgeted(monkeypatch):
    # every grid rejects its candidate r at t = 1 + r/2, so each rejection
    # about halves the candidate and only the budget ends the loop
    calls = []

    def rejecting(e, r, drr, p):
        calls.append(r)
        return 1 + r / 2

    monkeypatch.setattr(certifier, "verify_pattern_on_grid", rejecting)
    expr = parse("H(t) - (1/60)*(t-1)^5")
    cert = certify(expr, "0.9", compute_radius=False)
    with pytest.raises(BudgetError):
        find_radius(expr, cert, a="0.9")
    assert len(calls) == 4


def test_certified_radii_reverify_independently():
    for den in (120, 60, 40):
        cert = certify(parse(f"H(t) - (1/{den})*(t-1)^5"), "0.9")

        def mid(t, d=den):
            return H_direct(t) - (t - 1) ** 5 / d

        assert direct_pattern_check(two_t_ln_t, mid, H_direct, cert.radius)


def test_case_I_radius_verifies_one_sided_pattern():
    cert = certify(parse("2*(t-1) + (t-1)^2"), "0.5")

    def P(t):
        return 2 * (t - 1) + (t - 1) ** 2

    assert direct_pattern_check(two_t_ln_t, P, None, cert.radius)


# ---------------------------------------------------------------------------
# binary64 and Taylor-model decisions of the radius search against the
# full-precision walk
# ---------------------------------------------------------------------------


class Decisions(list):
    """(t, fast verdict, walk verdict) per decided point; runs holds
    (first t, last t, verdict) per range of a run, and blocked counts
    the points that blocks decided."""

    def __init__(self):
        super().__init__()
        self.runs = []
        self.blocked = 0


@pytest.fixture
def decisions(monkeypatch):
    """Every point the radius search decides from here on, as (t, the
    verdict of the binary64 balls or the Taylor model, or None where
    neither can decide, the verdict of the walk at digits+GUARD_DIGITS).
    A range of one adds its point; a range that decides a run adds each
    of the run's points as (t, its verdict, the walk's verdict), and a
    block each point it decides."""
    seen = Decisions()
    search = certifier._Search
    range_verdict, float_verdicts = search.range_verdict, search.float_verdicts
    first_broken = search.first_broken
    runs = []  # [point, run, start of its next block] per first_broken call in progress

    def walk(s, t):
        return search.walk_verdict(s, t, t >= 1)

    def recording_run(s, point, run, *args):
        runs.append([point, run, 0])
        try:
            return first_broken(s, point, run, *args)
        finally:
            runs.pop()

    def recording_range(s, t0, t1, right):
        verdict = range_verdict(s, t0, t1, right)
        if t1 is t0:
            seen.append((t0, verdict, walk(s, t0)))
            return verdict
        point, run, _ = runs[-1]
        assert (t0, t1) == (point(run[0]), point(run[-1]))
        seen.runs.append((t0, t1, verdict))
        if verdict is not None:
            seen.extend((t, verdict, walk(s, t)) for t in map(point, run))
        return verdict

    def recording_blocks(s, xs, err, right):
        verdicts = float_verdicts(s, xs, err, right)
        point, run, start = runs[-1]
        block = run[start:start + certifier.BLOCK]
        runs[-1][2] += certifier.BLOCK
        assert (xs, err) == point.balls(block)
        for t, verdict in zip(map(point, block), verdicts):
            if verdict is not None:
                assert (t >= 1) == right
                seen.append((t, verdict, walk(s, t)))
                seen.blocked += 1
        return verdicts

    monkeypatch.setattr(search, "first_broken", recording_run)
    monkeypatch.setattr(search, "range_verdict", recording_range)
    monkeypatch.setattr(search, "float_verdicts", recording_blocks)
    return seen


def _mismatches(seen):
    return [(t, fast, walk) for t, fast, walk in seen if fast is not None and fast != walk]


GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_cli.json")
with open(GOLDEN_PATH) as fh:
    GOLDEN_CERTIFY = [g["argv"] for g in json.load(fh) if g["argv"][0] in ("certify", "radius")]


@pytest.mark.parametrize("argv", GOLDEN_CERTIFY, ids=" ".join)
def test_golden_radius_decisions_match_the_walk(decisions, capsys, argv):
    cli.main(argv)
    assert _mismatches(decisions) == []


# The benchmark's certify families at several eps, c and a (A: case IV
# with a radius, B: no case, C: case I), then a candidate whose binary64
# walk overflows, one whose (t-1)^99 passes through the subnormal
# range, and one with sin.
FILTER_CASES = [
    ("H(t) - 0.002*(t-1)^5", "0.9"),
    ("H(t) - 0.0167*(t-1)^5", "0.7"),
    ("H(t) - 0.032*(t-1)^5", "0.5"),
    ("H(t) - 0.05*(t-1)^5", "0.9"),
    ("H(t) - 2.0*(t-1)^5", "0.5"),
    ("2*t*ln(t) + 0.01*(t-1)^3", "0.5"),
    ("2*t*ln(t) + 1.000*(t-1)^3", "0.9"),
    ("2*t*ln(t) + 5.0*(t-1)^3", "0.7"),
    ("2*t*ln(t) + (t-1)^3 + (t-1)^3*(10^200*(t-1))^2", "0.5"),
    ("2*t*ln(t) + (t-1)^3 + (t-1)^99", "0.9"),
    ("H(t) - 0.01*(t-1)^5 + sin(1000*(t-1))^2*(t-1)^8", "0.9"),
]


@pytest.mark.parametrize("expr, a", FILTER_CASES, ids=[c[0] for c in FILTER_CASES])
def test_binary64_decisions_match_the_walk(decisions, expr, a):
    cert = certify(parse(expr), a)
    assert _mismatches(decisions) == []
    decided = sum(fast is not None for _, fast, _ in decisions)
    if cert.radius is None:  # family B: no case, no search
        assert decisions == []
    elif "10^200" in expr:  # every binary64 walk overflows and falls back
        assert cert.radius == mpf(a) and decisions and decided == 0
    else:
        assert decided > len(decisions) / 4


def test_binary64_decisions_differ_when_a_ball_rule_lies(decisions, monkeypatch):
    # atan's ball shifted by 1/2 with no error moves H by about 2: the
    # decisions of G flip, and the comparison above must see it
    row = exprjet._OPS["atan"]
    monkeypatch.setitem(exprjet._OPS, "atan", row._replace(
        ball=lambda a: (row.ball(a)[0] + 0.5, 0.0)))
    with contextlib.suppress(LogboundError):
        certify(parse("H(t) - (1/60)*(t-1)^5"), "0.9")
    assert _mismatches(decisions)


def test_gap_tape_computes_the_shared_H_once_per_point(monkeypatch):
    # P's H(t) and the tape's own H(t) are equal trees, so they share one
    # slot: one atan per walk, in binary64 and at full precision alike,
    # the gap rows G = P - 2t*ln(t) and Q = P - H included
    row = exprjet._OPS["atan"]
    calls = []
    monkeypatch.setitem(exprjet._OPS, "atan", row._replace(
        point=lambda a: calls.append("point") or row.point(a),
        ball=lambda a: calls.append("ball") or row.ball(a)))
    tape = certifier._search(parse("H(x) - 0.01*(x-1)^5"), True, 50).tape
    with mp.workdps(65):
        p, two_t_ln_t, h, g, q = tape.point(mpf("1.25"))
        assert p == h - mpf("0.01") * mpf("0.25") ** 5
        assert (g, q) == (p - two_t_ln_t, p - h)
    tape.ball(1.25, 0.0)
    assert calls == ["point", "ball"]


# ---------------------------------------------------------------------------
# the Taylor-model tier: points near t = 1
# ---------------------------------------------------------------------------

# The A (case IV, two gaps) and C (case I, one gap) families of
# FILTER_CASES, whose gaps vanish to fifth and third order at t = 1.
NEAR_CASES = [c for c in FILTER_CASES if c[0] in (
    "H(t) - 0.002*(t-1)^5", "H(t) - 0.0167*(t-1)^5", "H(t) - 0.032*(t-1)^5",
    "2*t*ln(t) + 0.01*(t-1)^3", "2*t*ln(t) + 1.000*(t-1)^3", "2*t*ln(t) + 5.0*(t-1)^3")]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(NEAR_CASES),
       st.one_of(st.floats(-certifier.MODEL_RADIUS, certifier.MODEL_RADIUS),
                 st.sampled_from([1e-7, -1e-7, certifier.MODEL_RADIUS])))
def test_taylor_model_encloses_the_gaps(case, delta):
    expr, _ = case
    search = certifier._search(parse(expr), expr.startswith("H"), 50)
    with mp.workdps(120):
        t = 1 + mpf(delta)
        roots = search.tape.point(t)
        p, two_t_ln_t, *h = roots[:-search.gaps]
        gaps = [p - two_t_ln_t] + [p - v for v in h]
        assert roots[-search.gaps:] == gaps
        balls = search.model_box(t, t)
        assert len(balls) == len(gaps) == search.gaps
        for (v, e), gap in zip(balls, gaps):
            assert abs(gap - v) <= e


# |t - 1| of a run's endpoints, from below any first scan point on
_MAGNITUDES = st.one_of(st.floats(1e-30, certifier.MODEL_RADIUS),
                        st.sampled_from([1e-7, certifier.MODEL_RADIUS]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(NEAR_CASES), st.sampled_from([1, -1]), _MAGNITUDES, _MAGNITUDES,
       st.lists(st.integers(-9, 9), min_size=2, max_size=2),
       st.lists(st.fractions(0, 1, max_denominator=10**6), max_size=4))
def test_box_encloses_the_gaps_over_a_run(case, side, m0, m1, nudges, fractions):
    expr, _ = case
    search = certifier._search(parse(expr), expr.startswith("H"), 50)
    tape = search.tape
    with mp.workdps(65):
        # endpoints off the floats by up to 9e-17 of t - 1, as the searches' points are
        t0, t1 = (1 + side * mpf(m) * (1 + mpf(j) / 10**17) for m, j in zip((m0, m1), nudges))
        ts = [t0, t1] + [t0 + (t1 - t0) * mpf(f.numerator) / f.denominator for f in fractions]
    boxes = search.model_box(t0, t1)
    # the one ball that range_verdict walks over the run
    with mock.patch.object(tape, "ball", wraps=tape.ball) as walked:
        search.range_verdict(t0, t1, side > 0)
    (x, half), = [c.args for c in walked.call_args_list]
    pads = search.pads(tape.ball(x, half)[:-search.gaps])
    assert len(boxes) == len(pads) == search.gaps == (2 if expr.startswith("H") else 1)
    for t in ts:
        with mp.workdps(120):
            p, two_t_ln_t, *h = tape.point(t)[:-search.gaps]
            gaps = [p - two_t_ln_t] + [p - v for v in h]
        for (v, e), gap in zip(boxes, gaps):
            assert abs(gap - v) <= e
        tf = float(t)
        # the run's input ball holds the point's, so its pads dominate
        assert abs(_exact(tf) - _exact(x)) + _exact(2 * exprjet._U * abs(tf)) <= _exact(half)
        point_pads = search.pads(tape.ball(tf, 2 * exprjet._U * abs(tf))[:-search.gaps])
        assert all(run >= one for run, one in zip(pads, point_pads))


def test_box_covers_the_rounding_of_each_end():
    # a model of d^8 with exact coefficients, no remainder and no rounding
    # allowance: at ends t - 1 off the floats, x^8 can differ from the
    # float's 8th power by up to 8 roundings of x, and only the widening
    # of the ends covers that
    rows = tuple((float(k == 8), 0.0) for k in range(certifier.MODEL_ORDER + 1))
    search = certifier._search(parse("2*t*ln(t) + (t-1)^3"), False, 50)
    search.model = ((rows, 0.0),)
    with mp.workdps(65):
        for j in range(1, 60):
            t = 1 + mpf(j) / 3 * mpf("1e-4")
            (v, e), = search.model_box(t, t)
            assert abs((t - 1) ** 8 - v) <= e


@pytest.mark.parametrize("expr, a", NEAR_CASES, ids=[c[0] for c in NEAR_CASES])
def test_no_point_near_1_reaches_the_walk(decisions, expr, a):
    # points near 1 decided by boxes count with those decided one by one
    certify(parse(expr), a)
    near = [fast for t, fast, _ in decisions if abs(t - 1) <= certifier.MODEL_RADIUS]
    assert len(near) > 100 and None not in near
    assert _mismatches(decisions) == []
    assert any(verdict is False for *_, verdict in decisions.runs)


def test_taylor_model_decisions_differ_when_a_series_ball_rule_lies(decisions, monkeypatch):
    # atan's series ball at the center shifted by 1/2 with no error moves
    # the model's H(1) by -2: near 1 its G and Q flip, and the comparison
    # with the walk must see it
    call = exprjet._MPBall.call

    def lying(name, b):
        c = call(name, b)
        return exprjet._MPBall(c.v + mpf("0.5")) if name == "atan" else c

    monkeypatch.setattr(exprjet._MPBall, "call", lying)
    with contextlib.suppress(LogboundError):
        certify(parse("H(t) - (1/60)*(t-1)^5"), "0.9")
    bad = _mismatches(decisions)
    assert bad and all(abs(t - 1) <= certifier.MODEL_RADIUS for t, _, _ in bad)


@pytest.mark.parametrize("expr, a", [("H(t) - 0.0167*(t-1)^5", "0.7"),
                                     ("2*t*ln(t) + 0.01*(t-1)^3", "0.5")])
def test_radius_without_a_taylor_model_is_the_same(monkeypatch, expr, a):
    # the model's build is the one _MPBall walk at t = 1
    builds = []
    ball = certifier._MPBall
    monkeypatch.setattr(certifier, "_MPBall", lambda v: builds.append(mp.dps) or ball(v))
    e = parse(expr)
    kept = certify(e, a)
    # built once for the search, at digits+GUARD_DIGITS, and kept on it
    assert builds == [65] and certifier._search(e, kept.case != "I", 50).model

    def failing(v):
        raise ArithmeticError("a pole in the box")

    monkeypatch.setattr(certifier, "_MPBall", failing)
    e = parse(expr)
    assert certify(e, a).radius == kept.radius
    assert certifier._search(e, kept.case != "I", 50).model is None


def _model_walks(tape, digits):
    """Each root's coefficients of _Search.model's two series walks at
    t = 1, the mpf balls and the binary64 box, bit for bit, or the
    exception a walk raised."""
    def bits(coeffs):
        return [[_bits(b) for b in c] for c in coeffs]
    try:
        with mp.workdps(digits + exprjet.GUARD_DIGITS):
            balls = bits(tape.series(exprjet._MPBall(mpf(1)), certifier.MODEL_ORDER))
            box = bits(tape.series(exprjet._F64Ball(1.0, certifier.MODEL_RADIUS
                                                    * exprjet._GROW ** 2),
                                   certifier.MODEL_ORDER + 1))
    except (ArithmeticError, ValueError, LogboundError) as exc:
        return type(exc)
    return balls, box


# family A, family C, H spelled as f(t^2 - 1), and a candidate with none
# of the references' subtrees
MODEL_CANDIDATES = ("H(t) - 0.0123*(t-1)^5", "2*t*ln(t) + 0.123*(t-1)^3",
                    "f(t^2 - 1) - (1/60)*(t-1)^5", "2*(t-1) + (t-1)^2")


@pytest.mark.parametrize("expr", MODEL_CANDIDATES)
@pytest.mark.parametrize("digits", [15, 50, 100])
def test_taylor_model_has_the_bits_of_a_walk_without_references(expr, digits):
    # each pattern's search on a new tree, with nothing kept (cold), then
    # with the references' slots kept (warm): every root's ball and box
    # coefficients, the gaps' among them, and the model are those of the
    # search tape with no references
    for drr in (False, True):
        exprjet._REFERENCE_SLOTS.clear()
        cold = certifier._Search(parse(expr), drr, digits)
        cold_walks = _model_walks(cold.tape, digits)
        with mp.workdps(digits + exprjet.GUARD_DIGITS):
            cold_model = cold.model
        kept = dict(exprjet._REFERENCE_SLOTS)
        assert len(kept) == 2  # one key per arithmetic
        warm = certifier._Search(parse(expr), drr, digits)
        assert _model_walks(warm.tape, digits) == cold_walks
        with mp.workdps(digits + exprjet.GUARD_DIGITS):
            assert warm.model == cold_model is not None
        assert exprjet._REFERENCE_SLOTS == kept
        e, others = parse(expr), exprjet._REFERENCES_AT_1[:1 + drr]
        plain = exprjet.Tape((e, *others, *(exprjet.Sub(e, o) for o in others)))
        assert _model_walks(plain, digits) == cold_walks


# the radius checks of the CI workflow's installed entry point: the
# case-I candidates hold on the whole domain, the second to t = 0.001,
# and the last one's gap vanishes beyond MODEL_ORDER, so no range near 1
# decides; the first case-IV one breaks first within MODEL_RADIUS of 1,
# where its ranges must split and fall back to the points, the third's
# bracket comes from a scan annulus beyond MODEL_RADIUS, the fourth has
# the largest eps of the certify benchmark, and the last one's far
# blocks pass through a divisor
CI_RADII = [
    ("2*t*ln(t) + 0.05*(t-1)^3", "0.9", "0.9"),
    ("H(t) - 0.0332*(t-1)^5", "0.9", "0.0026737999730672118497434751749342041193813201971352"),
    ("H(t) - (1/60)*(t-1)^5", "0.9", "0.52020538082027734071659720822822237096261233091354"),
    ("2*t*ln(t) + 5*(t-1)^3", "0.999", "0.999"),
    ("H(t) - 0.0167*(t-1)^5", "0.999", "0.51852376474334027424005157357100870285648852586746"),
    ("2*t*ln(t) + (t-1)^13", "0.9", "0.9"),
    ("H(t) - 0.032*(t-1)^5", "0.5", "0.02740067053226373685732434430306625472439918667078"),
    ("H(t) - 0.0167*(t-1)^5*2/(t+1)", "0.9", "0.82808250840683723802185175778278053426717519869271"),
]


def _ids(cases):
    """Each case's expression, with its a where the expression came before."""
    ids = []
    for expr, a, _ in cases:
        ids.append(f"{expr} --a {a}" if expr in ids else expr)
    return ids


RADIUS_CASES = [(*c, None) for c in FILTER_CASES] + CI_RADII


def _radius_and_walks(monkeypatch, expr, a):
    """The certified radius of expr on (1-a, 1+a), and the number of
    digits+GUARD_DIGITS walks its search made."""
    walks = []
    walk = certifier._Search.walk_verdict
    monkeypatch.setattr(certifier._Search, "walk_verdict",
                        lambda *args: walks.append(1) or walk(*args))
    return certify(parse(expr), a).radius, len(walks)


@pytest.mark.parametrize("expr, a, expected", RADIUS_CASES, ids=_ids(RADIUS_CASES))
def test_radius_without_the_box_tier_is_the_same(monkeypatch, expr, a, expected):
    kept, with_boxes = _radius_and_walks(monkeypatch, expr, a)
    assert expected is None or exprjet.decimal_text(kept, 50) == expected
    # ranges of more than one point decide nothing
    range_verdict = certifier._Search.range_verdict
    monkeypatch.setattr(certifier._Search, "range_verdict", lambda s, t0, t1, right:
                        range_verdict(s, t0, t1, right) if t1 is t0 else None)
    radius, walks = _radius_and_walks(monkeypatch, expr, a)
    assert radius == kept and with_boxes <= walks


# The radius text, walk_verdict calls and most model_box calls of each
# search of RADIUS_CASES, in order.  A block's one error bound per slot is
# looser than a point's; a point it leaves open goes to violates, whose
# range of one must decide it, so that no walk or box is added.
SEARCH_CALLS = [
    ("0.9", 0, 86),
    ("0.51852376474334027424005157357100870285648852586746", 35, 97),
    ("0.02740067053226373685732434430306625472439918667078", 58, 409),
    (None, 0, 0),
    (None, 0, 0),
    ("0.5", 0, 30),
    ("0.9", 0, 30),
    ("0.7", 0, 30),
    ("0.5", 1960, 0),
    ("0.9", 0, 30),
    ("0.21814784076337357013710885293278352037305012345314", 288, 410),
    ("0.9", 0, 30),
    ("0.0026737999730672118497434751749342041193813201971352", 50, 847),
    ("0.52020538082027734071659720822822237096261233091354", 34, 96),
    ("0.999", 0, 30),
    ("0.51852376474334027424005157357100870285648852586746", 35, 97),
    ("0.9", 594, 930),
    ("0.02740067053226373685732434430306625472439918667078", 58, 409),
    ("0.82808250840683723802185175778278053426717519869271", 32, 92),
]


@pytest.mark.parametrize("expr, a, calls",
                         [(c[0], c[1], n) for c, n in zip(RADIUS_CASES, SEARCH_CALLS)],
                         ids=_ids(RADIUS_CASES))
def test_searches_keep_their_radius_walks_and_boxes(monkeypatch, expr, a, calls):
    text, walks, most = calls
    boxes = []
    model_box = certifier._Search.model_box
    monkeypatch.setattr(certifier._Search, "model_box",
                        lambda *args: boxes.append(1) or model_box(*args))
    radius, walked = _radius_and_walks(monkeypatch, expr, a)
    assert (None if radius is None else exprjet.decimal_text(radius, 50)) == text
    assert walked == walks and len(boxes) <= most


@pytest.mark.parametrize("expr, a, most", [
    # its grid lies within 1/64 of 1, and its undecided runs used to go
    # point by point: 1,264 model boxes per search
    ("H(t) - 0.0332*(t-1)^5", "0.9", 1263),
    # a gap that vanishes beyond the model's order: no near range decides,
    # and the halves must not cost more boxes than the points (930)
    ("2*t*ln(t) + (t-1)^13", "0.9", 930),
])
def test_undecided_near_runs_are_split_in_halves(monkeypatch, expr, a, most):
    boxes = []
    model_box = certifier._Search.model_box
    monkeypatch.setattr(certifier._Search, "model_box",
                        lambda *args: boxes.append(1) or model_box(*args))
    certify(parse(expr), a)
    assert len(boxes) <= most


# Patterns that break where the order of the searches matters: in one
# scan annulus the left side first (index 21 against 23), the right side
# first (21 against 23), both sides at index 22; a whole near run broken
# (the gap is about -(t-1)^4 past t = 1 + 10^-12); family A breaking
# within and beyond MODEL_RADIUS of 1.
ORDER_CASES = [
    ("2*t*ln(t) + 0.05*(t-1)^3 + 0.005*(t-1)^4 - 0.2*(t-1)^5", "0.9"),
    ("2*t*ln(t) + 0.05*(t-1)^3 - 0.005*(t-1)^4 - 0.2*(t-1)^5", "0.9"),
    ("2*t*ln(t) + 0.05*(t-1)^3 - 0.2*(t-1)^5", "0.9"),
    ("2*t*ln(t) + 1e-12*(t-1)^3 - (t-1)^4", "0.9"),
    ("H(t) - 0.0332*(t-1)^5", "0.9"),
    ("H(t) - 0.0167*(t-1)^5", "0.999"),
]


@pytest.mark.parametrize("expr, a", ORDER_CASES, ids=[c[0] for c in ORDER_CASES])
def test_scan_bracket_is_that_of_the_walk_alone(expr, a):
    search = certifier._search(parse(expr), expr.startswith("H"), 50)
    with mp.workdps(50 + exprjet.GUARD_DIGITS):
        av, expected = mpf(a), None
        frontier, r = mpf(0), min(mpf("1e-6"), av)
        while expected is None and frontier < av:
            sides = [certifier._Points(frontier, r - frontier, 24, side) for side in (1, -1)]
            expected = next(((point(i - 1), point(i)) for i in range(1, 25) for point in sides
                             if search.walk_verdict(point(i), point.side > 0)), None)
            frontier, r = r, min(2 * r, av)
        assert search.scan(av) == expected


@pytest.mark.parametrize("expr, r", [(expr, r) for expr, _ in ORDER_CASES for r in ("0.01", "0.5")])
def test_grid_violation_is_that_of_the_walk_alone(expr, r):
    e = parse(expr)
    search = certifier._search(e, expr.startswith("H"), 50)
    with mp.workdps(50):
        point = certifier._Points(1 - mpf(r), 2 * mpf(r), certifier.GRID_POINTS - 1)
        expected = next((t for t in map(point, range(certifier.GRID_POINTS))
                         if search.walk_verdict(t, t >= 1)), None)
    assert verify_pattern_on_grid(e, r, expr.startswith("H")) == expected


# ---------------------------------------------------------------------------
# the block tier: runs decided BLOCK points at a time in binary64
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("expr, a, expected", CI_RADII, ids=[c[0] for c in CI_RADII])
def test_ci_radius_decisions_match_the_walk(decisions, expr, a, expected):
    cert = certify(parse(expr), a)
    assert exprjet.decimal_text(cert.radius, 50) == expected
    assert _mismatches(decisions) == []
    # every grid but the one within 1/64 of 1 has runs beyond it
    assert (decisions.blocked > 0) == (cert.radius > certifier.MODEL_RADIUS)


# the CI workflow's radius checks away from 50 digits: the search's
# slack, pads and Taylor model are set per precision
DIGITS_RADII = [
    ("H(t) - (1/60)*(t-1)^5", "0.9", 20, "0.52020551342398184518"),
    ("H(t) - 0.0167*(t-1)^5", "0.999", 30, "0.518523764743340287683520120709"),
]


@pytest.mark.parametrize("expr, a, digits, expected", DIGITS_RADII,
                         ids=[f"{c[0]} --digits {c[2]}" for c in DIGITS_RADII])
def test_radius_decisions_at_other_digits_match_the_walk(decisions, expr, a, digits, expected):
    cert = certify(parse(expr), a, p=Precision(digits))
    assert exprjet.decimal_text(cert.radius, digits) == expected
    assert _mismatches(decisions) == []
    near = [fast for t, fast, _ in decisions if abs(t - 1) <= certifier.MODEL_RADIUS]
    assert decisions.blocked > 0 and near and None not in near


@pytest.mark.parametrize("expr, a, expected", RADIUS_CASES, ids=_ids(RADIUS_CASES))
def test_radius_without_the_block_tier_is_the_same(monkeypatch, expr, a, expected):
    kept, with_blocks = _radius_and_walks(monkeypatch, expr, a)
    assert expected is None or exprjet.decimal_text(kept, 50) == expected
    # blocks decide nothing
    monkeypatch.setattr(certifier._Search, "float_verdicts",
                        lambda s, xs, err, right: [None] * len(xs))
    radius, walks = _radius_and_walks(monkeypatch, expr, a)
    # a point the block leaves undecided takes the path it took before
    assert radius == kept and with_blocks <= walks


def _exact(v) -> Fraction:
    """A float or an mpf as a fraction."""
    if isinstance(v, float):
        return Fraction(v)
    man, exp = v.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _assert_encloses(point, indices):
    # at the working precision of the search that computes point(i)
    for start in range(0, len(indices), certifier.BLOCK):
        block = indices[start:start + certifier.BLOCK]
        xs, err = point.balls(block)
        for i, x in zip(block, xs):
            assert abs(_exact(point(i)) - _exact(x)) <= _exact(err), (point, i)


# radii of the search: up to 0.999 (t down to 0.001) and just above the
# floor 1e-25 of 50 digits, moved off the floats as bisected radii are
_RADII = st.one_of(st.floats(1e-25, 0.999), st.sampled_from([0.999, 0.5, 1e-25, 1 / 64]))


@settings(max_examples=60, deadline=None)
@given(_RADII, st.integers(-9, 9), st.sampled_from([15, 50, 120]))
def test_block_balls_hold_the_grid_and_scan_points(r, nudge, digits):
    with mp.workdps(digits):
        rv = min(mpf(r) * (1 + mpf(nudge) / 10**17), mpf("0.999"))
        point = certifier._Points(1 - rv, 2 * rv, certifier.GRID_POINTS - 1)
        _assert_encloses(point, range(certifier.GRID_POINTS))
    # the scan of [1 - rv, 1 + rv] at digits + GUARD_DIGITS, every annulus on both sides
    with mp.workdps(digits + exprjet.GUARD_DIGITS):
        av = +rv
        frontier, outer = mpf(0), min(mpf("1e-6"), av)
        while frontier < av:
            for side in (1, -1):
                _assert_encloses(certifier._Points(frontier, outer - frontier, 24, side), range(25))
            frontier, outer = outer, min(2 * outer, av)


# Div, a negative power, ln, sqrt, atan and sin on one tape, scaled by c
# so that its gaps come within the balls' errors of the thresholds
MIXED = "2*t*ln(t) + {}*(sqrt(t)*atan(t - 1)/(t - 0.25) - (t - 0.75)^-2*sin(3*t))"
# FILTER_CASES' tapes, a variable-free root ("1.5", the same ball at every
# point), the mixed tape, and one whose product overflows to inf past
# t = 1.88 while its factors stay finite
BLOCK_TAPES = [c[0] for c in FILTER_CASES] + [
    "1.5", MIXED.format(1), "2*t*ln(t) + 10^300*t^30 - 10^300*t^30"]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(BLOCK_TAPES), st.booleans(),
       st.lists(st.floats(0.0005, 2.5), min_size=1, max_size=70),
       st.sampled_from([0.0, 2 * exprjet._U, 1e-9]))
# two finite products near the largest float whose sum overflows
@example(BLOCK_TAPES[-1], False, [1.875, 1.875], 0.0)
def test_tape_balls_bound_ball_at_every_point(expr, drr, xs, rel):
    search = certifier._search(parse(expr), drr, 50)
    tape, err = search.tape, rel * max(xs)
    try:
        points = [tape.ball(x, err) for x in xs]
    except (ArithmeticError, ValueError):
        # where any point raises, the block raises
        with pytest.raises((ArithmeticError, ValueError)):
            tape.balls(xs, err)
        return
    if not all(math.isfinite(v) for roots in points for v, _ in roots):
        # a block holding an overflowing point is undecided
        assert search.float_verdicts(xs, err, True) == [None] * len(xs)
        return
    try:
        cols = tape.balls(xs, err)
    except (ArithmeticError, ValueError):
        # a block may also raise where no point does: where a divisor's or
        # an argument's smallest |value| comes within the block's error of
        # 0, which only the mixed tape risks here
        assert expr == MIXED.format(1)
        return
    assert len(cols) == len(tape.roots)
    for (vs, e), balls in zip(cols, zip(*points)):
        # the values of ball at each point, bit for bit, and one error
        # bound at least each point's
        assert [v.hex() for v in vs] == [v.hex() for v, _ in balls]
        assert all(e >= point_err for _, point_err in balls)


def _spread_balls(tape, xs, err):
    """Tape.balls as it once kept its variable-free slots: a ball walk at
    xs[0] keeps them, and each kept ball is spread over the block."""
    tape.ball(xs[0], err)
    spread = [None if c is None else exprjet._spread(c, len(xs))
              for c in tape._kept[exprjet._BALL][None]]
    out = exprjet._walk(tape.entries, exprjet._BLOCK, (xs, err, *exprjet._extent(xs)), spread)
    return [out[k][:2] for k in tape.roots]


# the family-A and family-C search tapes, and one whose variable-free
# slots go through every row kind: Neg, Add, Sub, Mul, Div, a negative
# and a zeroth power, and the calls
SPREAD_TAPES = [("H(t) - 0.0167*(t-1)^5", True), ("2*t*ln(t) + 0.05*(t-1)^3", False),
                ("2*t*ln(t) + (ln(3)/sqrt(2) - atan(0.5)*sin(-1.5)^2 + (-0.75)^-3"
                 " + 2^0 - pi)*(t-1)^3", False)]


@pytest.mark.parametrize("expr, drr", SPREAD_TAPES, ids=[e for e, _ in SPREAD_TAPES])
def test_block_walk_keeps_the_spread_balls_bit_for_bit(expr, drr):
    # on a variable-free column each block rule gives the ball rule's
    # value and bound, so the kept columns are the kept balls spread
    tape = certifier._search(parse(expr), drr, 50).tape
    for n in (64, 24, 13):
        for start in (0.2, 0.9, 1.05, 1.7):
            xs = [start + k / 512 for k in range(n)]
            for err in (0.0, 1e-12):
                for _ in range(2):  # the walk that keeps them, then one that reads them
                    assert ([[_bits(v) for v in vs] + [_bits(e)] for vs, e in tape.balls(xs, err)]
                            == [[_bits(v) for v in vs] + [_bits(e)]
                                for vs, e in _spread_balls(tape, xs, err)])


def _counted_consts(monkeypatch):
    """A list that grows by one at each Const block rule a tape built
    after this call runs."""
    calls, const = [], exprjet._OPS[exprjet.Const]
    monkeypatch.setitem(exprjet._OPS, exprjet.Const, const._replace(
        block=lambda e, c: calls.append(e) or const.block(e, c)))
    return calls


def test_block_walk_walks_the_variable_free_rows_once_per_size(monkeypatch):
    calls = _counted_consts(monkeypatch)
    tape = certifier._search(parse("H(t) - 0.0167*(t-1)^5"), True, 50).tape
    xs = [0.3 + k / 256 for k in range(64)]
    tape.balls(xs, 0.0)
    walked = len(calls)
    assert walked > 0
    tape.balls([x + 0.5 for x in xs], 1e-12)
    assert len(calls) == walked
    tape.balls(xs[:24], 0.0)  # a new size walks them again
    assert len(calls) == 2 * walked
    tape.balls(xs, 0.0)
    assert len(calls) == 2 * walked


def test_a_block_walk_that_raises_keeps_nothing(monkeypatch):
    calls = _counted_consts(monkeypatch)
    tape = exprjet.Tape((parse("3*t + 2/(t - 1)"),))
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            tape.balls([0.5, 1.0, 1.5], 0.0)
        assert tape._kept[exprjet._BLOCK] == {}
    assert len(calls) == 6  # 3, 2 and 1, on each call
    # as ball and point do
    with pytest.raises(ArithmeticError):
        tape.ball(1.0, 0.0)
    with pytest.raises(exprjet.DomainError):
        tape.point(mpf(1))
    assert tape._kept[exprjet._BALL] == tape._kept[exprjet._POINT] == {}
    tape.balls([1.25, 1.5, 2.0], 0.0)
    assert list(tape._kept[exprjet._BLOCK]) == [3]


# the family-A and family-C tapes, two gaps and one, and the mixed tape
GAP_TAPES = [("H(t) - 0.0167*(t-1)^5", True), ("2*t*ln(t) + 0.05*(t-1)^3", False),
             (MIXED.format(1), False), (MIXED.format(1), True)]


def _bits(v):
    """A float, an mpf or a series ball as a value that compares bit for bit."""
    if isinstance(v, exprjet._Ball):
        return _bits(v.v), _bits(v.e)
    return v.hex() if isinstance(v, float) else v._mpf_


@pytest.mark.parametrize("expr, drr", GAP_TAPES, ids=[f"{e} drr={d}" for e, d in GAP_TAPES])
def test_gap_rows_are_the_hand_subtraction_bit_for_bit(expr, drr):
    # the rows Sub(P, 2t*ln(t)) and Sub(P, H) of the search tape give each
    # gap's ball, column, bound and coefficients by the operations that
    # subtracting P's and the other root's by hand performs
    search = certifier._search(parse(expr), drr, 50)
    tape, m = search.tape, search.gaps
    assert len(tape.roots) == 1 + 2 * m == (5 if drr else 3)
    # blocks away from the mixed tape's poles at t = 0.25 and 0.75
    for xs in ([0.3 + k / 200 for k in range(64)], [0.8 + k / 64 for k in range(64)]):
        for err in (0.0, 1e-12):
            for x in xs:
                balls = tape.ball(x, err)
                (vp, ep), *others = balls[:-m]
                assert [_bits(v) for gap in balls[-m:] for v in gap] == [
                    _bits(v) for vo, eo in others for v in exprjet._ball(vp - vo, ep + eo)]
            cols = tape.balls(xs, err)
            (ps, ep), *others = cols[:-m]
            for (os, eo), (gaps, bound) in zip(others, cols[-m:]):
                hand = list(map(operator.sub, ps, os))
                assert list(map(_bits, gaps)) == list(map(_bits, hand))
                assert _bits(bound) == _bits(exprjet._ball(max(max(hand), -min(hand)), ep + eo)[1])
    for center in (1.0, 0.5, 1.6):
        for ball, n in ((exprjet._MPBall, certifier.MODEL_ORDER), (exprjet._F64Ball, 9)):
            with mp.workdps(65):  # the _MPBall subtractions round here
                series = tape.series(ball(ball._exact(center), 1e-3), n)
                p, *others = series[:-m]
                assert [[_bits(c) for c in gap] for gap in series[-m:]] == [
                    [_bits(a - b) for a, b in zip(p, o)] for o in others]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_block_with_a_non_finite_point_is_undecided(bad):
    # min and max skip a NaN that is not first; the walk must not
    search = certifier._search(parse("2*t*ln(t) + 0.05*(t-1)^3"), False, 50)
    xs = [1.25, 1.5, bad, 1.75]
    with pytest.raises(OverflowError):
        search.tape.balls(xs, 0.0)
    assert search.float_verdicts(xs, 0.0, True) == [None] * len(xs)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["1", "1e-13", "1e-15", "-1e-15", "1e-16", "-1e-16", "1e-17", "-1e-17"]),
       st.booleans(),
       st.sampled_from([1, -1]), st.floats(1 / 64, 0.99), st.floats(1e-6, 1 / 64))
def test_block_verdicts_never_contradict_the_walk(c, drr, side, start, width):
    # a far block of 64 points on one side of 1, as the searches make them;
    # c of either sign, since the mixed part keeps one sign on each side
    search = certifier._search(parse(MIXED.format(c)), drr, 50)
    point = certifier._Points(mpf(start), mpf(width), 63, side)
    with mp.workdps(50):
        xs, err = point.balls(range(64))
        verdicts = search.float_verdicts(xs, err, side > 0)
        for i, verdict in enumerate(verdicts):
            if verdict is not None:
                assert verdict == search.walk_verdict(point(i), side > 0), point(i)
