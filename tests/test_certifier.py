"""Condition checking, certificates, and verified radii."""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from logbound import certifier
from logbound.certifier import (
    CandidateJet,
    case3_constant,
    certify,
    check_case,
    equality_constant,
    find_radius,
)
from logbound.exprjet import Jet, Precision, parse


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
        certifier._case3_constant.cache_clear()
        certifier._equality_constant.cache_clear()
        cold[key] = values(*key)
    assert {key: values(*key) for key in keys} == cold
    # the keys matter: at j = 40 the constants carry more than 30
    # significant digits, and from j = 5 on the two modes differ
    for literal in (False, True):
        assert all(a != b for a, b in zip(cold[40, 30, literal], cold[40, 50, literal]))
    assert cold[5, 50, False][0] != cold[5, 50, True][0]


def test_certify_computes_the_derivative_list_once(monkeypatch):
    calls = []
    derivatives = Jet.derivatives
    monkeypatch.setattr(Jet, "derivatives", lambda self: calls.append(1) or derivatives(self))
    cert = certify(parse("H(t) - (1/30)*(t-1)^5"), "0.9", compute_radius=False)
    # every case of the search order was tried on the same candidate
    assert cert.case == "none" and len(calls) == 1


# ---------------------------------------------------------------------------
# check_case
# ---------------------------------------------------------------------------


def test_check_case_quadratic_case_I():
    cand = CandidateJet.build(parse("2*(t-1) + (t-1)^2"), "0.5")
    reports = check_case(cand, "I", 1)
    assert all(r.passed for r in reports)
    strict = [r for r in reports if r.kind == "strict"]
    assert len(strict) == 1 and abs(strict[0].margin - 2) < mpf("1e-40")


def test_check_case_IV_of_refined_family():
    cand = CandidateJet.build(parse("H(t) - (1/60)*(t-1)^5"), "0.9")
    reports = check_case(cand, "IV")
    assert all(r.passed for r in reports)
    d5 = [r for r in reports if r.label == "j=5 above -12"][0]
    assert abs(d5.actual - (-10)) < mpf("1e-40")  # -8 - 120/60

    cand = CandidateJet.build(parse("H(t) - (1/30)*(t-1)^5"), "0.9")
    reports = check_case(cand, "IV")
    bad = [r for r in reports if not r.passed]
    assert len(bad) == 1 and bad[0].label == "j=5 above -12"
    assert abs(bad[0].actual - (-12)) < mpf("1e-40")  # boundary excluded


def test_check_case_III_direct():
    # H - c*(t-1)^7 satisfies case III with n = 6 in derived mode
    cand = CandidateJet.build(parse("H(t) - (1/10)*(t-1)^7"), "0.9", order=8)
    reports = check_case(cand, "III", 6)
    assert all(r.passed for r in reports)
    # paper-literal constants break the j=5 equality for the same candidate
    reports = check_case(cand, "III", 6, paper_literal=True)
    assert not all(r.passed for r in reports)


def test_check_case_II_direct():
    # jet equal to 2t*ln(t) up to order 6 with a +1 bump at order 7
    derivs = [2, 2, -2, 4, -12, 48, -239]  # (2t ln t)^(7)(1) = -240
    cand = CandidateJet.build(parse(poly_in_shifted_powers(derivs)), "0.9", order=8)
    reports = check_case(cand, "II", 6)
    assert all(r.passed for r in reports)


def test_check_case_validation():
    cand = CandidateJet.build(parse("2*(t-1)"), "0.5", order=4)
    with pytest.raises(ValueError):
        check_case(cand, "I", 2)  # n must be odd
    with pytest.raises(ValueError):
        check_case(cand, "II", 4)  # n must be >= 6
    with pytest.raises(ValueError):
        check_case(cand, "I", 7)  # jet order too small
    with pytest.raises(ValueError):
        check_case(cand, "V")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


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
    reports = check_case(CandidateJet.build(parse("H(t)"), "0.9"), "IV")
    bad = [r for r in reports if not r.passed]
    assert len(bad) == 1 and abs(bad[0].margin) < mpf("1e-40")  # exactly boundary
    reports = check_case(
        CandidateJet.build(parse("H(t)"), "0.9", order=8), "III", 6
    )
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
        cand = CandidateJet.build(expr, "0.8", order=n + 2)
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
        find_radius(parse("H(t) - (1/30)*(t-1)^5"), cert)


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
