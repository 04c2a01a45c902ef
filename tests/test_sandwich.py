"""Rational sandwich checks, witness search, and corridor feasibility."""

import json
import os
import time

import mpmath
import pytest
from mpmath import mp, mpf

from logbound.errors import PrecisionError, QVanishesError
from logbound.exprjet import Precision, jet, parse
from logbound.sandwich import (
    MAX_POLY_DEGREE,
    LN1P_CONTACT,
    RationalFn,
    Witness,
    check_sandwich,
    expr_to_poly,
    _phase1_simplex,
    find_witness,
    fit_sandwich,
)

FIT_REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "lbbench", "fit_reference.json")

PADE = RationalFn((0, 2, 1), (2, 2))
KARAMATA = RationalFn((0, 6, 1), (6, 4))
CUBIC = RationalFn((0, 6, 9, 5, 1), (6, 12, 9, 3))
IDENTITY = RationalFn((0, 1), (1,))
X_OVER_1PX = RationalFn((0, 1), (1, 1))
# [3/2] rational contact-matching ln(1+x) to 4th order; sits inside the
# corridor on [0, 0.1]
PADE32 = RationalFn((0, 30, 21, 1), (30, 36, 9))


def cb_direct(x):
    return (
        mp.pi + (4 + mp.pi) * x / 2 - 2 * (x + 2) * mpmath.atan(mpmath.sqrt(x + 1))
    ) / mpmath.sqrt(x + 1)


# ---------------------------------------------------------------------------
# RationalFn
# ---------------------------------------------------------------------------


def test_rational_invariants():
    with pytest.raises(ValueError):
        RationalFn((0, 0), (1,))  # P identically zero
    with pytest.raises(ValueError):
        RationalFn((1, 0), (1,))  # leading coefficient zero
    with pytest.raises(ValueError):
        RationalFn((1,), (1, 0))
    r = RationalFn((0, 2, 1), (2, 2))
    assert r.degree_p == 2 and r.degree_q == 1
    assert r.value(mpf(3)) == mpf(15) / 8


def test_expr_to_poly():
    assert expr_to_poly(parse("x*(2+x)")) == [0, 2, 1]
    assert expr_to_poly(parse("2*(1+x)")) == [2, 2]
    assert expr_to_poly(parse("(x+2)*((x+1)^3-1)")) == [0, 6, 9, 5, 1]
    assert expr_to_poly(parse("3*(1+x)*((x+1)^2+1)")) == [6, 12, 9, 3]
    assert expr_to_poly(parse("(x - 1/2)^2")) == [mpf("0.25"), -1, 1]
    with pytest.raises(ValueError):
        expr_to_poly(parse("ln(x)"))
    with pytest.raises(ValueError):
        expr_to_poly(parse("1/(1+x)"))


def test_expr_to_poly_bounds_the_degree():
    assert len(expr_to_poly(parse(f"x^{MAX_POLY_DEGREE}"))) == MAX_POLY_DEGREE + 1
    assert expr_to_poly(parse("(x^60 - x^60 + 1)^1000")) == [1]
    for text in (f"x^{MAX_POLY_DEGREE + 1}", "(1 + x)^60*x^60", "(x^2 + 1)^100000000"):
        with pytest.raises(ValueError, match="degree"):
            expr_to_poly(parse(text))


def test_expr_to_poly_raises_a_constant_base_once():
    # one multiplication per unit of exponent would take seconds here
    t0 = time.monotonic()
    assert expr_to_poly(parse("1^1000000 + x")) == [1, 1]
    assert expr_to_poly(parse("(1/2)^3")) == [mpf("0.125")]
    assert time.monotonic() - t0 < 0.5


def test_rational_to_expr_roundtrip():
    e = PADE.to_expr()
    j = jet(e, 0, 2)
    assert j.derivative(0) == 0 and j.derivative(1) == 1


# ---------------------------------------------------------------------------
# check_sandwich
# ---------------------------------------------------------------------------


def test_check_pade_witness_at_3():
    # grid {0, 3, 6, 9}: the corridor-bound side fails first at x = 3
    w = check_sandwich(PADE, "upper", xmax=9, grid=4)
    assert w is not None and w.side == "cb"
    assert w.x == 3
    with mp.workdps(60):
        assert abs(w.lhs - mpf("1.875")) < mpf("1e-40")
        assert abs(w.rhs - mpf("1.3912472280167890329929769282066934048962235222117")) < mpf("1e-40")


def test_check_x_over_1px_fails_log_side():
    w = check_sandwich(X_OVER_1PX, "upper", xmax=1, grid=3)
    assert w is not None and w.side == "log"
    with mp.workdps(60):
        # x/(x+1) < ln(1+x) for x > 0; at x = 1: 0.5 < 0.693147
        assert w.x == mpf("0.5")
        assert w.lhs > w.rhs
        assert X_OVER_1PX.value(mpf(1)) == mpf("0.5") < mpmath.ln(2)


def test_check_identity_lower_region():
    w = check_sandwich(IDENTITY, "lower", grid=5)
    assert w is not None and w.side == "log"
    assert w.margin > mpf("1e-20")


def test_check_sandwich_holds_inside_corridor():
    assert check_sandwich(PADE32, "upper", xmax="0.1", grid=1000) is None


def test_check_sandwich_rejects_vanishing_q():
    bad = RationalFn((0, 1), (-1, 1))  # Q = x - 1 changes sign on [0, 10]
    with pytest.raises(QVanishesError):
        check_sandwich(bad, "upper", xmax=10, grid=100)


# ---------------------------------------------------------------------------
# find_witness
# ---------------------------------------------------------------------------


def _reverify_witness(w: Witness, r: RationalFn):
    """Independent doubled-precision confirmation of a witness, with the
    reported value of P/Q and with P/Q recomputed at 100 digits."""
    with mp.workdps(100):
        x = mpmath.mpmathify(w.x)
        ln_side = mpmath.ln(1 + x)
        cb_side = cb_direct(x)
        reported = w.rhs if w.side == "log" else w.lhs
        for v in (reported, r.value(x)):
            if w.region == "upper":
                margin = ln_side - v if w.side == "log" else v - cb_side
            else:
                margin = v - ln_side if w.side == "log" else cb_side - v
            assert margin > mpf("1e-20")


def test_witness_corpus_within_budget():
    t0 = time.monotonic()
    for r, region in ((PADE, "upper"), (KARAMATA, "upper"), (CUBIC, "upper"),
                      (IDENTITY, "lower")):
        w = find_witness(r, region)
        assert w.margin > mpf("1e-20")
        _reverify_witness(w, r)
    assert time.monotonic() - t0 < 30


def test_identity_witness_matches_anchor():
    w = find_witness(IDENTITY, "lower")
    with mp.workdps(60):
        assert w.x == mpf("-0.5")
        assert w.side == "log"
        # ln(0.5) = -0.693147... < -0.5
        assert abs(w.rhs - mpf("-0.5")) < mpf("1e-40")
        assert abs(w.lhs - mpmath.ln(mpf("0.5"))) < mpf("1e-40")


def test_karamata_witness_values_at_3():
    # oracle anchor: at x = 3 the bound reads 1.5 > cb(3) = 1.391247...
    with mp.workdps(60):
        assert KARAMATA.value(mpf(3)) == mpf("1.5")
        assert cb_direct(mpf(3)) < mpf("1.5")
    w = find_witness(KARAMATA, "upper")
    assert w.side == "cb"


def test_fitted_candidate_still_has_witness():
    # a feasible compact fit cannot survive globally: the witness search
    # must exit the corridor somewhere beyond the fitted interval
    rep = fit_sandwich(3, 3, "upper", xmax=1, samples=32)
    assert rep.status == "feasible"
    r = RationalFn(rep.p_coeffs, rep.q_coeffs)
    w = find_witness(r, "upper")
    assert w.margin > mpf("1e-20")
    _reverify_witness(w, r)


# ---------------------------------------------------------------------------
# contact necessity
# ---------------------------------------------------------------------------


def _contact_orders_match(r: RationalFn, tol=mpf("1e-6")):
    j = jet(r.to_expr(), 0, 4)
    return all(
        abs(j.derivative(k) - want) <= tol * max(1, abs(mpf(want)))
        for k, want in enumerate(LN1P_CONTACT, start=1)
    )


def test_contact_necessity_on_narrow_interval():
    # candidates that pass on [0, 0.1] with a dense grid match ln(1+x)
    # to 4th order at 0; candidates that break the contact fail the grid
    assert check_sandwich(PADE32, "upper", xmax="0.1", grid=10 ** 4) is None
    assert _contact_orders_match(PADE32)
    for r in (PADE, KARAMATA):
        assert not _contact_orders_match(r)
        assert check_sandwich(r, "upper", xmax="0.1", grid=10 ** 4) is not None


# ---------------------------------------------------------------------------
# fit_sandwich
# ---------------------------------------------------------------------------


def test_fit_constant_pair_infeasible():
    # c <= cb(0) = 0 at x = 0 and c >= ln(2)*Q at x = 1 cannot coexist
    # with Q >= 1
    rep = fit_sandwich(0, 0, "upper", xmax=1, samples=50)
    assert rep.status == "infeasible"
    assert rep.max_slack < 0
    assert rep.p_coeffs is None


def test_fit_feasible_coefficients_verify():
    rep = fit_sandwich(3, 3, "upper", xmax=1, samples=32)
    assert rep.status == "feasible"
    assert rep.max_slack > -mpf("1e-40")
    r = RationalFn(rep.p_coeffs, rep.q_coeffs)
    with mp.workdps(80):
        for i in range(32):
            x = mpf(1) * i / 31
            q = r.q_value(x)
            p_ = r.p_value(x)
            assert q >= 1 - mpf("1e-40")
            assert mpmath.ln(1 + x) * q <= p_ + mpf("1e-40")
            assert p_ <= cb_direct(x) * q + mpf("1e-40")


def test_fit_infeasible_is_stable_under_more_samples():
    base = [mpf(i) / 7 for i in range(8)]
    extra = base + [mpf("0.05"), mpf("0.3"), mpf("0.62"), mpf("0.85")]
    r1 = fit_sandwich(0, 0, "upper", sample_points=base)
    r2 = fit_sandwich(0, 0, "upper", sample_points=extra)
    assert r1.status == "infeasible" and r2.status == "infeasible"


def test_fit_max_slack_non_increasing_in_X():
    slacks = []
    for X in ("0.25", "0.5", "1", "2"):
        rep = fit_sandwich(2, 2, "upper", xmax=X, samples=24)
        slacks.append(rep.max_slack)
    # non-increasing up to pivot-arithmetic noise (real transitions are
    # many orders of magnitude larger)
    with mp.workdps(60):
        for a, b in zip(slacks, slacks[1:]):
            assert b <= a + mpf("1e-30")


def test_fit_lower_region():
    rep = fit_sandwich(1, 1, "lower", delta="0.5", samples=16)
    assert rep.status == "infeasible"


def test_fit_degree_four_pair():
    # the (4,4) cell: status is an empirical outcome; whatever it is,
    # a feasible answer must carry slack-verified coefficients
    rep = fit_sandwich(4, 4, "upper", xmax=1)
    assert rep.status in ("feasible", "infeasible")
    if rep.status == "feasible":
        r = RationalFn(rep.p_coeffs, rep.q_coeffs)
        with mp.workdps(80):
            for i in range(rep.sample_count):
                x = mpf(1) * i / (rep.sample_count - 1)
                q = r.q_value(x)
                assert q >= 1 - mpf("1e-40")
                assert mpmath.ln(1 + x) * q <= r.p_value(x) + mpf("1e-40")
                assert r.p_value(x) <= cb_direct(x) * q + mpf("1e-40")


def test_fit_statuses_match_reference_table():
    # every cell of the benchmark's reference table, solved at 50 digits
    with open(FIT_REFERENCE) as fh:
        cells = json.load(fh)["cells"]
    wrong = []
    for key, want in sorted(cells.items()):
        n, m, region, bound, samples = key.split(",")
        kw = {"xmax": bound} if region == "upper" else {"delta": bound}
        got = fit_sandwich(int(n), int(m), region, samples=int(samples), **kw).status
        if got != want:
            wrong.append((key, got))
    assert len(cells) == 228 and wrong == []


@pytest.mark.parametrize("rows, rhs, status, optimum", [
    # y >= 1 twice and y <= 0: both Q-type rows stay violated by 1, so
    # the optimum is the total violation 2, reached by two bound flips
    ([[1], [1], [-1]], [1, 1, 0], "infeasible", 2),
    ([[1], [-1]], [1, -2], "feasible", 0),
    # y1 >= 1, y2 >= 1, y1 + y2 <= 1
    ([[1, 0], [0, 1], [-1, -1]], [1, 1, -1], "infeasible", 1),
])
def test_phase1_simplex_small_cases(rows, rhs, status, optimum):
    got, y, opt = _phase1_simplex(rows, rhs, len(rows[0]), Precision(50))
    assert (got, opt) == (status, optimum)
    if status == "feasible":
        assert 1 <= y[0] <= 2
    else:
        assert y is None


@pytest.mark.parametrize("points", [["0.5"] * 32, ["0.25", "0.5"] * 16])
def test_fit_repeated_sample_points(points):
    # rank-deficient constraint rows: the starting basis must skip the
    # dependent rows instead of pivoting on a zero entry
    rep = fit_sandwich(3, 3, "upper", sample_points=points)
    assert rep.status == "feasible" and rep.sample_count == 32


def test_fit_validation_and_precision_guard():
    with pytest.raises(ValueError):
        fit_sandwich(9, 0)
    with pytest.raises(ValueError):
        fit_sandwich(2, 2, samples=10)
    pts = [mpf(0), mpf("1e-11")] + [mpf(i) / 10 for i in range(1, 7)]
    with pytest.raises(PrecisionError):
        fit_sandwich(0, 0, "upper", sample_points=pts)


def test_report_serialization():
    rep = fit_sandwich(0, 0, "upper", xmax=1, samples=8)
    d = rep.to_json_dict()
    assert d["status"] == "infeasible" and d["p_coeffs"] is None
    assert isinstance(d["max_slack"], str)
    w = check_sandwich(PADE, "upper", xmax=9, grid=4)
    dw = w.to_json_dict()
    assert set(dw) == {"x", "side", "lhs", "rhs", "margin", "region"}
