"""Rational sandwich checks, witness search, and corridor feasibility."""

import hashlib
import json
import os
import random
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    fzero,
    mpf_abs,
    mpf_cmp,
    mpf_gt,
    mpf_mul,
    mpf_neg,
    mpf_sub,
    normalize,
)

from logbound import sandwich
from logbound.errors import BudgetError, DomainError, PrecisionError, QVanishesError
from logbound.exprjet import Precision, jet, parse
from logbound.sandwich import (
    MAX_POLY_DEGREE,
    LN1P_CONTACT,
    RationalFn,
    Witness,
    check_sandwich,
    expr_to_poly,
    _contact_mismatch,
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
    assert (len(r.p_coeffs), len(r.q_coeffs)) == (3, 2)
    assert r.p_value(mpf(3)) / r.q_value(mpf(3)) == mpf(15) / 8


def _object_horner(coeffs, x):
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


_DECIMALS = st.builds("{}{}e{}".format, st.sampled_from(["", "-"]),
                      st.integers(1, 10 ** 200 - 1), st.integers(-260, 60))


@settings(max_examples=150, deadline=None)
@given(st.lists(_DECIMALS, min_size=1, max_size=8), st.lists(_DECIMALS, min_size=1, max_size=4),
       st.integers(-(2 ** 100), 2 ** 100), st.integers(-200, 100),
       st.sampled_from([15, 50, 100, 30, 200]))
def test_horner_has_the_bits_of_the_mpf_operators(p, q, man, exp, digits):
    # 200-digit coefficients at x = man * 2^exp, whose exponent spans
    # +-200 bits, at 15, 50 and 100 digits and doubled
    r = RationalFn(p, q)
    with mp.workdps(digits):
        x = mpf(man) * mpf(2) ** exp
        for coeffs, value in ((r.p_coeffs, r.p_value), (r.q_coeffs, r.q_value)):
            assert value(x)._mpf_ == _object_horner(coeffs, x)._mpf_
            assert sandwich._horner(coeffs, x)._mpf_ == _object_horner(coeffs, x)._mpf_


def test_p_value_takes_an_int_a_float_and_a_decimal_string():
    r = RationalFn((0, 2, 1), (2, 2))
    assert r.p_value(3) == 15 and r.q_value(3) == 8
    assert r.p_value(2 ** 200)._mpf_ == _object_horner(r.p_coeffs, 2 ** 200)._mpf_
    assert r.p_value(0.1)._mpf_ == _object_horner(r.p_coeffs, 0.1)._mpf_
    assert r.p_value("0.5") == mpf("1.25")


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


@pytest.mark.parametrize("text, exc, message", [
    ("ln(x)", ValueError, "not a polynomial expression: Ln"),
    ("2 + sqrt(x)", ValueError, "not a polynomial expression: Sqrt"),
    ("x*atan(1)", ValueError, "not a polynomial expression: Atan"),
    ("sin(x)^2", ValueError, "not a polynomial expression: Sin"),
    ("x^-2", ValueError, "negative powers are not polynomial"),
    ("x/(x+1)", ValueError, "division by a non-constant is not polynomial"),
    ("x/0", DomainError, "division by zero at expansion center (0)"),
    ("x/(x - x)", DomainError, "division by zero at expansion center (x - x)"),
    # of two faults the first in tape order, the dividend's, is reported
    ("ln(x)/(x+1)", ValueError, "not a polynomial expression: Ln"),
])
def test_expr_to_poly_refusals(text, exc, message):
    with pytest.raises(exc) as err:
        expr_to_poly(parse(text))
    assert type(err.value) is exc and str(err.value) == message


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
        assert X_OVER_1PX.p_value(mpf(1)) / X_OVER_1PX.q_value(mpf(1)) == mpf("0.5") < mpmath.ln(2)


def test_check_identity_lower_region():
    w = check_sandwich(IDENTITY, "lower", grid=5)
    assert w is not None and w.side == "log"
    assert w.margin > mpf("1e-20")


def test_check_sandwich_holds_inside_corridor():
    assert check_sandwich(PADE32, "upper", xmax="0.1", grid=1000) is None


def test_check_sandwich_evaluates_q_twice_per_grid_point(monkeypatch):
    # once for Q's sign on the grid, once in each point's witness test
    calls = []
    q_value = RationalFn.q_value
    monkeypatch.setattr(RationalFn, "q_value", lambda r, x: calls.append(x) or q_value(r, x))
    assert check_sandwich(PADE32, "upper", xmax="0.1", grid=100) is None
    assert len(calls) == 200


@pytest.mark.parametrize("x", ["-0.999999", "-0.5", "1e-70", "1e-40", "0.5", "3", "1e6"])
def test_corridor_walls_at_the_working_precision(x):
    # check, witness and fit read one pair of walls: ln(1+x) to every
    # digit of the working precision (it keeps them near 0, where
    # ln(1 + x) loses 1+x's rounding), and cb = f/sqrt(x+1)
    p = Precision(50)
    with mp.workdps(p.digits + 15):
        xv = mpf(x)
        log_wall, cb_wall = sandwich._corridor(xv, p)
    with mp.workdps(200):
        assert abs(log_wall - mpmath.log(1 + xv)) <= abs(log_wall) * mpf(10) ** -64
        assert abs(cb_wall - cb_direct(xv)) <= max(1, abs(cb_wall)) * mpf(10) ** -60


@pytest.mark.parametrize("x", ["-1", "-2"])
def test_corridor_refuses_x_at_or_below_minus_1(x):
    with mp.workdps(65), pytest.raises(DomainError):
        sandwich._corridor(mpf(x), Precision(50))


def test_check_sandwich_rejects_vanishing_q():
    bad = RationalFn((0, 1), (-1, 1))  # Q = x - 1 changes sign on [0, 10]
    with pytest.raises(QVanishesError):
        check_sandwich(bad, "upper", xmax=10, grid=100)


# ---------------------------------------------------------------------------
# find_witness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("digits", [15, 50, 100])
@pytest.mark.parametrize("region", ["upper", "lower"])
def test_probe_grid_is_the_region_grid(region, digits):
    p = Precision(digits)
    grid = sandwich._probe_grid(region, p)
    assert isinstance(grid, tuple)
    assert [x._mpf_ for x in grid] == \
        [x._mpf_ for x in sandwich._region_grid(region, 1, "1e-6", 64, p)]
    assert sandwich._probe_grid(region, Precision(digits)) is grid  # built once


def _reverify_witness(w: Witness, r: RationalFn):
    """Independent doubled-precision confirmation of a witness, with the
    reported value of P/Q and with P/Q recomputed at 100 digits."""
    with mp.workdps(100):
        x = mpmath.mpmathify(w.x)
        ln_side = mpmath.ln(1 + x)
        cb_side = cb_direct(x)
        reported = w.rhs if w.side == "log" else w.lhs
        for v in (reported, r.p_value(x) / r.q_value(x)):
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
        assert KARAMATA.p_value(mpf(3)) / KARAMATA.q_value(mpf(3)) == mpf("1.5")
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


def test_witness_fallback_grids_are_budgeted(monkeypatch):
    # with no violation anywhere the search tries two grids, then gives up
    grids = []
    monkeypatch.setattr(sandwich, "_violation_margins", lambda *args: [])
    monkeypatch.setattr(sandwich, "check_sandwich", lambda r, region, grid, **kw: grids.append(grid))
    with pytest.raises(BudgetError):
        find_witness(PADE, "upper")
    assert grids == [1000, 10000]


# ---------------------------------------------------------------------------
# contact necessity
# ---------------------------------------------------------------------------


def _poly_text(coeffs) -> str:
    fixed = lambda c: mpmath.nstr(c, 60, min_fixed=-mpmath.inf, max_fixed=mpmath.inf)
    return " + ".join(f"({fixed(c)})*x^{k}" for k, c in enumerate(coeffs))


def _contact_orders_match(r: RationalFn, tol=mpf("1e-6")):
    """Tree-jet check of the fourth-order contact with ln(1+x) at 0."""
    j = jet(parse(f"({_poly_text(r.p_coeffs)})/({_poly_text(r.q_coeffs)})"), 0, 4)
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


WITNESS_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "witness_golden.json")


def _witness_corpus():
    """(name, rational, region) of the pinned witness searches."""
    fitted = fit_sandwich(3, 2, "upper", xmax=1)
    assert fitted.status == "feasible"
    return [
        ("PADE upper", PADE, "upper"),  # contact broken: probes toward 0
        ("PADE32 upper", PADE32, "upper"),  # contact matched: doubling outward
        ("PADE32 lower", PADE32, "lower"),  # contact matched: probes toward -1
        ("IDENTITY lower", IDENTITY, "lower"),
        ("fit (3,2) on [0, 1]", RationalFn(fitted.p_coeffs, fitted.q_coeffs), "upper"),
        # the benchmark's random_rational at seeds 0 and 5
        ("seed 0 upper", RationalFn((3, 0, -3), (3, 2)), "upper"),
        ("seed 5 upper", RationalFn((-1, 2, -1, 3), (3, 0, 1)), "upper"),
        ("seed 0 lower", RationalFn((3, 0, -3), (4, 2)), "lower"),
        ("seed 5 lower", RationalFn((-1, 2, -1, 3), (5, 2, 2)), "lower"),
    ]


def test_witness_bytes_are_pinned():
    # every witness keeps its 50-digit report, and the coefficient-list
    # contact test agrees with the tree jet of P/Q
    with open(WITNESS_GOLDEN) as fh:
        golden = json.load(fh)
    corpus = _witness_corpus()
    assert sorted(golden) == sorted(name for name, _, _ in corpus)
    for name, r, region in corpus:
        assert find_witness(r, region).to_json_dict(50) == golden[name], name
        assert _contact_mismatch(r, Precision(50)) == (not _contact_orders_match(r)), name


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


REPEATED_POINTS = (["0.5"] * 32, ["0.25", "0.5"] * 16)


@pytest.mark.parametrize("points", REPEATED_POINTS)
def test_fit_repeated_sample_points(points):
    # rank-deficient constraint rows: the starting basis must skip the
    # dependent rows instead of pivoting on a zero entry
    rep = fit_sandwich(3, 3, "upper", sample_points=points)
    assert rep.status == "feasible" and rep.sample_count == 32


# sha256 prefixes of the exact _mpf_ tuples (status, y, optimum) that
# _phase1_simplex returned for each fit cell, recorded while the simplex
# still ran on mpf objects (30 and 50 digits) or on libmp's mpf_mul and
# mpf_sub (100 digits); a last-bit change in any coefficient or optimum
# changes its digest.  The samples= cells were recorded while pricing
# still scanned every column through libmp at each iteration: (1,6) at
# 36 samples switches to Bland's rule, and (0,0) at 650 samples makes
# 649 bound flips against 9 pivots.
SIMPLEX_PINS = {
    "0,0,upper,xmax=1,30": "4bb08f41cd8fa029",
    "0,0,upper,xmax=1,50": "f9a41dc51ef18196",
    "0,0,upper,xmax=1,100": "016da5cb02ba0c2b",
    "0,0,upper,xmax=4,30": "b83a8a875e33d22c",
    "0,0,upper,xmax=4,50": "357902d731f3865a",
    "0,0,upper,xmax=4,100": "a94f8f23b455e866",
    "0,0,lower,delta=0.5,30": "a04f487e5ac8730b",
    "0,0,lower,delta=0.5,50": "872ec384e75da4c4",
    "0,0,lower,delta=0.5,100": "44d879f56ee48921",
    "1,1,upper,xmax=1,30": "e321ca57cda19f6e",
    "1,1,upper,xmax=1,50": "c54b562e2fe65f37",
    "1,1,upper,xmax=1,100": "7904785a72955ad6",
    "1,1,upper,xmax=4,30": "f09f06dc17b64c45",
    "1,1,upper,xmax=4,50": "673ef804af6e0bc4",
    "1,1,upper,xmax=4,100": "339369c57a1704d6",
    "1,1,lower,delta=0.5,30": "a490e0aeee105c76",
    "1,1,lower,delta=0.5,50": "9589f0c1b69c81dc",
    "1,1,lower,delta=0.5,100": "8f4373ac85cf7132",
    "2,1,upper,xmax=1,30": "65be39fa4fac7536",
    "2,1,upper,xmax=1,50": "05bd83521e069c2d",
    "2,1,upper,xmax=1,100": "97abf66fb1f059f2",
    "2,1,upper,xmax=4,30": "1a52e0c76e7535fe",
    "2,1,upper,xmax=4,50": "2a10b6d10a214cc7",
    "2,1,upper,xmax=4,100": "d3c28224eb958af7",
    "2,1,lower,delta=0.5,30": "466d89e71b88b864",
    "2,1,lower,delta=0.5,50": "b65fa736631d0fab",
    "2,1,lower,delta=0.5,100": "48c427c3bb673ccc",
    "3,2,upper,xmax=1,30": "95fbfb9e39c10996",
    "3,2,upper,xmax=1,50": "07bbcfba6e0e966d",
    "3,2,upper,xmax=1,100": "9695636407eed7a5",
    "3,2,upper,xmax=4,30": "c775d7c3dca8bab8",
    "3,2,upper,xmax=4,50": "936b816b868e9903",
    "3,2,upper,xmax=4,100": "ad16e692b9289f89",
    "3,2,lower,delta=0.5,30": "088cfeb241b2c750",
    "3,2,lower,delta=0.5,50": "17a89f9e92c1bc6a",
    "3,2,lower,delta=0.5,100": "272674788a181bd7",
    "3,3,upper,xmax=1,30": "92d38ae210a0dd42",
    "3,3,upper,xmax=1,50": "321431b7ed68bab8",
    "3,3,upper,xmax=1,100": "ff203f43fda04cda",
    "3,3,upper,xmax=4,30": "b383e3ff5304d5a2",
    "3,3,upper,xmax=4,50": "db74f69b62c3ce09",
    "3,3,upper,xmax=4,100": "891aa2b77fd1a7bc",
    "3,3,lower,delta=0.5,30": "f4f6db43930d1547",
    "3,3,lower,delta=0.5,50": "d433e3a1573a4ac6",
    "3,3,lower,delta=0.5,100": "763b6fad3aa2bf84",
    "4,4,upper,xmax=1,30": "fc8587a99d6bbcce",
    "4,4,upper,xmax=1,50": "c7030018a205bc05",
    "4,4,upper,xmax=1,100": "1414e35a1eb0bbd4",
    "4,4,upper,xmax=4,30": "0e4f9b710415a9fb",
    "4,4,upper,xmax=4,50": "a90dd9bda263f550",
    "4,4,upper,xmax=4,100": "c2f3ec75d457b614",
    "4,4,lower,delta=0.5,30": "48947cd5c6599c36",
    "4,4,lower,delta=0.5,50": "22ec1a6c4cb8393b",
    "4,4,lower,delta=0.5,100": "a98b05626c7073bf",
    "1,6,upper,xmax=1,samples=36,50": "97257e026089b7f6",
    "0,0,upper,xmax=1,samples=650,50": "ccb259fe0dec388f",
    "3,3,points=0.5": "18e16799af7c4981",
    "3,3,points=0.25,0.5": "505829b789ef2552",
}


def test_phase1_simplex_bits_are_pinned(monkeypatch):
    returned = []
    real = sandwich._phase1_simplex

    def recording(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(sandwich, "_phase1_simplex", recording)
    raw = lambda v: tuple(int(c) for c in v._mpf_)

    def digest():
        status, y, optimum = returned.pop()
        key = (status, None if y is None else [raw(c) for c in y], raw(optimum))
        return hashlib.sha256(repr(key).encode()).hexdigest()[:16]

    got = {}
    for n, m in ((0, 0), (1, 1), (2, 1), (3, 2), (3, 3), (4, 4)):
        for region, name, bound in (("upper", "xmax", "1"), ("upper", "xmax", "4"),
                                    ("lower", "delta", "0.5")):
            for digits in (30, 50, 100):
                fit_sandwich(n, m, region, p=Precision(digits), **{name: bound})
                got[f"{n},{m},{region},{name}={bound},{digits}"] = digest()
    for n, m, samples in ((1, 6, 36), (0, 0, 650)):
        fit_sandwich(n, m, "upper", xmax="1", samples=samples)
        got[f"{n},{m},upper,xmax=1,samples={samples},50"] = digest()
    for points in REPEATED_POINTS:
        fit_sandwich(3, 3, "upper", sample_points=points)
        got["3,3,points=" + ",".join(sorted(set(points)))] = digest()
    assert got == SIMPLEX_PINS


def _raw(sign, man, exp):
    """The canonical raw libmp value (-1)**sign * man * 2**exp."""
    return normalize(sign, man, exp, man.bit_length(), max(man.bit_length(), 1), "n")


def _msub_cases(prec, rng):
    """(v, f, w) triples of raw values of at most prec bits: random
    operands of both signs, exponent gaps on both sides of libmp's
    prec + 4 shortcut and up to 3,000 bits in both directions, zeros,
    ties, carries to a power of two and exact cancellations."""
    def rand(exp=None):
        bits = rng.choice((1, 2, prec // 2, prec - 1, prec, rng.randint(1, prec)))
        man = rng.getrandbits(bits) | 1 | 1 << (bits - 1)
        return _raw(rng.getrandbits(1), man, rng.randint(-40, 40) if exp is None else exp)

    cases = [(rand(), rand(), rand()) for _ in range(300)]
    for gap in (101, prec + 3, prec + 4, prec + 5, prec + 6, 2 * prec, 3000):
        for _ in range(10):
            v, f, w = rand(), rand(), rand()
            top = v[2] + v[3]
            # w scaled so that f*w's leading bit is at 2**t or 2**(t - 1)
            at = lambda t: (w[0], w[1], t - f[2] - f[3] - w[3], w[3])
            cases += [(v, f, at(top - gap)), (v, f, at(top + gap))]
    one = _raw(0, 1, 0)
    for sign in (0, 1):
        v = rand()
        cases += [(fzero, rand(), rand()), (v, fzero, rand()), (v, rand(), fzero),
                  (fzero, fzero, fzero)]
        for _ in range(10):
            # 3*w odd of prec+1 bits: the product is a tie
            w = _raw(0, rng.randrange((1 << prec) // 3 + 1, (2 << prec) // 3 - 1) | 1, 0)
            assert (3 * w[1]).bit_length() == prec + 1
            cases += [(v, _raw(sign, 3, 0), w), (fzero, _raw(sign, 3, 5), w)]
            # 2*odd -+ 1 with odd of prec bits: the difference is a tie
            odd = _raw(sign, rng.getrandbits(prec) | 1 | 1 << (prec - 1), 1)
            cases += [(odd, one, _raw(s, 1, 0)) for s in (0, 1)]
            # the rounded product cancels v exactly
            f = rand()
            cases.append((mpf_mul(f, w, prec, "n"), f, w))
        # (2**h - 1)*(2**h + 1) is 2*h > prec ones: the product carries
        h = prec // 2 + 1
        for u in (v, fzero):
            cases.append((u, _raw(sign, (1 << h) - 1, 0), _raw(0, (1 << h) + 1, -7)))
        # 2*(2**prec - 1) + 1 is prec+1 ones: the difference carries
        cases.append((_raw(sign, (1 << prec) - 1, 1), one, _raw(sign ^ 1, 1, 0)))
    return cases


@pytest.mark.parametrize("prec", (53, 219, 1700))
def test_msub_row_matches_libmp_bit_for_bit(prec):
    cases = _msub_cases(prec, random.Random(prec))
    for v, f, w in cases:
        want = mpf_sub(v, mpf_mul(f, w, prec, "n"), prec, "n")
        got = sandwich._msub_row([v], f, [w], prec)
        # == takes True for 1, so the sign's type is checked on its own
        assert got == [want] and type(got[0][0]) is int, (v, f, w)
    # one factor for a whole row, as pivot uses it
    f = cases[0][1]
    row, prow = [c[0] for c in cases], [c[2] for c in cases]
    assert sandwich._msub_row(row, f, prow, prec) == [
        mpf_sub(v, mpf_mul(f, w, prec, "n"), prec, "n") for v, w in zip(row, prow)]


def _magnitudes(prec, rng):
    """Raw values of at most prec bits around the pricing tolerance
    10**-20: the tolerance itself and its neighbours of prec bits,
    random mantissas within a few binades of it on both sides, both
    signs, and zero.  Few enough that costs drawn from them tie."""
    with mp.workprec(prec):
        tol = (mpf(10) ** -20)._mpf_
    _, man, exp, bc = tol
    wide, top = man << (prec - bc), exp + bc - prec
    vals = [tol, _raw(0, wide + 1, top), _raw(0, wide - 1, top)]
    for _ in range(6):
        bits = rng.randint(1, prec)
        vals.append(_raw(0, rng.getrandbits(bits) | 1 | 1 << (bits - 1),
                         top + prec - bits + rng.randint(-3, 3)))
    return tol, [(s,) + v[1:] for v in vals for s in (0, 1)] + [fzero]


@pytest.mark.parametrize("prec", (53, 219))
def test_size_orders_raw_values_by_magnitude(prec):
    _, vals = _magnitudes(prec, random.Random(prec))
    for a in vals:
        for b in vals:
            want = mpf_cmp(mpf_abs(a), mpf_abs(b))
            got = sandwich._size(a, prec), sandwich._size(b, prec)
            assert (got[0] > got[1]) - (got[0] < got[1]) == want, (a, b)


def _full_scan(cost, at_upper, piv_tol, prec, bland):
    """The entering column as the simplex chose it before it kept a
    sorted candidate list: every column's gain compared through libmp."""
    enter, best = -1, piv_tol
    for j in range(len(at_upper)):
        gain = mpf_neg(cost[j], prec, "n") if at_upper[j] else cost[j]
        if mpf_gt(gain, best):
            enter, best = j, gain
            if bland:
                break
    return enter


@pytest.mark.parametrize("prec", (53, 219))
@pytest.mark.parametrize("bland", (False, True))
def test_entering_order_matches_a_full_pricing_scan(prec, bland):
    rng = random.Random(2 * prec + bland)
    tol, vals = _magnitudes(prec, rng)
    floor = sandwich._size(tol, prec)
    flips = 0
    for _ in range(300):
        width = rng.randint(1, 40)
        # a cost row longer than at_upper: the identity block's columns
        # never enter, whatever their cost
        cost = [rng.choice(vals) for _ in range(width)] + [fone, (1,) + fone[1:]]
        at_upper = [rng.random() < 0.5 for _ in range(width)]
        order = iter(sandwich._entering(cost, at_upper, floor, prec, bland))
        while True:
            enter = _full_scan(cost, at_upper, tol, prec, bland)
            assert next(order, -1) == enter, (cost, at_upper)
            if enter < 0:
                break
            at_upper[enter] = not at_upper[enter]  # a bound flip
            flips += 1
    assert flips > 1000


@pytest.mark.parametrize("prec", (53, 219, 1700))
def test_round_matches_libmp_normalize(prec):
    # _msub_row rounds the product f*w inline; this checks that rounding
    # alone against libmp's normalize.  The exact product man*2**exp comes
    # in as f with w = 1, and v lies so far below it that v - f*w rounds to
    # the rounded product negated.  A product of two prec-bit mantissas has
    # at most 2*prec bits.
    rng = random.Random(prec)
    mans = [rng.getrandbits(rng.randint(1, 2 * prec)) | 1 for _ in range(500)]
    mans += [m << rng.randint(1, 70) for m in mans[:100]]  # trailing zeros
    for n in (1, 2, 3, 70):
        for _ in range(5):
            head = rng.getrandbits(prec) | 1 << (prec - 1)
            tie = head << n | 1 << (n - 1)  # to even, up or down with head's last bit
            mans += [tie, tie - 1, tie + 1]
        mans.append((1 << (prec + n)) - 1)  # all ones: carries to a power of two
    mans = [m for m in mans if m.bit_length() <= 2 * prec]
    one = _raw(0, 1, 0)
    for man in mans:
        for sign in (0, 1):
            exp = rng.randint(-3000, 3000)
            f = (sign, man, exp, man.bit_length())
            v = _raw(0, 1, exp - 2 * prec - 10)
            want = normalize(sign ^ 1, man, exp, man.bit_length(), prec, "n")
            assert sandwich._msub_row([v], f, [one], prec) == [want], (sign, man, exp)


def test_fit_validation_and_precision_guard():
    with pytest.raises(ValueError):
        fit_sandwich(9, 0)
    with pytest.raises(ValueError):
        fit_sandwich(2, 2, samples=10)
    pts = [mpf(0), mpf("1e-11")] + [mpf(i) / 10 for i in range(1, 7)]
    with pytest.raises(PrecisionError):
        fit_sandwich(0, 0, "upper", sample_points=pts)


@pytest.mark.parametrize("samples", [1, -5, 3])
def test_fit_refuses_too_few_samples_before_the_grid(monkeypatch, samples):
    monkeypatch.setattr(sandwich, "_region_grid", lambda *args: pytest.fail("grid built"))
    with pytest.raises(ValueError) as err:
        fit_sandwich(0, 0, samples=samples)
    assert str(err.value) == "need at least 8 samples for degrees (0,0)"


def test_report_serialization():
    rep = fit_sandwich(0, 0, "upper", xmax=1, samples=8)
    d = rep.to_json_dict()
    assert d["status"] == "infeasible" and d["p_coeffs"] is None
    assert isinstance(d["max_slack"], str)
    w = check_sandwich(PADE, "upper", xmax=9, grid=4)
    dw = w.to_json_dict()
    assert set(dw) == {"x", "side", "lhs", "rhs", "margin", "region"}
