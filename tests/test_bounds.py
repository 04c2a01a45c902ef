"""Bound family, gap function, and closed-form derivative identities."""

import mpmath
import pytest
from mpmath import mp, mpf

from logbound.bounds import (
    ATLAS_COLUMNS,
    BOUNDS,
    H_deriv,
    H_value,
    atan_deriv,
    atlas_rows,
    bound_value,
    f_cb,
    gap_R,
    linear_grid,
    ln1p,
    log_grid,
    phi_identity,
)
from logbound.errors import DomainError, OutOfRegionError
from logbound.exprjet import (GUARD_DIGITS, Precision, decimal_text, eval_expr, fd_derivative, jet,
                              parse)

# 50-digit oracle anchors (independent high-precision evaluation of the
# closed forms; see also the values re-derived inline below)
F3 = "2.7824944560335780659859538564133868097924470444234"
CB3 = "1.3912472280167890329929769282066934048962235222117"
R2 = "-0.0099057337937968283170253705806805374904465069824171"


def test_f_cb_anchors():
    assert f_cb(0) == 0
    with mp.workdps(60):
        assert abs(f_cb(-1) - (mp.pi / 2 - 2)) < mpf("1e-48")
        assert abs(f_cb(3) - mpf(F3)) < mpf("1e-45")
    with pytest.raises(DomainError):
        f_cb("-1.0000001")


# 50-digit report strings of f, H and R, as the closed form
# pi + (4+pi)*x/2 - 2*(x+2)*atan(sqrt(x+1)) evaluated directly gives them
F_PINS = {
    "-1": "-0.42920367320510338076867830836024855790141530031245",
    "-0.75": "-0.69562361400839451649648846410334670244811176110586",
    "0": "0.0",
    "1e-20": "9.9999999999999999999999999999999999999999583333966e-21",
    "0.5": "0.49660519802417302136218611945594147439990479649443",
    "3": "2.7824944560335780659859538564133868097924470444234",
    "123.456": "72.277471814206106455664752648584384715565032433941",
    "1e4": "4488.9184715475579295815338348655941601705333071668",
}

H_PINS = {
    "1e-3": "-0.43120010374210965253884002935601727601430309407815",
    "0.1": "-0.59482638796930170988082625359745263577185166477429",
    "0.5": "-0.69562361400839451649648846410334670244811176110586",
    "1": "0.0",
    "1.5": "1.216928860975775070594676526233863092590696825379",
    "2": "2.7824944560335780659859538564133868097924470444234",
    "30": "442.75694413039959534795747164913584244080116956576",
    "1e4": "42940363.749847344615037878272512687953564691147667",
}

R_PINS = {
    "1e-3": "0.41738459318414537843473208062791109076869648514638",
    "0.1": "0.13430936937049257307722796266057979425163136704853",
    "0.5": "0.0024764334484492070792563426451701343726116267456043",
    "1": "0.0",
    "1.5": "-0.00053353665128192466063717984081568287472555499147875",
    "2": "-0.0099057337937968283170253705806805374904465069824171",
    "30": "-238.68510123067027282316327015272244770588564677867",
    "1e4": "-42756156.942407820960316438956137938816956603028577",
}


def test_f_H_R_report_strings_are_pinned():
    for fn, pins in ((f_cb, F_PINS), (H_value, H_PINS), (gap_R, R_PINS)):
        for x, text in pins.items():
            assert decimal_text(fn(x), 50) == text, x


def test_bound_value_anchors():
    assert bound_value("PADE", 3) == mpf(15) / 8
    with mp.workdps(60):
        cb3 = bound_value("CB", 3)
        assert abs(cb3 - mpf(CB3)) < mpf("1e-45")
        assert ln1p(3) <= cb3
    assert bound_value("KARAMATA", 0) == 0
    with pytest.raises(OutOfRegionError):
        bound_value("SQRT", -1)
    with pytest.raises(OutOfRegionError):
        bound_value("CB", -1)


@pytest.mark.parametrize("x", ["1e-70", "1e-40", "-1e-30"])
def test_ln1p_keeps_its_digits_near_0(x):
    # 1 + x rounded at digits+15 would keep only about 65 + log10|x| of them
    with mp.workdps(150):
        want = mpmath.log1p(mpf(x))
    with mp.workdps(50):
        assert ln1p(x) == +want


@pytest.mark.parametrize("digits", [15, 50, 100])
def test_ln1p_has_the_bits_of_log1p(digits):
    # ln of the exact 1+x at digits+15, rounded to digits, is log1p's
    # value at digits+15 rounded to digits, near 0, near -1 and far out
    p = Precision(digits)
    with mp.workdps(digits + GUARD_DIGITS):
        xs = log_grid("1e-70", "1e6", 500, p)
        xs += [-1 + mpf(10) ** -k for k in range(1, digits + GUARD_DIGITS)]
        xs += [s * mpf(10) ** -k for k in range(1, 2 * (digits + GUARD_DIGITS)) for s in (1, -1)]
        want = [mpmath.log1p(x) for x in xs]
    with mp.workdps(digits):
        want = [(+v)._mpf_ for v in want]
    assert [ln1p(x, p)._mpf_ for x in xs] == want


@pytest.mark.parametrize("fn", [f_cb, gap_R, phi_identity, lambda t: H_deriv(1, t), ln1p],
                         ids=["f_cb", "gap_R", "phi_identity", "H_deriv", "ln1p"])
def test_nan_argument_is_a_domain_error(fn):
    # a check written as the domain's negation is true for NaN
    with pytest.raises(DomainError):
        fn("nan")


def test_bound_registry_formulas_have_nonzero_denominators_on_region():
    # spot checks across each region, including the CB lower region
    for bid, spec in BOUNDS.items():
        xs = ["0", "0.5", "3", "1e4"]
        if bid == "CB":
            xs += ["-0.9999", "-0.5"]
        for x in xs:
            bound_value(bid, x)  # must not raise


def test_gap_R_anchors():
    assert gap_R(1) == 0
    with mp.workdps(60):
        lim = 2 - mp.pi / 2
        assert abs(gap_R("1e-8") - lim) < mpf("1e-3")
        assert abs(gap_R(2) - mpf(R2)) < mpf("1e-40")
        # independent oracle: R(2) = 4 ln 2 - f(3)
        assert abs(gap_R(2) - (4 * mpmath.ln(2) - f_cb(3))) < mpf("1e-45")
        f3 = mp.pi + mpf(3) / 2 * (4 + mp.pi) - 10 * mpmath.atan(2)
        assert abs(gap_R(2) - (4 * mpmath.ln(2) - f3)) < mpf("1e-40")
    with pytest.raises(DomainError):
        gap_R(0)


def test_gap_R_range_on_unit_interval():
    # forced interval: 0 <= R(t) < 2 - pi/2 on (0, 1]
    with mp.workdps(60):
        lim = 2 - mp.pi / 2
        for t in log_grid("1e-10", 1, 200):
            r = gap_R(t)
            assert r >= -mpf("1e-30")
            assert r < lim


def test_phi_identity():
    lhs, rhs = phi_identity(1)
    assert abs(lhs) < mpf("1e-40") and rhs == 0
    with mp.workdps(60):
        lhs, rhs = phi_identity(2)
        assert abs(rhs - mpf(-9) / 100) < mpf("1e-45")  # -(3^2)/(2^2*5^2) exactly
        assert abs(lhs - rhs) < mpf("1e-12")
        lhs, rhs = phi_identity("0.5")
        assert abs(rhs - mpf(-36) / 25) < mpf("1e-45")
        assert abs(lhs - rhs) < mpf("1e-12")
    with pytest.raises(DomainError):
        phi_identity(0)


def test_atan_deriv_anchors():
    assert atan_deriv(1, 0) == 1
    assert abs(atan_deriv(2, 1) - mpf("-0.5")) < mpf("1e-45")
    assert abs(atan_deriv(3, 0) - (-2)) < mpf("1e-45")
    with pytest.raises(ValueError):
        atan_deriv(0, 1)


def test_H_deriv_known_values_at_1():
    want = [0, 2, 2, -2, 4, -8]
    for n, w in enumerate(want):
        assert abs(H_deriv(n, 1) - w) < mpf("1e-45")
    assert H_deriv(0, 1) == H_value(1)
    with pytest.raises(DomainError):
        H_deriv(1, 0)
    # entire in t for the value itself
    assert abs(H_deriv(0, -1) - H_value(1)) < mpf("1e-45")


def test_H_deriv_cross_checked_against_jets_and_fd():
    h = parse("H(t)")
    for t in ("0.5", "1", "2"):
        j = jet(h, t, 7)
        for n in range(8):
            closed = H_deriv(n, t)
            assert abs(closed - j.derivative(n)) <= mpf("1e-8") * max(1, abs(closed))
            if n >= 1:
                fd = fd_derivative(h, t, n)
                assert abs(closed - fd) <= mpf("1e-40") * max(1, abs(closed))


def test_atlas_rows_shape():
    rows = atlas_rows(linear_grid(0, 10, 11))
    assert len(rows) == 11 and all(len(r) == len(ATLAS_COLUMNS) for r in rows)
    # first row is the all-zero contact point
    assert all(v == 0 for v in rows[0])


@pytest.mark.parametrize("digits", [15, 50, 100])
@pytest.mark.parametrize("lo", ["1e-70", "1e-6"])
def test_atlas_rows_have_the_bits_of_ln1p_and_bound_value(digits, lo):
    # one walk of the family's tape per row gives each bound's own
    # value, and each bound's value is its formula's eval_expr
    p = Precision(digits)
    xs = log_grid(lo, "1e6", 500, p)
    want = [[x, ln1p(x, p), *(bound_value(b, x, p) for b in BOUNDS)] for x in xs]
    assert [[v._mpf_ for v in row] for row in atlas_rows(xs, p)] == \
        [[v._mpf_ for v in row] for row in want]
    for x in xs[::25]:
        for b, spec in BOUNDS.items():
            assert bound_value(b, x, p)._mpf_ == eval_expr(spec.formula, x, p)._mpf_
        assert f_cb(x, p)._mpf_ == eval_expr(parse("f(x)"), x, p)._mpf_
        t = mpmath.sqrt(x + 1)
        assert gap_R(t, p)._mpf_ == eval_expr(parse("2*t*ln(t) - H(t)"), t, p)._mpf_


def test_atlas_rows_keep_the_row_x_at_the_callers_precision():
    # the x cell is x as the caller reads it; the values read x at digits+15
    p = Precision(50)
    with mp.workdps(20):
        (row,) = atlas_rows(["0.1"], p)
        assert row[0]._mpf_ == mpf("0.1")._mpf_
    assert [v._mpf_ for v in row[1:]] == \
        [ln1p("0.1", p)._mpf_] + [bound_value(b, "0.1", p)._mpf_ for b in BOUNDS]


@pytest.mark.parametrize("x, error, text", [
    ("-1", DomainError, "ln(1+x) requires x > -1"),
    ("nan", DomainError, "ln(1+x) requires x > -1"),
    ("-0.5", OutOfRegionError, "SQRT is valid for x >= 0.0, got -0.5"),
])
def test_atlas_rows_raise_ln1p_first_then_the_regions_in_order(x, error, text):
    with pytest.raises(error) as err:
        atlas_rows(["1", x])
    assert str(err.value) == text


@pytest.mark.parametrize("lo, hi, count", [("-0.1", 0, 4), ("-0.7", 0, 7), (0, "0.1", 4)])
def test_linear_grid_ends_exactly_at_hi(lo, hi, count):
    # lo + (hi - lo) * 3 / 3 misses hi = 0 by 1.7e-52 for lo = -0.1
    with mp.workdps(50):
        assert linear_grid(lo, hi, count)[-1] == mpf(hi)
