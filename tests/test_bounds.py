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
from logbound.exprjet import fd_derivative, jet, parse

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


def test_bound_registry_formulas_have_nonzero_denominators_on_region():
    # spot checks across each region, including the CB lower region
    for bid, spec in BOUNDS.items():
        xs = ["0", "0.5", "3", "1e4"]
        if bid == "CB":
            xs += ["-0.9999", "-0.5"]
        for x in xs:
            bound_value(bid, x)  # must not raise


def test_gap_R_anchors():
    assert gap_R(1).value == 0
    with mp.workdps(60):
        lim = 2 - mp.pi / 2
        assert abs(gap_R("1e-8").value - lim) < mpf("1e-3")
        assert abs(gap_R(2).value - mpf(R2)) < mpf("1e-40")
        # independent oracle: R(2) = 4 ln 2 - f(3)
        assert abs(gap_R(2).value - (4 * mpmath.ln(2) - f_cb(3))) < mpf("1e-45")
        f3 = mp.pi + mpf(3) / 2 * (4 + mp.pi) - 10 * mpmath.atan(2)
        assert abs(gap_R(2).value - (4 * mpmath.ln(2) - f3)) < mpf("1e-40")
    with pytest.raises(DomainError):
        gap_R(0)


def test_gap_R_range_on_unit_interval():
    # forced interval: 0 <= R(t) < 2 - pi/2 on (0, 1]
    with mp.workdps(60):
        lim = 2 - mp.pi / 2
        for t in log_grid("1e-10", 1, 200):
            r = gap_R(t).value
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
                fd, _ = fd_derivative(h, t, n)
                assert abs(closed - fd) <= mpf("1e-8") * max(1, abs(closed))


def test_atlas_rows_shape():
    rows = atlas_rows(linear_grid(0, 10, 11))
    assert len(rows) == 11 and all(len(r) == len(ATLAS_COLUMNS) for r in rows)
    # first row is the all-zero contact point
    assert all(v == 0 for v in rows[0])


@pytest.mark.parametrize("lo, hi, count", [("-0.1", 0, 4), ("-0.7", 0, 7), (0, "0.1", 4)])
def test_linear_grid_ends_exactly_at_hi(lo, hi, count):
    # lo + (hi - lo) * 3 / 3 misses hi = 0 by 1.7e-52 for lo = -0.1
    with mp.workdps(50):
        assert linear_grid(lo, hi, count)[-1] == mpf(hi)
