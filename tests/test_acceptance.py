"""Acceptance suite: every invariant suite behind `logbound selftest`,
one test per suite, each within 10 s.

The suites in `logbound.selftest` are the only copy of these checks;
run `pytest tests/test_acceptance.py -v` to see one line per suite.
Each suite is also run once with its invariant broken, to show that
it can fail.
"""

import time

import pytest
from mpmath import mp, mpf

from logbound import bounds, certifier, exprjet, selftest
from logbound.exprjet import DEFAULT_PRECISION


@pytest.mark.parametrize("name, suite", selftest.SUITES,
                         ids=[name for name, _ in selftest.SUITES])
def test_selftest_suite(name, suite):
    t0 = time.monotonic()
    ok, detail = suite(DEFAULT_PRECISION)
    elapsed = time.monotonic() - t0
    assert ok, f"{name}: {detail}"
    assert elapsed < 10, f"{name} took {elapsed:.1f} s"


def _plus(v, shift, p):
    with mp.workdps(p.digits):
        return v + mpf(shift)


# Each entry patches the function a suite reads so that the suite's
# invariant breaks just past its tolerance: (suite, module, function,
# wrap(original) -> broken function, start of the suite's detail).
# With the suites the one copy of these checks, a suite that could no
# longer fail would pass every test above.
BROKEN = [
    ("bound-chain", bounds, "ln1p",
     lambda f: lambda x, p: _plus(f(x, p), "1e-20", p),
     "chain broken at x = 1.0e-6"),
    ("two-sided-estimate", bounds, "gap_R",
     lambda f: lambda t, p: _plus(f(t, p), "1e-20", p),
     "side 1 fails at t = 1.0"),
    ("derivatives-of-H", bounds, "H_deriv",
     lambda f: lambda n, t, p: _plus(f(n, t, p), "1e-9", p),
     "H^(0)(1) mismatch"),
    ("arctan-derivatives", bounds, "atan_deriv",
     lambda f: lambda n, x, p: _plus(f(n, x, p), "1e-9", p),
     "order 1 at x = -2"),
    ("curvature-identity", bounds, "phi_identity",
     lambda f: lambda t, p: (f(t, p)[0], _plus(f(t, p)[1], "1e-11", p)),
     "identity off at t = 0.5"),
    ("asymptote", bounds, "f_cb",
     lambda f: lambda x, p: _plus(f(x, p), mpf("2e-3") * (x + 1), p),
     "f(t^2-1)/t^2 misses 2 - pi/2"),
    ("certificates", certifier, "find_radius",
     lambda f: lambda *args, **kwargs: mpf(0),
     "eps = 1/120: no positive radius"),
    ("fifth-order-constant", certifier, "case3_constant",
     lambda f: lambda j, p, paper_literal=False: f(j, p, True),
     "j=5 constants: derived -12"),
    ("jets-vs-finite-differences", exprjet, "fd_derivative",
     lambda f: lambda e, c, k, p: (_plus(f(e, c, k, p)[0], "1e-7", p), None),
     "2*t*ln(t) at 1, order 1"),
]


@pytest.mark.parametrize("name, module, attr, wrap, starts", BROKEN,
                         ids=[b[0] for b in BROKEN])
def test_selftest_suite_fails_on_a_broken_invariant(monkeypatch, name, module,
                                                    attr, wrap, starts):
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    ok, detail = dict(selftest.SUITES)[name](DEFAULT_PRECISION)
    assert not ok and detail.startswith(starts), detail


def test_gap_monotone_sees_a_rise_below_15_digits(monkeypatch):
    p = DEFAULT_PRECISION
    ts = bounds.log_grid("1e-6", "100", 1000, p)
    k = 500
    gap_R = bounds.gap_R
    prev = gap_R(ts[k - 1], p)
    with mp.workdps(p.digits):
        rise = prev + mpf("1e-20")
    # the grid point is chosen so that R(t) + 1e-30 rounded to 15 digits
    # lands at or above the raised value: a 15-digit comparison misses it
    with mp.workdps(15):
        assert not rise > prev + mpf("1e-30")
    monkeypatch.setattr(bounds, "gap_R", lambda t, p=p: (
        rise if t == ts[k] else gap_R(t, p)))
    ok, detail = selftest._gap_monotone(p)
    assert not ok and detail.startswith("R increases")
