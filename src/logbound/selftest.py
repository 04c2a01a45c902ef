"""Built-in invariant suites behind `logbound selftest`.

Each suite returns (ok, detail); run_all runs them all and returns one
(name, "PASS" | "FAIL", detail) row per suite.  The suites are the one
copy of the paper's invariant checks: tests/test_acceptance.py runs each
of them as its own test, and they import nothing from the test harness,
so a deployed installation can be checked in place.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import mpmath
from mpmath import mp, mpf

from . import bounds, certifier, exprjet, sandwich
from .exprjet import Precision, parse

Suite = Callable[[Precision], Tuple[bool, str]]


def _chain(p: Precision):
    xs = bounds.log_grid("1e-6", "1e6", 500, p)
    slack = mpf("1e-30")
    worst = mpf("inf")
    with mp.workdps(p.digits):
        for x in xs:
            l = bounds.ln1p(x, p)
            cb = bounds.bound_value("CB", x, p)
            gaps = [cb - l] + [bounds.bound_value(bid, x, p) - cb
                               for bid in bounds.BOUNDS if bid != "CB"]
            worst = min(worst, min(gaps))
            if min(gaps) < -slack:
                return False, f"chain broken at x = {mpmath.nstr(x, 10)}"
    return True, f"500 log-spaced points, worst slack {mpmath.nstr(worst, 5)}"


def _two_sided(p: Precision):
    slack = mpf("1e-30")
    for lo, hi, sign in (("1", "100", 1), ("1e-6", "1", -1)):
        for t in bounds.log_grid(lo, hi, 500, p):
            r = bounds.gap_R(t, p).value
            if sign * r > slack:
                return False, f"side {sign} fails at t = {mpmath.nstr(t, 10)}"
    return True, "2t*ln(t) vs H(t) on both sides of t = 1, 500 points each"


def _gap_monotone(p: Precision):
    ts = bounds.log_grid("1e-6", "100", 1000, p)
    slack = mpf("1e-30")
    prev = None
    with mp.workdps(p.digits):
        for t in ts:
            r = bounds.gap_R(t, p).value
            if prev is not None and r > prev + slack:
                return False, f"R increases near t = {mpmath.nstr(t, 10)}"
            prev = r
        lim = 2 - mp.pi / 2
        r0 = bounds.gap_R("1e-8", p).value
        if abs(r0 - lim) > mpf("1e-3"):
            return False, "R(1e-8) misses the limit 2 - pi/2"
    return True, "R non-increasing on (0, 100], endpoint limit matched"


def _h_derivatives(p: Precision):
    want = [0, 2, 2, -2, 4, -8]
    jj = exprjet.jet(parse("H(t)"), 1, 5, p)
    for n in range(6):
        closed = bounds.H_deriv(n, 1, p)
        via_jet = jj.derivative(n)
        if abs(closed - want[n]) > mpf("1e-10") or abs(via_jet - want[n]) > mpf("1e-10"):
            return False, f"H^({n})(1) mismatch"
        if n >= 1:
            fd, _ = exprjet.fd_derivative(parse("H(t)"), 1, n, p)
            if abs(fd - want[n]) > mpf("1e-6"):
                return False, f"finite differences miss H^({n})(1)"
    return True, "closed form, jet and finite differences agree on H at 1"


def _atan_formula(p: Precision):
    for x in ("-2", "-0.5", "0", "0.5", "1", "3"):
        j = exprjet.jet(parse("atan(x)"), x, 8, p)
        for n in range(1, 9):
            a = bounds.atan_deriv(n, x, p)
            d = j.derivative(n)
            if abs(a - d) > mpf("1e-10") * max(1, abs(d)):
                return False, f"order {n} at x = {x}"
    return True, "closed-form arctan derivatives match jets to order 8"


def _phi(p: Precision):
    for t in ("0.5", "1", "2", "3.7"):
        lhs, rhs = bounds.phi_identity(t, p)
        if abs(lhs - rhs) > mpf("1e-12"):
            return False, f"identity off at t = {t}"
    return True, "second-derivative identity verified at 4 points"


def _asymptote(p: Precision):
    with mp.workdps(p.digits):
        t = mpf(10) ** 4
        ratio = bounds.f_cb(t * t - 1, p) / t ** 2
        target = 2 - mp.pi / 2
        if abs(ratio - target) > mpf("1e-3"):
            return False, "f(t^2-1)/t^2 misses 2 - pi/2 at t = 1e4"
    return True, "f(t^2-1)/t^2 near 2 - pi/2 at t = 1e4"


def _certificates(p: Precision):
    for eps, want in (("1/120", "IV"), ("1/60", "IV"), ("1/40", "IV"),
                      ("1/30", "none"), ("1/20", "none")):
        cert = certifier.certify(
            parse(f"H(t) - ({eps})*(t-1)^5"), "0.9", p=p,
            compute_radius=(want == "IV"),
        )
        if cert.case != want:
            return False, f"eps = {eps}: got case {cert.case}, wanted {want}"
        if want == "IV" and not (cert.radius and cert.radius > 0):
            return False, f"eps = {eps}: no positive radius"
    cert = certifier.certify(parse("2*(t-1) + (t-1)^2"), "0.5", p=p)
    if cert.case != "I" or cert.n != 1 or not cert.radius > 0:
        return False, "quadratic case-I candidate failed"
    return True, "epsilon family and case-I candidate certify as expected"


def _constants(p: Precision):
    derived = certifier.case3_constant(5, p)
    literal = certifier.case3_constant(5, p, paper_literal=True)
    if derived != 8 or literal != -12:
        return False, f"j=5 constants: derived {derived}, displayed {literal}"
    fd, _ = exprjet.fd_derivative(parse("H(t)"), 1, 5, p)
    if abs(-fd - derived) > mpf("1e-6"):
        return False, "derived constant disagrees with finite differences"
    return True, "j=5 constant: derived +8 (= -H^(5)(1) by fd), displayed form -12"


def _witnesses(p: Precision):
    corpus = [
        ("PADE", sandwich.RationalFn((0, 2, 1), (2, 2)), "upper"),
        ("KARAMATA", sandwich.RationalFn((0, 6, 1), (6, 4)), "upper"),
        ("CUBIC", sandwich.RationalFn((0, 6, 9, 5, 1), (6, 12, 9, 3)), "upper"),
        ("identity", sandwich.RationalFn((0, 1), (1,)), "lower"),
    ]
    for name, r, region in corpus:
        w = sandwich.find_witness(r, region, p)
        if w.margin <= mpf("1e-20"):
            return False, f"{name}: witness margin too small"
    return True, "guaranteed witnesses found for the classical rational bounds"


def _roundtrip(p: Precision):
    texts = [
        "2*t*ln(t)",
        "pi + (1/2)*(4+pi)*x - 2*(x+2)*atan(sqrt(x+1))",
        "H(t) - (1/60)*(t-1)^5",
        "sin(t^2 - 1/3) + t^-2",
        "-(t - 4)^3/(1 + t^2)",
    ]
    for s in texts:
        e = parse(s)
        if parse(exprjet.to_text(e)) != e:
            return False, f"round trip failed for {s!r}"
    return True, "printer/parser round trip on representative expressions"


def _jets_vs_fd(p: Precision):
    corpus = [
        ("2*t*ln(t)", "1"),
        ("t^3 - 2*t + 1/7", "0.7"),
        ("atan(t)/(1+t^2)", "0.5"),
        ("sqrt(1 + t^2)*sin(t)", "2"),
        ("ln(3 + sin(t))", "1.3"),
        ("H(t)", "2"),
        ("f(t)", "0.9"),
        ("t^-2 + sqrt(t)", "4"),
    ]
    for text, center in corpus:
        e = parse(text)
        j = exprjet.jet(e, center, 6, p)
        for k in range(1, 7):
            fd, _ = exprjet.fd_derivative(e, center, k, p)
            d = j.derivative(k)
            if abs(d - fd) > max(mpf("1e-8"), mpf("1e-8") * abs(d)):
                return False, f"{text} at {center}, order {k}"
    return True, "jets agree with the finite-difference oracle (8 expressions)"


def _fit_contradiction(p: Precision):
    rep = sandwich.fit_sandwich(0, 0, "upper", xmax=1, samples=8, p=p)
    if rep.status != "infeasible":
        return False, "constant/constant fit should be infeasible on [0, 1]"
    return True, "degree-(0,0) corridor fit is infeasible on [0, 1]"


SUITES = [
    ("bound-chain", _chain),
    ("two-sided-estimate", _two_sided),
    ("gap-monotone", _gap_monotone),
    ("derivatives-of-H", _h_derivatives),
    ("arctan-derivatives", _atan_formula),
    ("curvature-identity", _phi),
    ("asymptote", _asymptote),
    ("certificates", _certificates),
    ("fifth-order-constant", _constants),
    ("rational-witnesses", _witnesses),
    ("parse-print-roundtrip", _roundtrip),
    ("jets-vs-finite-differences", _jets_vs_fd),
    ("corridor-fit-contradiction", _fit_contradiction),
]


def run_all(p: Precision) -> List[Tuple[str, str, str]]:
    rows = []
    for name, suite in SUITES:
        try:
            ok, detail = suite(p)
        except Exception as exc:  # surface, keep running the rest
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        rows.append((name, "PASS" if ok else "FAIL", detail))
    return rows
