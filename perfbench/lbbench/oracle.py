"""Independent correctness oracle.

Every operation's output is checked against the mathematics, at doubled
precision, with formulas written here rather than taken from the
program wherever that is possible: the corridor bound, H and ln(1+x)
come straight from mpmath.  The witness margins are recomputed through
``bounds.ln1p`` and ``bounds.bound_value("CB")`` as a second route.

``check(op, rc, text, obj)`` returns None when the output is right and
a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json

import mpmath
from mpmath import mp, mpf

from logbound import bounds
from logbound.exprjet import Precision

DIGITS2 = 100  # doubled default precision
SLACK = mpf("1e-40")  # the certifier's condition tolerance at 50 digits
WITNESS_MARGIN = mpf("1e-20")
CHAIN_SLACK = mpf("1e-30")
ATLAS = ("x", "ln1p", "sqrt", "pade", "karamata", "cubic", "cb")


def _num(s) -> mpf:
    with mp.workdps(DIGITS2):
        return mpf(str(s))


def _cb(x):
    r = mpmath.sqrt(x + 1)
    return (mp.pi + (4 + mp.pi) * x / 2 - 2 * (x + 2) * mpmath.atan(r)) / r


def _H(t):
    return mp.pi + (4 + mp.pi) * (t * t - 1) / 2 - 2 * (t * t + 1) * mpmath.atan(t)


def _horner(coeffs, x):
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _close(a, b, rel=mpf("1e-40")) -> bool:
    return abs(a - b) <= rel * max(1, abs(a), abs(b))


# ---------------------------------------------------------------------------
# certify / radius
# ---------------------------------------------------------------------------

UNKNOWN = "unknown"  # a field the report format does not carry


def _parse_certify(command: str, fmt: str, text: str):
    """(case, n, radius string or None, pass flags); fields the format
    does not carry are UNKNOWN."""
    if fmt == "json":
        d = json.loads(text)
        flags = [c["pass"] for c in d["conditions"]] if "conditions" in d else UNKNOWN
        return d["case"], d["n"], d["radius"], flags
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if command == "radius":
            case, n, radius = rows[1]
            return case, int(n) if n else None, radius or None, UNKNOWN
        return UNKNOWN, UNKNOWN, None, [r[4] == "true" for r in rows[1:]]
    lines = text.splitlines()
    if command == "radius":
        if lines[0] == "no certificate: no radius":
            return "none", UNKNOWN, None, UNKNOWN
        head, radius = lines[0].split(": verified radius ")
        return head.split()[1], UNKNOWN, radius, UNKNOWN
    first = lines[0].split()
    case = first[1]
    n = int(first[4].rstrip(")")) if len(first) > 2 else None
    radius = None
    for line in lines:
        if line.startswith("verified radius: "):
            radius = line.split(": ", 1)[1]
    flags = [line.strip().startswith("[pass]") for line in lines if line.startswith("  [")]
    return case, n, radius, flags


def _pattern_violation(expect, r: mpf):
    """First t of an independent grid on [1-r, 1+r] where the certified
    pattern fails at doubled precision, or None."""
    two_sided = expect["family"] == "A"
    with mp.workdps(DIGITS2):
        if expect["family"] == "A":
            eps = mpf(expect["eps"])
            P = lambda t: _H(t) - eps * (t - 1) ** 5
        else:
            c = mpf(expect["c"])
            P = lambda t: 2 * t * mpmath.ln(t) + c * (t - 1) ** 3
        K = 64
        for u in [(i - mpf("0.5")) / K for i in range(1, K + 1)] + [mpf(1)]:
            for t in (1 + r * u, 1 - r * u):
                if t <= 0:
                    return t
                p = P(t)
                g = p - 2 * t * mpmath.ln(t)
                q = p - _H(t)
                sign = 1 if t >= 1 else -1
                if sign * g < -SLACK or (two_sided and sign * q > SLACK):
                    return t
    return None


def check_certify(e, rc, text):
    if rc != e["rc"]:
        return f"exit {rc}, expected {e['rc']}"
    case, n, radius, flags = _parse_certify(e["command"], e["format"], text)
    if case is not UNKNOWN and case != e["case"]:
        return f"case {case}, expected {e['case']}"
    if n is not UNKNOWN and n != e["n"]:
        return f"n = {n}, expected {e['n']}"
    if flags is not UNKNOWN and all(flags) != (e["case"] != "none"):
        return "condition pass flags contradict the expected verdict"
    has_radius = e["format"] != "csv" or e["command"] == "radius"
    if e["case"] == "none" or not has_radius:
        return None if radius is None else "unexpected radius"
    if radius is None:
        return "missing radius"
    r, a = _num(radius), _num(e["a"])
    if e["family"] == "C" and r != a:
        return f"radius {radius}, expected a = {e['a']}"
    if not 0 < r <= a:
        return f"radius {radius} outside (0, a]"
    bad = _pattern_violation(e, r)
    if bad is not None:
        return f"pattern fails at t = {mpmath.nstr(bad, 20)} inside radius {radius}"
    return None


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _sample_grid(region: str, bound: str, samples: int):
    with mp.workdps(DIGITS2):
        lo, hi = (mpf(0), mpf(bound)) if region == "upper" else (mpf(-1) + mpf(bound), mpf(0))
        return [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]


def check_fit(e, rc, text):
    if rc != 0:
        return f"exit {rc}"
    d = json.loads(text)
    n, m, region, bound, samples = e["cell"]
    if (d["degree_p"], d["degree_q"], d["region"], d["samples"]) != (n, m, region, samples):
        return "report describes another cell"
    if d["status"] != e["status"]:
        return f"status {d['status']}, reference {e['status']}"
    slack = _num(d["max_slack"])
    if d["status"] == "infeasible":
        if d["p_coeffs"] is not None or not slack < 0:
            return "infeasible report with coefficients or non-negative slack"
        return None
    with mp.workdps(DIGITS2):
        a = [mpf(c) for c in d["p_coeffs"]]
        b = [mpf(c) for c in d["q_coeffs"]]
        if len(a) != n + 1 or len(b) != m + 1:
            return "coefficient count does not match the degrees"
        for x in _sample_grid(region, bound, samples):
            P, Q = _horner(a, x), _horner(b, x)
            tol = mpf("1e-30") * (1 + _horner([abs(c) for c in a + b], abs(x)))
            ln, cb = mpmath.log1p(x), _cb(x)
            low, high = (ln, cb) if region == "upper" else (cb, ln)
            if Q < 1 - tol:
                return f"Q < 1 at x = {mpmath.nstr(x, 12)}"
            if P - low * Q < -tol or high * Q - P < -tol:
                return f"P/Q leaves the corridor at sample x = {mpmath.nstr(x, 12)}"
    return None


# ---------------------------------------------------------------------------
# scan: witnesses, grid checks, table, compare
# ---------------------------------------------------------------------------


def _witness_margin(p, q, region, x, side):
    """Margin of the violated inequality at x, recomputed at doubled
    precision through bounds.ln1p and bounds.bound_value("CB")."""
    p2 = Precision(DIGITS2)
    with mp.workdps(DIGITS2):
        v = _horner([mpf(c) for c in p], x) / _horner([mpf(c) for c in q], x)
        ln = bounds.ln1p(x, p2)
        cb = bounds.bound_value("CB", x, p2)
        if side == "log":
            return ln - v if region == "upper" else v - ln
        return v - cb if region == "upper" else cb - v


def _in_region(x, region) -> bool:
    return x >= 0 if region == "upper" else -1 < x <= 0


def check_witness(e, w):
    p, q, region = e["args"]
    if w.region != region or w.side not in ("log", "cb"):
        return "witness for another region or side"
    if not _in_region(w.x, region):
        return f"witness x = {mpmath.nstr(w.x, 12)} outside the region"
    margin = _witness_margin(p, q, region, w.x, w.side)
    if not margin > WITNESS_MARGIN:
        return f"recomputed margin {mpmath.nstr(margin, 8)} <= 1e-20"
    return None


def _expected_grid_witness(e):
    """Index and x of the first grid point whose violation margin
    clearly exceeds 1e-20 (None if there is none), computed with the
    formulas of this module; raises ValueError on a margin too close to
    the threshold to call."""
    region = e["region"]
    with mp.workdps(DIGITS2):
        xs = _sample_grid(region, e["bound"], e["grid"])
        a = [mpf(c) for c in e["p"]]
        b = [mpf(c) for c in e["q"]]
        for x in xs:
            v = _horner(a, x) / _horner(b, x)
            ln, cb = mpmath.log1p(x), _cb(x)
            m = max(ln - v, v - cb) if region == "upper" else max(v - ln, cb - v)
            if m > mpf("1e-15"):
                return x
            if m > mpf("1e-26"):
                raise ValueError(f"margin {mpmath.nstr(m, 5)} too close to the threshold")
    return None


def _parse_check(fmt, text):
    """(status, x string or None, side or None)."""
    if fmt == "json":
        d = json.loads(text)
        return d["status"], d.get("x"), d.get("side")
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0][0] == "status":
            return rows[1][0], None, None
        return "witness", rows[1][0], rows[1][1]
    if text.startswith("sandwich holds"):
        return "holds-on-grid", None, None
    x = text[len("witness at x = "):].split(":", 1)[0]
    side = "log" if "ln(1+x) comparison fails" in text else "cb"
    return "witness", x, side


def check_sandwich_cli(e, rc, text):
    try:
        want = _expected_grid_witness(e)
    except ValueError as exc:
        return f"ambiguous input: {exc}"
    status, xs, side = _parse_check(e["format"], text)
    if want is None:
        if (status, rc) != ("holds-on-grid", 0):
            return f"{status} (exit {rc}), expected holds-on-grid"
        return None
    if (status, rc) != ("witness", 1):
        return f"{status} (exit {rc}), expected a witness"
    x = _num(xs)
    if not _close(x, want):
        return f"witness x = {xs}, expected the first violating grid point {mpmath.nstr(want, 20)}"
    margin = _witness_margin(e["p"], e["q"], e["region"], x, side)
    if not margin > WITNESS_MARGIN:
        return f"recomputed margin {mpmath.nstr(margin, 8)} <= 1e-20"
    return None


def _parse_table(fmt, text):
    if fmt == "json":
        return [[row[c] for c in ATLAS] for row in json.loads(text)]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
    else:
        rows = [line.split() for line in text.splitlines()]
    if tuple(rows[0]) != ATLAS:
        raise ValueError("unexpected table header")
    return rows[1:]


def check_table(e, rc, text):
    if rc != 0:
        return f"exit {rc}"
    rows = _parse_table(e["format"], text)
    if len(rows) != e["points"]:
        return f"{len(rows)} rows, expected {e['points']}"
    with mp.workdps(DIGITS2):
        a, b, k = _num(e["xmin"]), _num(e["xmax"]), e["points"] - 1
        for i, row in enumerate(rows):
            if e["log"]:
                x = mpmath.exp(mpmath.ln(a) + (mpmath.ln(b) - mpmath.ln(a)) * i / k)
            else:
                x = a + (b - a) * i / k
            vals = [_num(v) for v in row]
            if not _close(vals[0], x, mpf("1e-45")):
                return f"row {i}: x = {row[0]}, expected {mpmath.nstr(x, 20)}"
            if not _close(vals[1], mpmath.log1p(x), mpf("1e-45")):
                return f"row {i}: ln1p column is wrong"
            if not _close(vals[6], _cb(x), mpf("1e-45")):
                return f"row {i}: cb column is wrong"
            cb = vals[6]
            if cb - vals[1] < -CHAIN_SLACK or min(vals[2:6]) - cb < -CHAIN_SLACK:
                return f"row {i}: bound chain ln1p <= cb <= others fails"
    return None


def check_compare(e, rc, text):
    if rc != 0:
        return f"exit {rc}"
    fmt = e["format"]
    if fmt == "json":
        d = json.loads(text)
        ok = (d["chain_holds"] is True and d["grid"]["points"] == e["points"]
              and len(d["tightness"]) == 5
              and all(r["violations"] == "0" for r in d["tightness"]))
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        ok = len(rows) == 5 and all(r[3] == "0" for r in rows)
    else:
        lines = text.splitlines()
        ok = len(lines) == 8 and lines[-1] == "chain holds"
    return None if ok else "compare report does not show the chain holding"


def check(op, rc, text, obj):
    """None if the operation's output is right, else the reason."""
    if op.kind == "witness":
        return check_witness({"args": op.args}, obj)
    e = op.expect
    command = op.args[0]
    if command in ("certify", "radius"):
        return check_certify(e, rc, text)
    if command == "table":
        return check_table(e, rc, text)
    if command == "compare":
        return check_compare(e, rc, text)
    if op.args[1] == "fit":
        return check_fit(e, rc, text)
    return check_sandwich_cli(e, rc, text)
