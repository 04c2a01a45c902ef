"""Command-line interface.

Subcommands: table, compare, certify, radius, sandwich check,
sandwich fit, selftest.  Exit codes: 0 = checks passed / artifact
produced; 1 = a violation or infeasibility was found where the
inequality was asserted to hold (the payload carries the witness);
2 = usage or domain error.

All real numbers in reports are decimal strings at the working
precision; byte output for fixed argv and version is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from typing import List, Optional

import mpmath
from mpmath import mp, mpf

from . import __version__, bounds, certifier, sandwich, selftest
from .errors import LogboundError
from .exprjet import Precision, parse

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2


def _dec(v, digits: int) -> str:
    with mp.workdps(digits):
        return mpmath.nstr(+mpmath.mpmathify(v), digits)


def _emit(text: str, out_path: Optional[str]):
    """Write the report, atomically when a path is given."""
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    d = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".logbound-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_table(args) -> int:
    p = Precision(args.digits)
    if args.xmin < 0:
        raise LogboundError("table covers the upper region only (xmin >= 0)")
    if args.log:
        if args.xmin <= 0:
            raise LogboundError("--log needs xmin > 0")
        xs = bounds.log_grid(str(args.xmin), str(args.xmax), args.points, p)
    else:
        xs = bounds.linear_grid(str(args.xmin), str(args.xmax), args.points, p)
    rows = bounds.atlas_rows(xs, p)
    str_rows = [[_dec(v, args.digits) for v in row] for row in rows]
    if args.format == "csv":
        text = _csv_text(bounds.ATLAS_COLUMNS, str_rows)
    elif args.format == "json":
        text = json.dumps(
            [dict(zip(bounds.ATLAS_COLUMNS, row)) for row in str_rows], indent=2
        )
    else:
        widths = [max(map(len, col)) for col in zip(bounds.ATLAS_COLUMNS, *str_rows)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(bounds.ATLAS_COLUMNS, widths))]
        lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in str_rows]
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    p = Precision(args.digits)
    with mp.workdps(args.digits):
        slack = mpf(args.slack)
    xs = bounds.log_grid(str(args.xmin), str(args.xmax), args.points, p)
    order = tuple(bid for bid in bounds.BOUNDS if bid != "CB")
    stats = {bid: {"max_gap_ln": mpf(0), "min_gap_cb": mpf("inf"), "violations": 0}
             for bid in ("CB",) + order}
    violations = 0
    with mp.workdps(p.digits):
        for x in xs:
            l = bounds.ln1p(x, p)
            cb = bounds.bound_value("CB", x, p)
            s = stats["CB"]
            s["max_gap_ln"] = max(s["max_gap_ln"], cb - l)
            s["min_gap_cb"] = min(s["min_gap_cb"], cb - l)
            if cb - l < -slack:
                s["violations"] += 1
            for bid in order:
                v = bounds.bound_value(bid, x, p)
                s = stats[bid]
                s["max_gap_ln"] = max(s["max_gap_ln"], v - l)
                s["min_gap_cb"] = min(s["min_gap_cb"], v - cb)
                if v - cb < -slack:
                    s["violations"] += 1
        violations = sum(s["violations"] for s in stats.values())
    header = ("bound", "max_gap_to_ln1p", "min_gap_to_cb", "violations")
    rows = [
        (bid, _dec(s["max_gap_ln"], args.digits), _dec(s["min_gap_cb"], args.digits),
         str(s["violations"]))
        for bid, s in stats.items()
    ]
    if args.format == "csv":
        text = _csv_text(header, rows)
    elif args.format == "json":
        text = json.dumps(
            {
                "grid": {"xmin": str(args.xmin), "xmax": str(args.xmax), "points": args.points},
                "tightness": [dict(zip(header, r)) for r in rows],
                "chain_holds": violations == 0,
            },
            indent=2,
        )
    else:
        lines = [
            "tightness over [%s, %s], %d log-spaced points" % (args.xmin, args.xmax, args.points),
            "(CB row compares against ln(1+x); others against CB)",
        ]
        for r in rows:
            lines.append(f"  {r[0]:<9} max gap {r[1]:>18}  min gap {r[2]:>18}  violations {r[3]}")
        lines.append("chain holds" if violations == 0 else "CHAIN VIOLATED")
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_OK if violations == 0 else EXIT_FINDING


def _certify_text(cert: certifier.Certificate, digits: int) -> str:
    lines = [f"case: {cert.case}" + (f" (n = {cert.n})" if cert.n is not None else "")]
    if cert.case == "none" and cert.nearest_miss:
        lines.append(f"nearest miss: {cert.nearest_miss}")
    lines.append(f"mode: {cert.mode}")
    for c in cert.conditions:
        lines.append(
            f"  [{'pass' if c.passed else 'FAIL'}] {c.label}: "
            f"target {_dec(c.target, digits)}  actual {_dec(c.actual, digits)}  "
            f"margin {_dec(c.margin, digits)}"
        )
    if cert.radius is not None:
        lines.append(f"verified radius: {_dec(cert.radius, digits)}")
    if cert.direction_pair:
        pattern = {
            "dr": "2t*ln(t) <= P on [1, 1+r], >= on [1-r, 1]",
            "drr": "2t*ln(t) <= P <= H on [1, 1+r], reversed on [1-r, 1]",
        }[cert.direction_pair]
        lines.append(f"pattern: {pattern}")
    p = Precision(digits)
    d5 = certifier.case3_constant(5, p)
    l5 = certifier.case3_constant(5, p, paper_literal=True)
    lines.append(
        "fifth-order constant: derived %s (= -H^(5)(1)), displayed form %s"
        % (_dec(d5, digits), _dec(l5, digits))
    )
    return "\n".join(lines)


def _run_certify(args):
    p = Precision(args.digits)
    expr = parse(args.expr)
    return certifier.certify(
        expr,
        str(args.a),
        max_n=args.max_n,
        p=p,
        paper_literal=args.paper_literal,
        compute_radius=not args.no_radius,
    )


def _cmd_certify(args) -> int:
    cert = _run_certify(args)
    if args.format == "json":
        text = cert.to_json()
    elif args.format == "csv":
        header = ("label", "target", "actual", "margin", "pass")
        rows = [
            (c.label, _dec(c.target, args.digits), _dec(c.actual, args.digits),
             _dec(c.margin, args.digits), str(c.passed).lower())
            for c in cert.conditions
        ]
        text = _csv_text(header, rows)
    else:
        text = _certify_text(cert, args.digits)
    _emit(text, args.out)
    return EXIT_OK if cert.case != "none" else EXIT_FINDING


def _cmd_radius(args) -> int:
    cert = _run_certify(args)
    payload = {
        "case": cert.case,
        "n": cert.n,
        "radius": _dec(cert.radius, args.digits) if cert.radius is not None else None,
    }
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    elif args.format == "csv":
        text = _csv_text(("case", "n", "radius"),
                         [(payload["case"], payload["n"], payload["radius"])])
    else:
        if cert.case == "none":
            text = "no certificate: no radius"
        else:
            text = f"case {cert.case}: verified radius {payload['radius']}"
    _emit(text, args.out)
    return EXIT_OK if cert.case != "none" else EXIT_FINDING


def _parse_rational(args, p: Precision) -> sandwich.RationalFn:
    pc = sandwich.expr_to_poly(parse(args.p), p)
    qc = sandwich.expr_to_poly(parse(args.q), p)
    return sandwich.RationalFn(tuple(pc), tuple(qc))


def _cmd_sandwich_check(args) -> int:
    p = Precision(args.digits)
    r = _parse_rational(args, p)
    w = sandwich.check_sandwich(
        r, args.region, xmax=str(args.xmax), delta=str(args.delta), grid=args.grid, p=p
    )
    if w is None:
        payload = {"status": "holds-on-grid", "region": args.region, "grid": args.grid}
        if args.format == "json":
            text = json.dumps(payload, indent=2)
        elif args.format == "csv":
            text = _csv_text(("status", "region", "grid"),
                             [("holds-on-grid", args.region, args.grid)])
        else:
            text = f"sandwich holds on the {args.grid}-point grid ({args.region} region)"
        _emit(text, args.out)
        return EXIT_OK
    if args.format == "json":
        text = json.dumps({"status": "witness", **w.to_json_dict(args.digits)}, indent=2)
    elif args.format == "csv":
        d = w.to_json_dict(args.digits)
        text = _csv_text(("x", "side", "lhs", "rhs", "margin", "region"),
                         [(d["x"], d["side"], d["lhs"], d["rhs"], d["margin"], d["region"])])
    else:
        rel = "ln(1+x)" if w.side == "log" else "corridor bound"
        text = (
            f"witness at x = {_dec(w.x, args.digits)}: {rel} comparison fails "
            f"({_dec(w.lhs, args.digits)} vs {_dec(w.rhs, args.digits)}, "
            f"margin {_dec(w.margin, args.digits)})"
        )
    _emit(text, args.out)
    return EXIT_FINDING


def _cmd_sandwich_fit(args) -> int:
    p = Precision(args.digits)
    degrees = [tuple(int(v) for v in d.split(",")) for d in args.deg]
    for d in degrees:
        if len(d) != 2:
            raise LogboundError("--deg expects n,m")
    xmaxes = args.xmax if args.xmax else [1.0]
    reports = {}
    for (n, m) in degrees:
        for X in xmaxes:
            reports[(n, m, X)] = sandwich.fit_sandwich(
                n, m, args.region, xmax=str(X), delta=str(args.delta),
                samples=args.samples, p=p,
            )
    if len(reports) == 1:
        rep = next(iter(reports.values()))
        if args.format == "json":
            text = rep.to_json(args.digits)
        elif args.format == "csv":
            d = rep.to_json_dict(args.digits)
            text = _csv_text(
                ("degree_p", "degree_q", "region", "lo", "hi", "samples", "status", "max_slack"),
                [(d["degree_p"], d["degree_q"], d["region"], d["lo"], d["hi"],
                  d["samples"], d["status"], d["max_slack"])],
            )
        else:
            d = rep.to_json_dict(args.digits)
            lines = [
                f"degrees ({d['degree_p']},{d['degree_q']}) on [{d['lo']}, {d['hi']}], "
                f"{d['samples']} samples: {d['status']} (max_slack {d['max_slack']})"
            ]
            if rep.p_coeffs:
                lines.append("p: " + ", ".join(d["p_coeffs"]))
                lines.append("q: " + ", ".join(d["q_coeffs"]))
            text = "\n".join(lines)
        _emit(text, args.out)
        return EXIT_OK
    # batch matrix: rows = degrees, columns = X values
    header = ["degrees\\X"] + [str(X) for X in xmaxes]
    rows = []
    for (n, m) in degrees:
        row = [f"p{n}/q{m}"]
        for X in xmaxes:
            rep = reports[(n, m, X)]
            row.append(f"{rep.status}/{_dec(rep.max_slack, args.digits)}")
        rows.append(row)
    if args.format == "json":
        text = json.dumps(
            {
                "region": args.region,
                "cells": [
                    {"degree_p": n, "degree_q": m, "xmax": str(X),
                     **reports[(n, m, X)].to_json_dict(args.digits)}
                    for (n, m) in degrees for X in xmaxes
                ],
            },
            indent=2,
        )
    else:
        text = _csv_text(header, rows)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    p = Precision(args.digits)
    lines: List[str] = []
    ok = selftest.run_all(p, write=lines.append)
    _emit("\n".join(lines), args.out)
    return EXIT_OK if ok else EXIT_FINDING


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=50,
                        help="working significant digits (default 50)")
    common.add_argument("--format", choices=("csv", "json", "text"), default="text",
                        help="report format (default text)")
    common.add_argument("--out", default=None, help="write the report to this path")
    common.add_argument("--paper-literal", action="store_true",
                        help="use the displayed fifth-order-family constants instead "
                             "of the derived ones in case-III conditions")

    ap = argparse.ArgumentParser(
        prog="logbound",
        description="Certified bounds for ln(1+x) and local certificates for 2t*ln(t).",
    )
    ap.add_argument("--version", action="version", version=f"logbound {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", parents=[common], help="bound-family atlas")
    t.add_argument("--xmin", type=float, default=0.0)
    t.add_argument("--xmax", type=float, default=10.0)
    t.add_argument("--points", type=int, default=11)
    t.add_argument("--log", action="store_true", help="log-spaced grid (xmin > 0)")
    t.set_defaults(fn=_cmd_table)

    c = sub.add_parser("compare", parents=[common], help="tightness ordering report")
    c.add_argument("--xmin", type=float, default=1e-6)
    c.add_argument("--xmax", type=float, default=1e6)
    c.add_argument("--points", type=int, default=500)
    c.add_argument("--slack", default="1e-30",
                   help="permitted negative slack in chain comparisons")
    c.set_defaults(fn=_cmd_compare)

    for name, fn, hlp in (
        ("certify", _cmd_certify, "derivative-condition certificate for a candidate"),
        ("radius", _cmd_radius, "certificate plus verified radius only"),
    ):
        q = sub.add_parser(name, parents=[common], help=hlp)
        q.add_argument("--expr", required=True, help="candidate expression in t")
        q.add_argument("--a", type=float, default=0.9, help="half-width of the domain (0,1)")
        q.add_argument("--max-n", type=int, default=certifier.DEFAULT_MAX_N)
        q.add_argument("--no-radius", action="store_true",
                       help="skip the radius search (certify only)")
        q.set_defaults(fn=fn)

    s = sub.add_parser("sandwich", help="rational intermediation experiments")
    ssub = s.add_subparsers(dest="subcommand", required=True)

    sc = ssub.add_parser("check", parents=[common], help="grid check of P/Q in the corridor")
    sc.add_argument("--p", required=True, help="numerator polynomial in x")
    sc.add_argument("--q", required=True, help="denominator polynomial in x")
    sc.add_argument("--region", choices=("upper", "lower"), default="upper")
    sc.add_argument("--xmax", type=float, default=10.0)
    sc.add_argument("--delta", type=float, default=1e-6)
    sc.add_argument("--grid", type=int, default=1000)
    sc.set_defaults(fn=_cmd_sandwich_check)

    sf = ssub.add_parser("fit", parents=[common], help="sampled corridor feasibility")
    sf.add_argument("--deg", action="append", required=True, metavar="N,M",
                    help="degrees of P and Q (repeatable)")
    sf.add_argument("--region", choices=("upper", "lower"), default="upper")
    sf.add_argument("--xmax", action="append", type=float, metavar="X",
                    help="right endpoint (repeatable for a batch matrix)")
    sf.add_argument("--delta", type=float, default=1e-6)
    sf.add_argument("--samples", type=int, default=0,
                    help="sample count (default: the minimum 4*(n+m+2))")
    sf.set_defaults(fn=_cmd_sandwich_fit)

    st = sub.add_parser("selftest", parents=[common], help="run the built-in invariant suites")
    st.set_defaults(fn=_cmd_selftest)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except LogboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
