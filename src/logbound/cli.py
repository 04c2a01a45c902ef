"""Command-line interface.

Subcommands: table, compare, certify, radius, sandwich check,
sandwich fit, selftest.  Exit codes: 0 = checks passed / artifact
produced; 1 = a violation or infeasibility was found where the
inequality was asserted to hold (the payload carries the witness);
2 = usage or domain error; 3 = internal error (one line naming the
exception type, no traceback).

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
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence

from mpmath import mp, mpf

from . import __version__, bounds, certifier, sandwich, selftest
from .errors import LogboundError
from .exprjet import Precision, decimal_text, parse

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# Ceiling of --digits.  Work grows faster than quadratically with the
# precision (certify with a radius takes seconds at this ceiling); the
# floor of 15 is Precision's own.  Internal guard and doubled precisions
# go above the ceiling, so it bounds the option, not Precision.
MAX_DIGITS = 500

# Ceilings of the grid and sample sizes, checked before any work.  At
# the default 50 digits on a 2-core x86 host the largest accepted value
# of each takes 2-3 s idle and about twice that with the host loaded:
# table 2.8-3.0 s and compare 2.9-3.0 s idle; sandwich check 2.0-2.2 s
# idle with P and Q of degree 100 (0.6 s at degree 3).
MAX_POINTS = 20000  # table and compare
# A point's cost grows with the precision (about 1 ms at 500 digits), so
# table and compare also bound --points times --digits, at the ceiling
# of points at the default 50 digits.
MAX_POINT_DIGITS = MAX_POINTS * 50
MAX_GRID = 5000  # sandwich check
# sandwich fit: --samples times the n+m+2 coefficients of a cell, since
# the simplex's pivots grow with both.  On a lightly loaded 2-core host
# the slowest cell at its ceiling, (7,7) at 81 samples, took 1.5-1.55 s
# end to end, nearly all in its 415 pivots; (0,0) at 650 samples, 649
# bound flips against 9 pivots, took 0.17-0.18 s, since pricing runs
# once per pivot.
MAX_FIT_SIZE = 1300

_CEILINGS = {"digits": MAX_DIGITS, "points": MAX_POINTS, "grid": MAX_GRID}


class Report(NamedTuple):
    """One result in every report format: the exit code, the csv header
    and rows, the json payload, and a builder of the text form, called
    only when text is requested."""

    code: int
    header: Sequence[str]
    rows: Sequence[Sequence]
    payload: object
    text: Callable[[], str]


def _record(code: int, payload: dict, header: Sequence[str],
            text: Callable[[], str]) -> Report:
    """A one-row report whose csv row is the payload's values under header."""
    return Report(code, header, [[payload[k] for k in header]], payload, text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.payload, indent=2)
    if fmt == "text":
        return report.text()
    return _csv_text(report.header, report.rows)


def _emit(text: str, out_path: Optional[str]):
    """Write the report newline-terminated, atomically when a path is given."""
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out_path)),
                                   prefix=".logbound-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            # mkstemp creates mode 0600; give the file the mode open() would
            os.umask(umask := os.umask(0))
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, out_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise LogboundError(f"cannot write {out_path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_table(args) -> Report:
    p = Precision(args.digits)
    if args.xmin < 0:
        raise LogboundError("table covers the upper region only (xmin >= 0)")
    if args.log:
        if args.xmin <= 0:
            raise LogboundError("--log needs xmin > 0")
        xs = bounds.log_grid(str(args.xmin), str(args.xmax), args.points, p)
    else:
        xs = bounds.linear_grid(str(args.xmin), str(args.xmax), args.points, p)
    header = bounds.ATLAS_COLUMNS
    rows = [[decimal_text(v, args.digits) for v in row] for row in bounds.atlas_rows(xs, p)]

    def text():
        widths = [max(map(len, col)) for col in zip(header, *rows)]
        return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths))
                         for r in [header, *rows])

    return Report(EXIT_OK, header, rows, [dict(zip(header, r)) for r in rows], text)


def _cmd_compare(args) -> Report:
    p = Precision(args.digits)
    with mp.workdps(args.digits):
        slack = mpf(args.slack)
    if not mp.isfinite(slack):
        raise LogboundError(f"--slack must be a finite number, got {args.slack}")
    xs = bounds.log_grid(str(args.xmin), str(args.xmax), args.points, p)
    stats, _ = bounds.chain_stats(xs, slack, p)
    violations = sum(s["violations"] for s in stats.values())
    header = ("bound", "max_gap_to_ln1p", "min_gap_to_cb", "violations")
    rows = [
        (bid, decimal_text(s["max_gap_ln"], args.digits),
         decimal_text(s["min_gap_cb"], args.digits), str(s["violations"]))
        for bid, s in stats.items()
    ]
    payload = {
        "grid": {"xmin": str(args.xmin), "xmax": str(args.xmax), "points": args.points},
        "tightness": [dict(zip(header, r)) for r in rows],
        "chain_holds": violations == 0,
    }

    def text():
        lines = [
            "tightness over [%s, %s], %d log-spaced points" % (args.xmin, args.xmax, args.points),
            "(CB row compares against ln(1+x); others against CB)",
        ]
        for r in rows:
            lines.append(f"  {r[0]:<9} max gap {r[1]:>18}  min gap {r[2]:>18}  violations {r[3]}")
        lines.append("chain holds" if violations == 0 else "CHAIN VIOLATED")
        return "\n".join(lines)

    return Report(EXIT_OK if violations == 0 else EXIT_FINDING, header, rows, payload, text)


def _certify_text(cert: certifier.Certificate, d: dict) -> str:
    lines = [f"case: {cert.case}" + (f" (n = {cert.n})" if cert.n is not None else "")]
    if cert.case == "none" and cert.nearest_miss:
        lines.append(f"nearest miss: {cert.nearest_miss}")
    lines.append(f"mode: {cert.mode}")
    for c in d["conditions"]:
        lines.append(
            f"  [{'pass' if c['pass'] else 'FAIL'}] {c['label']}: "
            f"target {c['target']}  actual {c['actual']}  margin {c['margin']}"
        )
    if d["radius"] is not None:
        lines.append(f"verified radius: {d['radius']}")
    if cert.direction_pair:
        pattern = {
            "dr": "2t*ln(t) <= P on [1, 1+r], >= on [1-r, 1]",
            "drr": "2t*ln(t) <= P <= H on [1, 1+r], reversed on [1-r, 1]",
        }[cert.direction_pair]
        lines.append(f"pattern: {pattern}")
    p = Precision(cert.digits)
    d5 = certifier.case3_constant(5, p)
    l5 = certifier.case3_constant(5, p, paper_literal=True)
    lines.append(
        "fifth-order constant: derived %s (= -H^(5)(1)), displayed form %s"
        % (decimal_text(d5, p.digits), decimal_text(l5, p.digits))
    )
    return "\n".join(lines)


def _run_certify(args, compute_radius: bool):
    # --a stays text, so that certify reads every digit at the working precision
    try:
        mpf(args.a)
    except ValueError:
        raise LogboundError(f"--a must be a number, got {args.a!r}") from None
    cert = certifier.certify(
        parse(args.expr),
        args.a,
        max_n=args.max_n,
        p=Precision(args.digits),
        paper_literal=args.paper_literal,
        compute_radius=compute_radius,
    )
    return cert, EXIT_OK if cert.case != "none" else EXIT_FINDING


def _cmd_certify(args) -> Report:
    cert, code = _run_certify(args, compute_radius=not args.no_radius)
    d = cert.to_json_dict()
    header = ("label", "target", "actual", "margin", "pass")
    rows = [(c["label"], c["target"], c["actual"], c["margin"], str(c["pass"]).lower())
            for c in d["conditions"]]
    return Report(code, header, rows, d, lambda: _certify_text(cert, d))


def _cmd_radius(args) -> Report:
    cert, code = _run_certify(args, compute_radius=True)
    d = {"case": cert.case, "n": cert.n, "radius": decimal_text(cert.radius, args.digits)}
    return _record(code, d, ("case", "n", "radius"), lambda: (
        "no certificate: no radius" if cert.case == "none"
        else f"case {cert.case}: verified radius {d['radius']}"
    ))


def _parse_rational(args, p: Precision) -> sandwich.RationalFn:
    pc = sandwich.expr_to_poly(parse(args.p), p)
    qc = sandwich.expr_to_poly(parse(args.q), p)
    return sandwich.RationalFn(tuple(pc), tuple(qc))


def _read_region(args, xmax) -> None:
    """Refuse the region option that args.region does not read (--delta
    in the upper region, --xmax in the lower), then default --xmax to
    xmax and --delta to 1e-6."""
    unread = "delta" if args.region == "upper" else "xmax"
    if getattr(args, unread) is not None:
        raise LogboundError(f"--{unread} is not read by the {args.region} region")
    args.xmax = xmax if args.xmax is None else args.xmax
    args.delta = 1e-6 if args.delta is None else args.delta


def _cmd_sandwich_check(args) -> Report:
    _read_region(args, 10.0)
    p = Precision(args.digits)
    r = _parse_rational(args, p)
    w = sandwich.check_sandwich(
        r, args.region, xmax=str(args.xmax), delta=str(args.delta), grid=args.grid, p=p
    )
    if w is None:
        d = {"status": "holds-on-grid", "region": args.region, "grid": args.grid}
        return _record(EXIT_OK, d, ("status", "region", "grid"), lambda: (
            f"sandwich holds on the {args.grid}-point grid ({args.region} region)"
        ))
    d = {"status": "witness", **w.to_json_dict(args.digits)}
    rel = "ln(1+x)" if w.side == "log" else "corridor bound"
    return _record(EXIT_FINDING, d, ("x", "side", "lhs", "rhs", "margin", "region"), lambda: (
        f"witness at x = {d['x']}: {rel} comparison fails "
        f"({d['lhs']} vs {d['rhs']}, margin {d['margin']})"
    ))


def _cmd_sandwich_fit(args) -> Report:
    _read_region(args, [1.0])
    p = Precision(args.digits)
    # a repeated --deg or --xmax names the same cell: keep its first occurrence
    try:
        degrees = list(dict.fromkeys((int(n), int(m)) for n, m in (d.split(",") for d in args.deg)))
    except ValueError:  # not two parts, or a part int() cannot read
        raise LogboundError("--deg expects n,m") from None
    for d in degrees:
        size = d[0] + d[1] + 2  # fit_sandwich rejects a negative degree
        if size > 0 and args.samples > MAX_FIT_SIZE // size:
            raise LogboundError(f"--samples must be <= {MAX_FIT_SIZE // size} for degrees "
                                f"({d[0]},{d[1]}), got {args.samples}")
    xmaxes = list(dict.fromkeys(args.xmax))
    cells = {}
    for (n, m) in degrees:
        for X in xmaxes:
            cells[(n, m, X)] = sandwich.fit_sandwich(
                n, m, args.region, xmax=str(X), delta=str(args.delta),
                samples=args.samples, p=p,
            ).to_json_dict(args.digits)
    if len(cells) == 1:
        d = next(iter(cells.values()))

        def text():
            lines = [
                f"degrees ({d['degree_p']},{d['degree_q']}) on [{d['lo']}, {d['hi']}], "
                f"{d['samples']} samples: {d['status']} (max_slack {d['max_slack']})"
            ]
            if d["p_coeffs"]:
                lines.append("p: " + ", ".join(d["p_coeffs"]))
                lines.append("q: " + ", ".join(d["q_coeffs"]))
            return "\n".join(lines)

        header = ("degree_p", "degree_q", "region", "lo", "hi", "samples", "status", "max_slack")
        return _record(EXIT_OK, d, header, text)
    # batch matrix: rows = degrees, columns = X values; the text form is the csv
    header = ["degrees\\X"] + [str(X) for X in xmaxes]
    rows = [
        [f"p{n}/q{m}"] + [f"{cells[n, m, X]['status']}/{cells[n, m, X]['max_slack']}"
                          for X in xmaxes]
        for (n, m) in degrees
    ]
    payload = {
        "region": args.region,
        "cells": [{"degree_p": n, "degree_q": m, "xmax": str(X), **cells[n, m, X]}
                  for (n, m) in degrees for X in xmaxes],
    }
    return Report(EXIT_OK, header, rows, payload, lambda: _csv_text(header, rows))


def _cmd_selftest(args) -> Report:
    rows = selftest.run_all(Precision(args.digits))
    header = ("suite", "status", "detail")
    code = EXIT_OK if all(status == "PASS" for _, status, _ in rows) else EXIT_FINDING
    return Report(code, header, rows, [dict(zip(header, r)) for r in rows],
                  lambda: "\n".join(f"{s} {name}: {detail}" for name, s, detail in rows))


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


class _ArgParser(argparse.ArgumentParser):
    """Names the --opt=VALUE form when a value such as -t was read as an
    option.  error() is not told the offending token, so each parse
    keeps its argv to look it up."""

    def parse_known_args(self, args=None, namespace=None):
        self._argv = list(sys.argv[1:] if args is None else args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        head, _, tail = message.partition(": ")
        if tail == "expected one argument" and head.startswith("argument "):
            names = head[len("argument "):].split("/")
            argv = getattr(self, "_argv", [])
            # argparse also accepts a unique prefix such as --del for --delta
            named = lambda opt: opt in names or (
                len(opt) > 2 and sum(n.startswith(opt) for n in names) == 1)
            hit = next((f"{opt}={value}" for opt, value in zip(argv, argv[1:])
                        if named(opt) and value.startswith("-")), None)
            if hit is not None:
                message += f"\nhint: attach a value that starts with '-' with '=', as in {hit}"
        super().error(message)


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args keeps no state
    between calls, and building costs more than most subcommands."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=50,
                        help="working significant digits (default 50)")
    common.add_argument("--format", choices=("csv", "json", "text"), default="text",
                        help="report format (default text)")
    common.add_argument("--out", default=None, help="write the report to this path")

    ap = _ArgParser(
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
        q.add_argument("--a", default="0.9", help="half-width of the domain (0,1)")
        q.add_argument("--max-n", type=int, default=certifier.DEFAULT_MAX_N)
        q.add_argument("--paper-literal", action="store_true",
                       help="use the displayed fifth-order-family constants instead "
                            "of the derived ones in case-III conditions")
        if name == "certify":
            q.add_argument("--no-radius", action="store_true", help="skip the radius search")
        q.set_defaults(fn=fn)

    s = sub.add_parser("sandwich", help="rational intermediation experiments")
    ssub = s.add_subparsers(dest="subcommand", required=True)

    sc = ssub.add_parser("check", parents=[common], help="grid check of P/Q in the corridor")
    sc.add_argument("--p", required=True, help="numerator polynomial in x")
    sc.add_argument("--q", required=True, help="denominator polynomial in x")
    sc.add_argument("--region", choices=("upper", "lower"), default="upper")
    sc.add_argument("--xmax", type=float, help="upper region: right endpoint (default 10)")
    sc.add_argument("--delta", type=float, help="lower region: left endpoint -1+delta "
                                                "(default 1e-6)")
    sc.add_argument("--grid", type=int, default=1000)
    sc.set_defaults(fn=_cmd_sandwich_check)

    sf = ssub.add_parser("fit", parents=[common], help="sampled corridor feasibility")
    sf.add_argument("--deg", action="append", required=True, metavar="N,M",
                    help="degrees of P and Q (repeatable)")
    sf.add_argument("--region", choices=("upper", "lower"), default="upper")
    sf.add_argument("--xmax", action="append", type=float, metavar="X",
                    help="upper region: right endpoint (default 1; repeatable for a "
                         "batch matrix)")
    sf.add_argument("--delta", type=float, help="lower region: left endpoint -1+delta "
                                                "(default 1e-6)")
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
        for name, ceiling in _CEILINGS.items():
            value = getattr(args, name, None)
            if value is not None and value > ceiling:
                raise ValueError(f"--{name} must be <= {ceiling}, got {value}")
        points = getattr(args, "points", None)
        if points is not None and points * args.digits > MAX_POINT_DIGITS:
            raise ValueError(f"--points times --digits must be <= {MAX_POINT_DIGITS}, "
                             f"got {points} * {args.digits} = {points * args.digits}")
        report = args.fn(args)
        _emit(_render(report, args.format), args.out)
    except (LogboundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return report.code


if __name__ == "__main__":
    sys.exit(main())
