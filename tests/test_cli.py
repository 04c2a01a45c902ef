"""Command-line interface: subcommands, exit codes, determinism."""

import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logbound import bounds, sandwich
from logbound.certifier import MAX_N_CEILING
from logbound.cli import (MAX_DIGITS, MAX_FIT_SIZE, MAX_GRID, MAX_POINT_DIGITS, MAX_POINTS,
                          main)
from logbound.exprjet import to_text
from strategies import exprs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_csv(capsys):
    code, out, err = run(
        capsys, "table", "--xmin", "0", "--xmax", "10", "--points", "11",
        "--format", "csv",
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "x,ln1p,sqrt,pade,karamata,cubic,cb"
    assert len(lines) == 12
    assert lines[1].startswith("0.0,0.0,")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8 (digits proved by a Ziv loop): CUBIC and CB "
                   "cancel at x = 1e-70 and print 0.0")
def test_table_keeps_cubic_and_cb_digits_near_0(capsys):
    # at the grid's x, just below 1e-70, both bounds equal x to 140
    # digits; computed at 400 digits and rounded to 50 they print as x
    code, out, err = run(
        capsys, "table", "--log", "--xmin", "1e-70", "--xmax", "1", "--points", "2",
        "--format", "csv",
    )
    assert code == 0 and err == ""
    row = dict(zip(*(line.split(",") for line in out.splitlines()[:2])))
    want = "9.9999999999999999999999999999999999999999999999989e-71"
    assert (row["cubic"], row["cb"]) == (want, want)


def test_table_rejects_negative_xmin(capsys):
    code, out, err = run(capsys, "table", "--xmin", "-1")
    assert code == 2 and "error" in err


def test_compare_chain_holds(capsys):
    code, out, err = run(
        capsys, "compare", "--points", "40", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chain_holds"] is True
    assert {row["bound"] for row in payload["tightness"]} == {
        "CB", "SQRT", "PADE", "KARAMATA", "CUBIC"
    }


def test_certify_json_case_IV(capsys):
    code, out, err = run(
        capsys, "certify", "--expr", "H(t) - (1/60)*(t-1)^5", "--a", "0.9",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "IV"
    assert payload["mode"] == "derived"
    assert payload["precision_digits"] == 50
    assert float(payload["radius"]) > 0
    assert all(c["pass"] for c in payload["conditions"])


def test_certify_text_displays_both_constants(capsys):
    code, out, err = run(
        capsys, "certify", "--expr", "H(t) - (1/60)*(t-1)^5", "--a", "0.9",
    )
    assert code == 0
    assert "derived 8.0" in out and "-12.0" in out


def test_certify_paper_literal_mode(capsys):
    code, out, err = run(
        capsys, "certify", "--expr", "H(t) - (1/10)*(t-1)^7", "--a", "0.9",
        "--paper-literal", "--format", "json", "--no-radius",
    )
    payload = json.loads(out)
    assert payload["mode"] == "paper-literal"


def test_certify_none_exits_1(capsys):
    code, out, err = run(
        capsys, "certify", "--expr", "H(t) - (1/30)*(t-1)^5", "--a", "0.9",
        "--no-radius",
    )
    assert code == 1
    assert "case: none" in out


def test_radius_text(capsys):
    code, out, err = run(
        capsys, "radius", "--expr", "2*(t-1) + (t-1)^2", "--a", "0.5",
    )
    assert code == 0
    assert "case I" in out and "0.5" in out


def test_radius_below_the_floor_names_it(capsys):
    # the pattern holds on all of (0, 1); only a is below 10^(-digits//2)
    argv = ["radius", "--expr", "2*t*ln(t) + 0.05*(t-1)^3", "--a", "1e-30"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "1e-25" in err and "50 digits" in err
    assert "inconsistent" not in err
    assert main(argv + ["--digits", "70"]) == 0
    assert capsys.readouterr().out == "case I: verified radius 1.0e-30\n"


def test_sandwich_check_witness_exit_1(capsys):
    code, out, err = run(
        capsys, "sandwich", "check", "--p", "x*(2+x)", "--q", "2*(1+x)",
        "--region", "upper", "--xmax", "9", "--grid", "4", "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "witness"
    assert payload["side"] == "cb"
    assert payload["x"] == "3.0"
    assert payload["lhs"].startswith("1.875")
    assert payload["rhs"].startswith("1.39124722801678903299")


def test_sandwich_check_witness_text_rounds_as_json(capsys):
    # ln(0.5) to 50 digits ends in ...025|5; it rounds up in both forms
    argv = ["sandwich", "check", "--p", "2*x + 3*x^2", "--q", "3 + x",
            "--region", "lower", "--delta", "0.5", "--grid", "28"]
    code, text, _ = run(capsys, *argv)
    _, out, _ = run(capsys, *argv, "--format", "json")
    d = json.loads(out)
    assert code == 1 and d["lhs"].endswith("13436026")
    assert text.endswith(f"({d['lhs']} vs {d['rhs']}, margin {d['margin']})\n")


def test_sandwich_check_holds_exit_0(capsys):
    code, out, err = run(
        capsys, "sandwich", "check", "--p", "x^3 + 21*x^2 + 30*x",
        "--q", "9*x^2 + 36*x + 30", "--xmax", "0.1", "--grid", "200",
    )
    assert code == 0
    assert "holds" in out


def test_sandwich_fit_single(capsys):
    code, out, err = run(
        capsys, "sandwich", "fit", "--deg", "0,0", "--xmax", "1",
        "--samples", "8", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "infeasible"


def test_sandwich_fit_matrix_csv(capsys):
    code, out, err = run(
        capsys, "sandwich", "fit", "--deg", "0,0", "--deg", "1,1",
        "--xmax", "0.5", "--xmax", "1", "--samples", "16", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("degrees\\X,")
    assert len(lines) == 3
    assert lines[1].startswith("p0/q0,infeasible/")


@pytest.mark.parametrize("once, repeated", [
    (["--deg", "0,0"], ["--deg", "0,0", "--deg", "0,0"]),
    (["--deg", "0,0", "--xmax", "1"], ["--deg", "0,0", "--xmax", "1", "--xmax", "1.0"]),
    (["--deg", "0,0", "--deg", "1,0"], ["--deg", "0,0", "--deg", "1,0", "--deg", "0,0"]),
])
def test_sandwich_fit_repeated_flag_same_bytes(capsys, once, repeated):
    base = ["sandwich", "fit", "--samples", "12", "--format", "csv"]
    first = run(capsys, *base, *once)
    assert run(capsys, *base, *repeated) == first
    assert first[0] == 0


def test_sandwich_fit_fits_each_distinct_cell_once(capsys, monkeypatch):
    fitted = []
    real = sandwich.fit_sandwich

    def counting(n, m, region, xmax, **kw):
        fitted.append((n, m, xmax))
        return real(n, m, region, xmax=xmax, **kw)

    monkeypatch.setattr(sandwich, "fit_sandwich", counting)
    code, out, err = run(
        capsys, "sandwich", "fit", "--deg", "0,0", "--deg", "1,0", "--deg", "0,0",
        "--xmax", "1", "--xmax", "0.5", "--xmax", "1.0", "--samples", "12",
    )
    assert code == 0
    assert fitted == [(0, 0, "1.0"), (0, 0, "0.5"), (1, 0, "1.0"), (1, 0, "0.5")]
    assert out.splitlines()[0] == "degrees\\X,1.0,0.5"


@pytest.mark.parametrize("argv, defaults", [
    (["sandwich", "check", "--p", "x*(2+x)", "--q", "2*(1+x)", "--grid", "4"], ["--xmax", "10"]),
    (["sandwich", "check", "--p", "x", "--q", "1", "--region", "lower", "--grid", "20"],
     ["--delta", "1e-6"]),
    (["sandwich", "fit", "--deg", "0,0", "--deg", "1,0"], ["--xmax", "1"]),
    (["sandwich", "fit", "--deg", "1,1", "--region", "lower", "--format", "json"],
     ["--delta", "1e-6"]),
], ids=["check upper", "check lower", "fit upper", "fit lower"])
def test_region_option_defaults_keep_their_bytes(capsys, argv, defaults):
    default = run(capsys, *argv)
    assert run(capsys, *argv, *defaults) == default
    assert default[0] in (0, 1) and default[2] == ""


def test_lower_fit_matrix_keeps_its_column(capsys):
    code, out, err = run(capsys, "sandwich", "fit", "--deg", "0,0", "--deg", "1,0",
                         "--region", "lower", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "degrees\\X,1.0"


def test_sandwich_fit_lower_region_reaches_zero(capsys):
    # the last sample of [-0.1, 0] is 0 itself, where the corridor closes
    code, out, err = run(capsys, "sandwich", "fit", "--deg", "3,3", "--region", "lower",
                         "--delta", "0.9", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["hi"] == "0.0" and payload["status"] == "feasible"


def test_sandwich_fit_output_checks_back(capsys):
    # the fit prints p_0 in e-notation (1.99...e-50); check reads it back
    code, out, err = run(capsys, "sandwich", "fit", "--deg", "3,3", "--xmax", "1")
    assert code == 0 and err == ""
    coeffs = dict(line.split(": ", 1) for line in out.splitlines()[1:])
    assert "e-" in coeffs["p"]
    poly = lambda cs: " + ".join(f"({c})*x^{k}" for k, c in enumerate(cs.split(", ")))
    code, out, err = run(capsys, "sandwich", "check", f"--p={poly(coeffs['p'])}",
                         f"--q={poly(coeffs['q'])}", "--xmax", "1", "--grid", "100")
    assert code in (0, 1) and err == ""


def test_malformed_expression_exit_2(capsys):
    code, out, err = run(capsys, "certify", "--expr", "2*q", "--a", "0.5")
    assert code == 2 and "position" in err


def test_expression_starting_with_dash_gets_a_hint(capsys):
    # argparse reads -t as an option; --expr=-t passes it
    code, out, err = run(capsys, "certify", "--expr", "-t", "--no-radius")
    assert code == 2 and out == ""
    assert err.splitlines()[-2:] == [
        "logbound certify: error: argument --expr: expected one argument",
        "hint: attach a value that starts with '-' with '=', as in --expr=-t",
    ]
    code, out, err = run(capsys, "certify", "--expr=-t", "--no-radius")
    assert code in (0, 1) and err == ""


def test_dash_value_hint_names_the_option_and_its_token(capsys):
    code, out, err = run(capsys, "sandwich", "check", "--p", "x", "--q", "1",
                         "--delta", "-1e-6")
    assert code == 2 and out == ""
    assert err.splitlines()[-2:] == [
        "logbound sandwich check: error: argument --delta: expected one argument",
        "hint: attach a value that starts with '-' with '=', as in --delta=-1e-6",
    ]


def test_dash_value_hint_names_an_abbreviated_option(capsys):
    # argparse reads --del as --delta and names --delta in its message
    code, out, err = run(capsys, "sandwich", "check", "--p", "x", "--q", "1",
                         "--del", "-1e-6")
    assert code == 2 and out == ""
    assert err.splitlines()[-2:] == [
        "logbound sandwich check: error: argument --delta: expected one argument",
        "hint: attach a value that starts with '-' with '=', as in --del=-1e-6",
    ]


def test_missing_value_gets_no_dash_hint(capsys):
    code, out, err = run(capsys, "sandwich", "check", "--p", "x", "--q", "1", "--delta")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == (
        "logbound sandwich check: error: argument --delta: expected one argument")
    assert "hint" not in err


@pytest.mark.parametrize("expr", ["(" * 2000 + "t" + ")" * 2000, "+".join(["t"] * 3000)],
                         ids=["2000-parens", "3000-terms"])
def test_deep_expression_exit_2(capsys, expr):
    code, out, err = run(capsys, "certify", "--expr", expr, "--no-radius")
    assert code == 2 and out == ""
    assert err.startswith("error: expression nests deeper than") and err.count("\n") == 1


def test_nested_aliases_certify_quickly(capsys):
    # f(u) holds u three times, so 9 nested f are 3^9 paths through a
    # DAG of about 200 nodes; each shared node is expanded once
    expr = "t"
    for _ in range(9):
        expr = f"f({expr})"
    start = time.perf_counter()
    code, out, err = run(capsys, "certify", "--expr", expr, "--a", "0.5", "--no-radius")
    assert time.perf_counter() - start < 2
    assert code == 1 and err == "" and out.startswith("case: none")


def test_division_message_quotes_a_bounded_prefix(capsys):
    # F - F unfolds to 3^10 copies of t: its whole text is 2.9 MB, and
    # the message quotes at most 200 characters of it
    expr = "t"
    for _ in range(10):
        expr = f"f({expr})"
    start = time.perf_counter()
    code, out, err = run(capsys, "certify", "--expr", f"1/({expr} - {expr})", "--no-radius")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and len(err.encode()) <= 300
    assert err.startswith("error: division by zero at expansion center (pi + 1/2*(4 + pi)*")
    assert err.endswith("...)\n") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["sandwich", "check", "--p", "x", "--q", "1", "--xmax", "inf", "--grid", "3"],
    ["sandwich", "fit", "--deg", "1,1", "--xmax", "inf"],
    ["table", "--xmax", "inf"],
    ["compare", "--xmax", "inf"],
    ["compare", "--slack", "nan"],
    ["compare", "--slack", "inf"],
], ids=["check xmax inf", "fit xmax inf", "table xmax inf", "compare xmax inf", "slack nan",
        "slack inf"])
def test_non_finite_inputs_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(("error: grid endpoints must be finite, got [",
                           "error: --slack must be a finite number, got "))


@pytest.mark.parametrize("argv, line", [
    (["table", "--log", "--xmin", "0"], "error: --log needs xmin > 0"),
    (["sandwich", "fit", "--deg", "1"], "error: --deg expects n,m"),
    (["sandwich", "fit", "--deg", "1,a"], "error: --deg expects n,m"),
    (["sandwich", "fit", "--deg", ","], "error: --deg expects n,m"),
    (["sandwich", "check", "--p", "x", "--q", "1", "--xmax", "0"],
     "error: upper region needs xmax > 0"),
    (["sandwich", "check", "--p", "x", "--q", "1", "--region", "lower", "--delta", "1"],
     "error: lower region needs delta in (0, 1)"),
    (["compare", "--xmin", "2", "--xmax", "1"],
     "error: log grid needs 0 < lo < hi and count >= 2"),
    (["table", "--xmin", "5", "--xmax", "1", "--points", "3"],
     "error: grid needs lo < hi and count >= 2"),
    (["sandwich", "fit", "--deg", "0,0", "--samples", "1"],
     "error: need at least 8 samples for degrees (0,0)"),
    (["sandwich", "fit", "--deg", "0,0", "--samples", "-5"],
     "error: need at least 8 samples for degrees (0,0)"),
    (["sandwich", "fit", "--deg", "0,0", "--samples", "3"],
     "error: need at least 8 samples for degrees (0,0)"),
    # an option that the region does not read
    (["sandwich", "check", "--p", "x", "--q", "1", "--region", "lower", "--xmax", "7"],
     "error: --xmax is not read by the lower region"),
    (["sandwich", "check", "--p", "x", "--q", "1", "--delta", "0.5"],
     "error: --delta is not read by the upper region"),
    (["sandwich", "fit", "--deg", "1,1", "--region", "lower", "--xmax", "1", "--xmax", "4",
      "--format", "csv"], "error: --xmax is not read by the lower region"),
    (["sandwich", "fit", "--deg", "1,1", "--region", "upper", "--delta", "0.5"],
     "error: --delta is not read by the upper region"),
], ids=["table log xmin 0", "fit deg 1", "fit deg 1,a", "fit deg ,", "check xmax 0",
        "check delta 1", "compare xmin > xmax", "table xmin > xmax", "fit samples 1",
        "fit samples -5", "fit samples 3", "check lower xmax", "check upper delta",
        "fit lower xmax", "fit upper delta"])
def test_usage_errors_exit_2_with_one_line(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", line + "\n")


@pytest.mark.parametrize("a", ["0.12345678901234567890123", "0.99999999999999999"])
def test_a_is_read_with_every_digit(capsys, a):
    # a float would round the first to 0.12345678901234568 and the second to 1
    code, out, err = run(capsys, "radius", "--expr", "2*t*ln(t) + 0.05*(t-1)^3", "--a", a)
    assert (code, out, err) == (0, f"case I: verified radius {a}\n", "")


def test_a_that_is_not_a_number_exits_2_with_one_line(capsys):
    code, out, err = run(capsys, "certify", "--expr", "2*t*ln(t) + 0.05*(t-1)^3", "--a", "0.9x")
    assert (code, out, err) == (2, "", "error: --a must be a number, got '0.9x'\n")


@pytest.mark.parametrize("expr, a, radius", [
    # a bisection midpoint of the radius search lands on the pole t = 0.5
    # exactly, at either a, and on the domain edge of the sqrt
    ("2*t*ln(t) + (t-1)^3/(t-0.5)", "0.9", "0.49999999949999999999052609686600590066518634557724"),
    ("2*t*ln(t) + (t-1)^3/(t-0.5)", "0.7", "0.49999999949999999999052609686600590066518634557724"),
    ("2*t*ln(t) + sqrt(t-0.5)*(t-1)^3", "0.9", "0.4999999995"),
    # a pole that no evaluated point hits
    ("2*t*ln(t) + (t-1)^3/(t-0.45)", "0.9", "0.5499999994499999999904208569752352142590012817891"),
], ids=["pole 0.5 --a 0.9", "pole 0.5 --a 0.7", "sqrt edge 0.5", "pole 0.45"])
def test_a_radius_point_where_P_is_undefined_breaks_the_pattern(capsys, expr, a, radius):
    code, out, err = run(capsys, "radius", "--expr", expr, "--a", a)
    assert (code, out, err) == (0, f"case I: verified radius {radius}\n", "")


def test_lower_region_below_resolution_exit_2(capsys):
    # at 50 digits the first lower-region point -1 + 1e-60 rounds to -1
    lower = ("--region", "lower", "--delta", "1e-60")
    errs = []
    for argv in (("sandwich", "fit", "--deg", "1,1"),
                 ("sandwich", "check", "--p", "x", "--q", "1")):
        code, out, err = run(capsys, *argv, *lower)
        assert code == 2 and out == "" and err.count("\n") == 1
        errs.append(err)
    assert errs[0] == errs[1] and errs[0].startswith("error: ") and "raise --digits" in errs[0]
    code, out, err = run(capsys, "sandwich", "fit", "--deg", "1,1", *lower, "--digits", "100")
    assert code == 0 and err == "" and out.startswith("degrees (1,1) on [")


def test_internal_error_exit_3(capsys, monkeypatch):
    # an exception that is not a usage or domain error is one line, not a traceback
    def broken(*args, **kwargs):
        raise RuntimeError("atlas failed")

    monkeypatch.setattr(bounds, "atlas_rows", broken)
    code, out, err = run(capsys, "table", "--points", "3")
    assert code == 3 and out == ""
    assert err == "error: RuntimeError: atlas failed\n"


def test_huge_polynomial_degree_exit_2(capsys):
    code, out, err = run(capsys, "sandwich", "check", "--p", "x^100000000", "--q", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: polynomial degree 100000000 exceeds") and err.count("\n") == 1


def test_byte_determinism(capsys):
    argv = ["certify", "--expr", "H(t) - (1/60)*(t-1)^5", "--a", "0.9",
            "--format", "json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    argv = ["table", "--points", "7", "--format", "csv"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_out_writes_file_atomically(tmp_path, capsys, fmt):
    target = tmp_path / "atlas"
    code, out, err = run(
        capsys, "table", "--points", "5", "--format", fmt, "--out", str(target),
    )
    assert code == 0 and out == ""
    _, stdout, _ = run(capsys, "table", "--points", "5", "--format", fmt)
    assert target.read_text() == stdout
    assert len(list(tmp_path.iterdir())) == 1  # no temp leftovers


def test_out_file_mode_follows_umask(tmp_path, capsys):
    target = tmp_path / "atlas"
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "table", "--points", "3", "--out", str(target))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o644


def test_out_into_missing_directory_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "atlas.csv"
    code, out, err = run(capsys, "table", "--points", "3", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_digits_flag_controls_output_precision(capsys):
    _, out20, _ = run(capsys, "table", "--points", "3", "--xmax", "1",
                      "--format", "csv", "--digits", "20")
    _, out40, _ = run(capsys, "table", "--points", "3", "--xmax", "1",
                      "--format", "csv", "--digits", "40")
    v20 = out20.strip().splitlines()[2].split(",")[1]
    v40 = out40.strip().splitlines()[2].split(",")[1]
    assert len(v40) > len(v20)
    assert v40.startswith(v20[:18])


@pytest.mark.parametrize("argv", [
    ["radius", "--expr", "2*(t-1) + (t-1)^2", "--a", "0.5", "--no-radius"],
    ["table", "--paper-literal"],
    ["compare", "--paper-literal"],
    ["sandwich", "check", "--p", "x", "--q", "1", "--paper-literal"],
    ["sandwich", "fit", "--deg", "0,0", "--paper-literal"],
    ["selftest", "--paper-literal"],
], ids=["radius --no-radius", "table", "compare", "sandwich check", "sandwich fit",
        "selftest"])
def test_option_of_another_subcommand_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments: " + argv[-1] in err


def test_selftest_honours_format(capsys):
    code, out, err = run(capsys, "selftest", "--format", "json")
    rows = json.loads(out)
    assert code == 0 and {r["status"] for r in rows} == {"PASS"}
    code, out, err = run(capsys, "selftest", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "suite,status,detail" and len(lines) == len(rows) + 1


@pytest.mark.parametrize("argv", [
    ["certify", "--expr", "H(t)", "--no-radius", "--max-n", "0"],
    ["certify", "--expr", "H(t)", "--no-radius", "--max-n", "-5"],
    ["radius", "--expr", "H(t)", "--max-n", str(MAX_N_CEILING + 1)],
    ["table", "--points", "2", "--digits", str(MAX_DIGITS + 1)],
    ["certify", "--expr", "H(t)", "--no-radius", "--digits", "5000"],
], ids=["max-n 0", "max-n -5", "max-n above", "digits above", "digits 5000"])
def test_limits_of_max_n_and_digits_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, ceiling", [
    (["table", "--points", str(MAX_POINTS + 1)], MAX_POINTS),
    (["compare", "--points", str(MAX_POINTS + 1)], MAX_POINTS),
    (["sandwich", "check", "--p", "x", "--q", "1", "--grid", str(MAX_GRID + 1)], MAX_GRID),
    (["sandwich", "fit", "--deg", "8,8", "--samples", str(MAX_FIT_SIZE // 18 + 1)],
     f"{MAX_FIT_SIZE // 18} for degrees (8,8)"),
    (["sandwich", "fit", "--deg", "0,0", "--deg", "1,1", "--samples",
      str(MAX_FIT_SIZE // 4 + 1)], f"{MAX_FIT_SIZE // 4} for degrees (1,1)"),
], ids=["table points", "compare points", "grid", "samples", "samples batch"])
def test_grid_and_sample_ceilings_exit_2(capsys, argv, ceiling):
    # each ceiling is checked before any point is computed or cell fitted
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: {argv[-2]} must be <= {ceiling}, got {argv[-1]}\n"


@pytest.mark.parametrize("argv, points, digits", [
    (["table", "--points", str(MAX_POINTS), "--digits", "500"], MAX_POINTS, 500),
    (["compare", "--digits", "500", "--points", "2001"], 2001, 500),
    (["table", "--points", str(MAX_POINTS), "--digits", "51"], MAX_POINTS, 51),
], ids=["table", "compare", "one digit above"])
def test_points_times_digits_ceiling_exits_2(capsys, argv, points, digits):
    # about 1 ms a point at 500 digits: refused before any point is computed
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (f"error: --points times --digits must be <= {MAX_POINT_DIGITS}, "
                   f"got {points} * {digits} = {points * digits}\n")


def test_points_times_digits_below_the_ceiling_is_accepted(capsys):
    # every --points at the default digits stays accepted
    assert MAX_POINT_DIGITS == MAX_POINTS * 50
    code, out, err = run(capsys, "table", "--points", "3", "--digits", str(MAX_DIGITS),
                         "--format", "csv")
    assert code == 0 and err == "" and len(out.splitlines()) == 4


def test_limits_of_max_n_and_digits_are_accepted(capsys):
    code, _, err = run(capsys, "certify", "--expr", "H(t) - (1/30)*(t-1)^5", "--no-radius",
                       "--max-n", str(MAX_N_CEILING))
    assert code == 1 and err == ""
    code, _, err = run(capsys, "table", "--points", "2", "--digits", str(MAX_DIGITS))
    assert code == 0 and err == ""


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _alone(argv, env):
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from logbound.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_main_calls_in_one_process_match_each_call_alone(monkeypatch):
    # the parser is built once per process; no call may see another's state
    env = {**os.environ, "COLUMNS": "80", "LINES": "24",
           "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("LINES", "24")
    argvs = [
        ["table", "--points", "3", "--format", "csv"],
        ["sandwich", "fit", "--deg", "0,0", "--xmax", "1", "--xmax", "2", "--samples", "8"],
        ["certify", "--expr", "2*q"],
        ["certify", "--expr", "H(t) - (1/30)*(t-1)^5", "--no-radius", "--format", "json"],
        ["table", "--bogus"],
        ["sandwich", "fit", "--deg", "0,0", "--samples", "8"],
        ["certify", "--help"],
        ["--version"],
        ["table", "--points", "3", "--format", "csv", "--digits", "20"],
    ]
    for argv in argvs:
        assert _in_process(argv) == _alone(argv, env), argv


# ---------------------------------------------------------------------------
# fuzzing: every argv gets an answer or one clean error line
# ---------------------------------------------------------------------------

_COMMANDS = (["table"], ["compare"], ["certify"], ["radius"], ["sandwich", "check"],
             ["sandwich", "fit"], ["sandwich"], [], ["bogus"])
_OPTIONS = ("--digits", "--format", "--xmin", "--xmax", "--points", "--log", "--slack",
            "--expr", "--a", "--max-n", "--paper-literal", "--no-radius", "--p", "--q",
            "--region", "--delta", "--grid", "--deg", "--samples", "--help", "--version",
            "--bogus")
_VALUES = ("0", "1", "2", "3", "-1", "0.5", "1e-6", "1e6", "inf", "nan", "abc", "", "16", "20",
           "0,0", "1,1", "2,1", "1,2,3", "t", "x", "2*t*ln(t)", "x^2 + 1", "2*q", "(t",
           "99999999", "json", "csv", "text", "upper", "lower")
_COEFFS = ("0", "1", "-1", "2", "0.5", "-0.25", "3", "0.001")


def _poly(coeffs):
    return " + ".join(f"{c}*x^{k}" for k, c in enumerate(coeffs))


# an expression is passed as --expr=TEXT, since TEXT may start with '-'
_ARGVS = st.one_of(
    st.builds(
        lambda cmd, e, a, n, d: [cmd, "--expr=" + e, "--a", a, "--max-n", str(n),
                                 "--digits", str(d)],
        st.sampled_from(("certify", "radius")),
        st.one_of(exprs().map(to_text),
                  # a certified family, perturbed at seventh order: the radius runs
                  exprs(safe=True, max_leaves=4).map(
                      lambda e: f"H(t) - (1/60)*(t-1)^5 + (t-1)^7*({to_text(e)})")),
        st.sampled_from(("0.3", "0.5", "0.9")), st.integers(1, 8),
        st.sampled_from((15, 20, 30))),
    st.builds(
        lambda p, q, region, grid: ["sandwich", "check", "--p=" + p, "--q=" + q,
                                    "--region", region, "--grid", str(grid)]
        + (["--xmax", "2"] if region == "upper" else []),
        st.one_of(st.lists(st.sampled_from(_COEFFS), min_size=1, max_size=4).map(_poly),
                  exprs("x", max_leaves=4).map(to_text)),
        st.lists(st.sampled_from(_COEFFS[1:]), min_size=1, max_size=3).map(
            lambda qs: _poly(["1"] + qs)),
        st.sampled_from(("upper", "lower")), st.integers(1, 20)),
    st.builds(
        lambda cmd, rest: cmd + [w for ws in rest for w in ws],
        st.sampled_from(_COMMANDS),
        st.lists(st.one_of(st.tuples(st.sampled_from(_OPTIONS), st.sampled_from(_VALUES)),
                           st.tuples(st.sampled_from(_OPTIONS + _VALUES))), max_size=5)),
)


@settings(max_examples=60, deadline=None)
@given(_ARGVS)
def test_fuzzed_argv_exits_cleanly(argv):
    start = time.perf_counter()
    code, out, err = _in_process(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if err.startswith("error:"):
        assert err.count("\n") == 1, (argv, err)
    assert elapsed < 5, (argv, elapsed)
