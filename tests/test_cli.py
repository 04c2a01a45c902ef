"""Command-line interface: subcommands, exit codes, determinism."""

import contextlib
import io
import json
import os
import stat
import subprocess
import sys

import pytest

from logbound import sandwich
from logbound.certifier import MAX_N_CEILING
from logbound.cli import MAX_DIGITS, main


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


def test_sandwich_fit_lower_region_reaches_zero(capsys):
    # the last sample of [-0.1, 0] is 0 itself, where the corridor closes
    code, out, err = run(capsys, "sandwich", "fit", "--deg", "3,3", "--region", "lower",
                         "--delta", "0.9", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["hi"] == "0.0" and payload["status"] == "feasible"


def test_malformed_expression_exit_2(capsys):
    code, out, err = run(capsys, "certify", "--expr", "2*q", "--a", "0.5")
    assert code == 2 and "position" in err


@pytest.mark.parametrize("expr", ["(" * 2000 + "t" + ")" * 2000, "+".join(["t"] * 3000)],
                         ids=["2000-parens", "3000-terms"])
def test_deep_expression_exit_2(capsys, expr):
    code, out, err = run(capsys, "certify", "--expr", expr, "--no-radius")
    assert code == 2 and out == ""
    assert err.startswith("error: expression nests deeper than") and err.count("\n") == 1


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
