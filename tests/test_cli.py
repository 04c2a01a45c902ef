"""Command-line interface: subcommands, exit codes, determinism."""

import json

import pytest

from logbound.cli import main


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


def test_selftest_subcommand_smoke(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    assert len(lines) >= 12


def test_selftest_honours_format(capsys):
    code, out, err = run(capsys, "selftest", "--format", "json")
    rows = json.loads(out)
    assert code == 0 and {r["status"] for r in rows} == {"PASS"}
    code, out, err = run(capsys, "selftest", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "suite,status,detail" and len(lines) == len(rows) + 1
