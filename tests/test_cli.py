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


def test_out_writes_file_atomically(tmp_path, capsys):
    target = tmp_path / "atlas.csv"
    code, out, err = run(
        capsys, "table", "--points", "5", "--format", "csv", "--out", str(target),
    )
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("x,ln1p,")
    assert len(list(tmp_path.iterdir())) == 1  # no temp leftovers


def test_digits_flag_controls_output_precision(capsys):
    _, out20, _ = run(capsys, "table", "--points", "3", "--xmax", "1",
                      "--format", "csv", "--digits", "20")
    _, out40, _ = run(capsys, "table", "--points", "3", "--xmax", "1",
                      "--format", "csv", "--digits", "40")
    v20 = out20.strip().splitlines()[2].split(",")[1]
    v40 = out40.strip().splitlines()[2].split(",")[1]
    assert len(v40) > len(v20)
    assert v40.startswith(v20[:18])


def test_selftest_subcommand_smoke(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    assert len(lines) >= 12
