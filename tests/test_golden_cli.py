"""Golden CLI bytes: stdout, stderr and exit code for a fixed argv set.

The fixture ``golden_cli.json`` pins every report byte, so refactors of
the expression layer, the bound numerics or the report renderer must
leave the output unchanged.  The ``sandwich fit`` entries pin the fitted
coefficients of the feasible (3,2) cell as well: an LP change that moves
them (a different solver may legitimately return other feasible
coefficients) re-records those entries on purpose.

Re-record only when a report change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os

import pytest

from logbound import exprjet
from logbound.cli import main

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

_IV = ["--expr", "H(t) - (1/60)*(t-1)^5", "--a", "0.9"]
_NONE = ["--expr", "H(t) - (1/30)*(t-1)^5", "--a", "0.9"]
_CASE_I = ["--expr", "2*(t-1) + (t-1)^2", "--a", "0.5"]
_LITERAL = ["--expr", "H(t) - (1/10)*(t-1)^7", "--a", "0.9", "--paper-literal", "--no-radius"]
_PADE = ["--p", "x*(2+x)", "--q", "2*(1+x)", "--xmax", "9", "--grid", "4"]
_HOLDS = ["--p", "x^3 + 21*x^2 + 30*x", "--q", "9*x^2 + 36*x + 30", "--xmax", "0.1",
          "--grid", "50"]
# a degree-(3,3) corridor fit on [-0.5, 0], rounded to 30 digits
_HOLDS_LOWER = [
    "--p", "1.52975030229308936001548135692*x - 0.573823764692794964724068455538*x^3",
    "--q", "1.52975029785357545576777187076 + 0.764874345624488633876091692524*x"
           " - 0.701350863720262698336328126446*x^2 - 0.224196727109876286034848056925*x^3",
    "--region", "lower", "--delta", "0.5", "--grid", "32",
]
_FORMATS = ("csv", "json", "text")
_FIT_CELL = ["--deg", "0,0", "--xmax", "1", "--samples", "8"]
# one infeasible and one feasible cell
_FIT_BATCH = ["--deg", "0,0", "--deg", "3,2", "--xmax", "1"]

ARGVS = (
    [["table", "--points", "5", "--format", f] for f in _FORMATS]
    + [["table", "--log", "--xmin", "0.01", "--xmax", "100", "--points", "4", "--format", f]
       for f in _FORMATS]
    + [["compare", "--points", "12", "--format", f] for f in _FORMATS]
    + [
        ["certify", *_IV, "--format", "json"],
        ["certify", *_IV, "--no-radius"],
        ["certify", *_IV, "--no-radius", "--format", "csv", "--digits", "30"],
        ["certify", *_NONE, "--no-radius"],
        ["certify", *_NONE, "--no-radius", "--format", "json"],
        ["certify", *_CASE_I],
        ["certify", *_CASE_I, "--digits", "30", "--format", "csv"],
        ["certify", *_LITERAL],
        ["certify", *_LITERAL, "--format", "json"],
        ["radius", *_CASE_I],
        ["radius", *_CASE_I, "--format", "json"],
        ["radius", *_NONE, "--format", "csv"],
    ]
    + [["sandwich", "check", *_PADE, "--format", f] for f in _FORMATS]
    + [["sandwich", "check", *_HOLDS, "--format", f] for f in _FORMATS]
    + [
        ["sandwich", "check", "--p", "x", "--q", "1", "--region", "lower", "--grid", "20"],
        ["sandwich", "check", *_HOLDS_LOWER, "--format", "json"],
    ]
    + [["sandwich", "fit", *_FIT_CELL, "--format", f] for f in _FORMATS]
    + [["sandwich", "fit", *_FIT_BATCH, "--format", f] for f in _FORMATS]
    + [
        # the p: and q: coefficient lines of a feasible cell
        ["sandwich", "fit", "--deg", "3,2", "--xmax", "1"],
        # error messages built from to_text and from node type names
        ["certify", "--expr", "1/(t-1)"],
        ["sandwich", "check", "--p", "ln(x)", "--q", "1"],
        ["certify", "--expr", "2*q", "--a", "0.5"],
        # selftest text; test_cli checks its csv and json forms
        ["selftest"],
    ]
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "stdout": out.getvalue(), "stderr": err.getvalue(),
            "exit": code}


def _golden():
    with open(FIXTURE) as fh:
        return {tuple(c["argv"]): c for c in json.load(fh)}


@pytest.mark.parametrize("argv", ARGVS, ids=lambda a: " ".join(a)[:60])
def test_cli_bytes_match_golden(argv):
    assert run_cli(argv) == _golden()[tuple(argv)]


@pytest.mark.parametrize("argv", [a for a in ARGVS if a[0] in ("certify", "radius")],
                         ids=lambda a: " ".join(a)[:60])
def test_certify_bytes_match_golden_cold_and_warm(argv):
    # from no kept reference slots, then with those the first run kept
    # (see exprjet.Tape), each run on a newly parsed tree
    exprjet._REFERENCE_SLOTS.clear()
    golden = _golden()[tuple(argv)]
    assert run_cli(argv) == golden
    kept = list(exprjet._REFERENCE_SLOTS)
    assert run_cli(argv) == golden
    assert list(exprjet._REFERENCE_SLOTS) == kept  # every walk at 1 started from them


def test_fixture_covers_the_argv_set():
    assert sorted(_golden()) == sorted(tuple(a) for a in ARGVS)


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump([run_cli(a) for a in ARGVS], fh, indent=1)
        fh.write("\n")
