"""Tests of the benchmark harness itself: tiny runs of every workload,
traced against untraced output, seed reproducibility and the oracle.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import mpmath
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import logbound  # noqa: E402
from logbound import certifier, exprjet, sandwich  # noqa: E402

from lbbench import harness, oracle, workloads  # noqa: E402
from lbbench.tracer import Tracer  # noqa: E402


def _fit_round_small(seed):
    """The (0,0) cells of fit round 0 and one feasible cell, so the
    coefficient re-check runs."""
    ops = workloads.make_rounds("fit", seed)(0)
    feasible = next(op for op in ops if op.expect["status"] == "feasible")
    return [op for op in ops if op.expect["cell"][:2] == (0, 0)] + [feasible]


TINY = {
    "certify": lambda seed: workloads.make_rounds("certify", seed)(0),
    "fit": _fit_round_small,
    "scan": lambda seed: workloads.make_rounds("scan", seed)(0),
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_has_no_failures(workload):
    p = harness.Pass()
    p.run_round(TINY[workload](7))
    assert p.latencies and p.failures == []


def test_traced_output_is_byte_identical_and_bindings_restored():
    rounds = lambda k: TINY["certify"](3) + TINY["scan"](3)
    plain, traced, tracer = harness.run_traced(rounds, seconds=1e-9)
    assert plain.failures == [] and traced.failures == []
    assert plain.report_hashes == traced.report_hashes
    # certifier and sandwich call their own by-name bindings
    assert tracer.calls["exprjet.eval_expr"] > 0
    assert tracer.calls["bounds.f_cb"] > 0
    assert tracer.calls["cli.main"] == sum(op.kind == "cli" for op in rounds(0))
    for module in (logbound, certifier, sandwich):
        for name in ("eval_expr", "jet", "f_cb", "find_witness"):
            fn = getattr(module, name, None)
            assert not hasattr(fn, "__wrapped__")
    assert certifier.eval_expr is exprjet.eval_expr


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()
    with tracer.installed():
        certifier.certify(exprjet.parse("H(t) - 0.02*(t-1)^5"), "0.5")
    assert tracer.calls["certifier.find_radius"] == 1
    assert tracer.counters["exprjet.jet.order_sum"] == 14
    for name in tracer.total:
        assert 0 <= tracer.self_time[name] <= tracer.total[name] + 1e-9
    assert tracer.self_time["certifier.certify"] < tracer.total["certifier.certify"]


def test_same_seed_same_inputs_and_digest():
    for workload in ("certify", "fit", "scan"):
        a = workloads.make_rounds(workload, 5)
        b = workloads.make_rounds(workload, 5)
        assert [op.args for op in a(2)] == [op.args for op in b(2)]
        assert [op.args for op in a(2)] != [op.args for op in workloads.make_rounds(workload, 6)(2)]
    digests = []
    for _ in range(2):
        p = harness.Pass()
        p.run_round(TINY["scan"](5))
        digests.append(p.digest())
    assert digests[0] == digests[1]


def test_rationals_keep_q_of_one_sign():
    import random

    rng = random.Random(0)
    for _ in range(300):
        for region in ("upper", "lower"):
            _, q = workloads.random_rational(rng, region)
            xs = [i / 8 for i in range(64)] if region == "upper" else [-i / 8 for i in range(9)]
            assert all(sum(c * x ** k for k, c in enumerate(q)) > 0 for x in xs)


def test_fit_reference_covers_every_cell():
    ref = workloads.load_reference()
    assert {workloads.fit_key(*c) for c in workloads.all_fit_cells()} <= set(ref)


def test_oracle_rejects_wrong_outputs():
    op = workloads.certify_round(1, 0)[0]
    e = dict(op.expect, command="radius", format="json", family="A", eps="0.03",
             rc=0, case="IV", n=None, a="0.9")
    good = json.dumps({"case": "IV", "n": None, "radius": "0.07"})
    assert oracle.check_certify(e, 0, good) is None
    assert oracle.check_certify(e, 1, good) is not None
    assert "case" in oracle.check_certify(e, 0, good.replace("IV", "I"))
    # the family's radius is about 0.0715: 0.2 must fail the re-check
    assert "pattern fails" in oracle.check_certify(
        e, 0, json.dumps({"case": "IV", "n": None, "radius": "0.2"}))

    fit_e = {"cell": (3, 2, "upper", "1", 28), "status": "feasible"}
    rc, text, _ = harness.execute(workloads.Op(
        "cli", ("sandwich", "fit", "--deg", "3,2", "--xmax", "1", "--format", "json")))
    assert oracle.check_fit(fit_e, rc, text) is None
    d = json.loads(text)
    d["p_coeffs"][0] = mpmath.nstr(mpmath.mpf(d["p_coeffs"][0]) + mpmath.mpf("1e-3"), 30)
    assert "corridor" in oracle.check_fit(fit_e, rc, json.dumps(d))
    assert "reference" in oracle.check_fit(dict(fit_e, status="infeasible"), rc, text)

    w = sandwich.find_witness(sandwich.RationalFn((0, 2, 1), (2, 2)), "upper")
    assert oracle.check_witness({"args": ((0, 2, 1), (2, 2), "upper")}, w) is None
    assert oracle.check_witness({"args": ((0, 1, -1), (1,), "upper")}, w) is not None


def test_run_without_program_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "correct" not in proc.stdout
