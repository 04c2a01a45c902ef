"""Seeded input generators for the three workloads.

Each workload is a sequence of rounds.  A round is a fixed mix of
operation classes; the seed and the round index choose the inputs
inside each class, so every round costs about the same and a run's
figures do not depend on where the timed window happens to end.
Every generator emits only valid inputs whose verdict is known in
advance from the mathematics (certify families, Q of one sign on the
region, fit cells from the reference table), so no operation is
expected to fail.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

FORMATS = ("json", "text", "csv")
A_VALUES = ("0.5", "0.7", "0.9")

# Region variants of the fit and check workloads: the three upper
# intervals [0, X] and the lower interval [-1 + 0.5, 0].
FIT_REGIONS = (("upper", "0.25"), ("upper", "1"), ("upper", "4"), ("lower", "0.5"))

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "fit_reference.json")


@dataclass
class Op:
    """One operation of the closed-loop client.

    kind "cli" calls ``logbound.cli.main(args)``; kind "witness" calls
    ``sandwich.find_witness`` on the rational with coefficient lists
    ``args = (p, q, region)``.  ``expect`` holds what the oracle needs.
    """

    kind: str
    args: tuple
    expect: Dict = field(default_factory=dict)


def _rng(seed: int, workload: str, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


# ---------------------------------------------------------------------------
# certify: the exprjet eval and certifier radius path
# ---------------------------------------------------------------------------

# Family A: H(t) - eps*(t-1)^5 with eps inside (0, 1/30) certifies in
# case IV (P^(5)(1) = -8 - 120*eps lies in (-12, -8)) and gets a radius.
# Family B: eps beyond 1/30 puts P^(5)(1) below -12, so no case holds
# (exit 1, conditions only).  Family C: 2t*ln(t) + c*(t-1)^3 with c > 0
# has G = c*(t-1)^3, so case I with n = 1 holds and the pattern holds on
# the whole domain: the radius equals a.
# Five fast operations out of eight keep p50 on the conditions-only
# path and p90 on the radius search.
CERTIFY_ROUND = ("B", "B", "B", "B", "B", "A", "A", "C")


def _certify_op(family: str, command: str, fmt: str, rng: random.Random) -> Op:
    a = rng.choice(A_VALUES)
    if family == "A":
        eps = "%.4f" % rng.uniform(0.002, 0.032)
        expr = f"H(t) - {eps}*(t-1)^5"
        expect = {"family": "A", "eps": eps, "rc": 0, "case": "IV", "n": None}
    elif family == "B":
        eps = "%.4f" % (10 ** rng.uniform(-1.39, 0.3))  # [0.041, 2.0]
        expr = f"H(t) - {eps}*(t-1)^5"
        expect = {"family": "B", "eps": eps, "rc": 1, "case": "none", "n": None}
    else:
        c = "%.3f" % (10 ** rng.uniform(-2, 0.7))  # [0.01, 5.0]
        expr = f"2*t*ln(t) + {c}*(t-1)^3"
        expect = {"family": "C", "c": c, "rc": 0, "case": "I", "n": 1}
    expect.update(command=command, format=fmt, a=a)
    return Op("cli", (command, "--expr", expr, "--a", a, "--format", fmt), expect)


def certify_round(seed: int, k: int) -> List[Op]:
    rng = _rng(seed, "certify", k)
    ops = []
    fmt0 = rng.randrange(3)
    for i, family in enumerate(CERTIFY_ROUND):
        # "radius" for two of the five B operations and one A operation
        command = "radius" if i in (3, 4, 6) else "certify"
        ops.append(_certify_op(family, command, FORMATS[(fmt0 + i) % 3], rng))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# fit: the dense phase-1 simplex
# ---------------------------------------------------------------------------

# One fit round runs every slot below once in each of the four region
# variants, 108 operations in all, so each run holds at least 100
# operations and p90 has ten samples beyond it.  A slot fixes a cost
# class: a degree pair family and a band of 1, 2 or 4 sample counts.
# Within a slot the four region variants share out the pairs and the
# counts evenly, and the seed decides which variant gets which, so every
# seed runs nearly the same cost mix and runs of different seeds stay
# comparable.  Cost rises steeply with n+m and the sample count, so
# heavy cells are rare: sorted by cost, p50 falls among the n+m = 2
# cells and p90 among the n+m = 4 cells, whose slots take no choice so
# that p90 does not move with the seed.  (4,1) and (1,4) are left out:
# their verdict flips with the sample count.
FIT_SLOTS = (
    (((3, 2), (2, 3)), (28,)),
    (((2, 2),), (24,)),
    (((3, 1),), (24,)),
    (((1, 3),), (24,)),
    (((2, 1), (1, 2)), (20,)),
    (((2, 1), (1, 2)), (22, 24)),
    (((3, 0),), (20, 22)),
    (((0, 3),), (20, 22)),
    (((1, 1),), (16, 18)),
    (((1, 1),), (20, 22)),
    (((1, 1),), (24, 26)),
    (((1, 1),), (28, 32)),
    (((2, 0),), (16, 18)),
    (((2, 0),), (20, 24)),
    (((0, 2),), (16, 18)),
    (((0, 2),), (20, 24)),
    (((1, 0),), (12, 14)),
    (((1, 0),), (15, 16, 17, 18)),
    (((1, 0),), (19, 21)),
    (((1, 0),), (22, 24)),
    (((0, 1),), (12, 14)),
    (((0, 1),), (15, 16, 17, 18)),
    (((0, 1),), (19, 21)),
    (((0, 1),), (22, 24)),
    (((0, 0),), (8, 10)),
    (((0, 0),), (11, 13)),
    (((0, 0),), (14, 16)),
)


def fit_key(n: int, m: int, region: str, bound: str, samples: int) -> str:
    return f"{n},{m},{region},{bound},{samples}"


def all_fit_cells() -> List[Tuple]:
    """Every cell the fit workload can draw."""
    return sorted({(n, m, region, bound, s)
                   for pairs, counts in FIT_SLOTS for (n, m) in pairs for s in counts
                   for region, bound in FIT_REGIONS})


def load_reference() -> Dict[str, str]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["cells"]


def fit_round(seed: int, k: int, reference: Dict[str, str]) -> List[Op]:
    rng = _rng(seed, "fit", k)
    ops = []
    for pairs, counts in FIT_SLOTS:
        share = len(FIT_REGIONS)
        pairs = rng.sample(pairs * (share // len(pairs)), share)
        counts = rng.sample(counts * (share // len(counts)), share)
        for (region, bound), (n, m), s in zip(FIT_REGIONS, pairs, counts):
            args = ("sandwich", "fit", "--deg", f"{n},{m}", "--region", region)
            args += ("--xmax", bound) if region == "upper" else ("--delta", bound)
            args += ("--samples", str(s), "--format", "json")
            expect = {"cell": (n, m, region, bound, s),
                      "status": reference[fit_key(n, m, region, bound, s)]}
            ops.append(Op("cli", args, expect))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# scan: millisecond operations on the closed-form bounds
# ---------------------------------------------------------------------------


def random_rational(rng: random.Random, region: str):
    """Small-integer P/Q with Q of one sign on the region.

    Upper region: Q has non-negative coefficients and Q(0) >= 1, so
    Q >= 1 on [0, oo).  Lower region: |Q(0)| exceeds the sum of the
    other coefficients' magnitudes, so Q > 0 on [-1, 1].
    """
    dp = rng.randint(1, 3)
    p = [rng.randint(-3, 3) for _ in range(dp)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
    dq = rng.randint(0, 2)
    if region == "upper":
        q = [rng.randint(1, 3)] + [rng.randint(0, 3) for _ in range(dq)]
        if dq:
            q[-1] = rng.randint(1, 3)
    else:
        rest = [rng.randint(-2, 2) for _ in range(dq)]
        if dq:
            rest[-1] = rng.choice((-2, -1, 1, 2))
        q = [sum(abs(c) for c in rest) + rng.randint(1, 3)] + rest
    return tuple(p), tuple(q)


def poly_text(coeffs) -> str:
    """Expression text of a polynomial in x, constant term first."""
    out = ""
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = str(abs(c)) + ("" if k == 0 else "*x" if k == 1 else f"*x^{k}")
        if not out:
            out = mono if c > 0 else "-" + mono
        else:
            out += (" + " if c > 0 else " - ") + mono
    return out or "0"


def scan_round(seed: int, k: int) -> List[Op]:
    rng = _rng(seed, "scan", k)
    fmt0 = rng.randrange(3)
    fmt = lambda i: FORMATS[(fmt0 + i) % 3]
    ops = []
    for region in ("upper", "lower") * 3:
        p, q = random_rational(rng, region)
        ops.append(Op("witness", (p, q, region)))
    for i, region in enumerate(("upper", "lower")):
        p, q = random_rational(rng, region)
        grid = str(rng.randint(8, 32))
        # "--p=" keeps argparse from reading a leading minus as an option
        args = ("sandwich", "check", f"--p={poly_text(p)}", f"--q={poly_text(q)}", "--region", region)
        if region == "upper":
            bound = rng.choice(("0.25", "0.5", "1", "2", "4", "9"))
            args += ("--xmax", bound)
        else:
            bound = rng.choice(("0.5", "0.1", "0.01"))
            args += ("--delta", bound)
        args += ("--grid", grid, "--format", fmt(i))
        ops.append(Op("cli", args, {"p": p, "q": q, "region": region, "bound": bound,
                                    "grid": int(grid), "format": fmt(i)}))
    if rng.random() < 0.5:
        xmin, xmax, log = "0", "%.2f" % rng.uniform(0.5, 20), False
    else:
        xmin, xmax, log = "%.3g" % 10 ** rng.uniform(-6, -1), "%.3g" % 10 ** rng.uniform(0, 4), True
    points = str(rng.randint(4, 16))
    args = ("table", "--xmin", xmin, "--xmax", xmax, "--points", points) + (("--log",) if log else ())
    ops.append(Op("cli", args + ("--format", fmt(2)),
                  {"xmin": xmin, "xmax": xmax, "points": int(points), "log": log, "format": fmt(2)}))
    xmin, xmax = "%.3g" % 10 ** rng.uniform(-6, -2), "%.3g" % 10 ** rng.uniform(1, 6)
    points = str(rng.randint(8, 24))
    ops.append(Op("cli", ("compare", "--xmin", xmin, "--xmax", xmax, "--points", points,
                          "--format", fmt(3)), {"points": int(points), "format": fmt(3)}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------


# First operation of a fresh process, for setup_s: a cheap operation of
# each workload's mix with a fixed input.
FIRST_OPS = {
    "certify": ("certify", "--expr", "H(t) - 0.5*(t-1)^5", "--a", "0.9", "--format", "json"),
    "fit": ("sandwich", "fit", "--deg", "0,0", "--xmax", "1", "--format", "json"),
    "scan": ("table", "--xmin", "0", "--xmax", "1", "--points", "4", "--format", "json"),
}


def make_rounds(workload: str, seed: int):
    """Function of the round index k returning that round's operations."""
    if workload == "certify":
        return lambda k: certify_round(seed, k)
    if workload == "fit":
        reference = load_reference()
        return lambda k: fit_round(seed, k, reference)
    if workload == "scan":
        return lambda k: scan_round(seed, k)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("certify", "fit", "scan")
