"""Regenerate perfbench/lbbench/fit_reference.json.

Solves every fit cell the fit workload can draw at 50 digits (the CLI
default) and again at 40 digits, and keeps only the cells whose status
agrees at both precisions.  Usage, from the repository root:

    python3 perfbench/make_fit_reference.py

Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from logbound import Precision, fit_sandwich  # noqa: E402

from lbbench.workloads import REFERENCE_PATH, all_fit_cells, fit_key  # noqa: E402


def status(cell, digits: int) -> str:
    n, m, region, bound, samples = cell
    kw = {"xmax": str(float(bound))} if region == "upper" else {"delta": str(float(bound))}
    return fit_sandwich(n, m, region, samples=samples, p=Precision(digits), **kw).status


def main() -> int:
    cells, dropped = {}, []
    t0 = time.perf_counter()
    for cell in all_fit_cells():
        s50, s40 = status(cell, 50), status(cell, 40)
        if s50 == s40:
            cells[fit_key(*cell)] = s50
        else:
            dropped.append({"cell": fit_key(*cell), "50": s50, "40": s40})
        print(fit_key(*cell), s50, s40, file=sys.stderr, flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"digits_compared": [50, 40], "dropped": dropped, "cells": cells}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(cells)} cells kept, {len(dropped)} dropped, "
          f"{time.perf_counter() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
