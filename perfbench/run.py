"""logbound benchmark: one seeded workload in one process.

    python3 perfbench/run.py --workload certify|fit|scan --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced pass.  The exit code is 1 when any output
fails the correctness oracle and 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from lbbench.workloads import WORKLOADS  # noqa: E402  (does not import logbound)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "logbound", "__init__.py")):
        print(f"error: no logbound package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from lbbench import harness

    result, lines, failures = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), SRC
    )
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
