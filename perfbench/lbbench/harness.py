"""Timed closed loop, set-up measurement and metric assembly.

One client in one process sends an operation, waits for the verdict,
checks it with the oracle and only then sends the next one.  Only the
operation itself is timed; input generation and the oracle run between
operations.  The loop runs whole rounds until the timed total reaches
the requested seconds and at least MIN_OPS operations are done.

The host this runs on changes speed by up to a factor of two within
seconds, because other tenants share its cores.  So the harness probes
host speed with a fixed mpmath kernel every PROBE_EVERY_S of timed work
and rescales each operation's wall-clock time to a host on which the
kernel takes REFERENCE_KERNEL_S.  The kernel uses mpmath only, so a
change to logbound moves the rescaled times exactly as it moves the raw
ones; the raw wall-clock figures are printed beside them.
"""

from __future__ import annotations

import glob
import hashlib
import io
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import List

import mpmath
from mpmath import mp, mpf

from logbound import cli, sandwich

from . import oracle
from .tracer import Tracer
from .workloads import FIRST_OPS, make_rounds

# p90 needs ten samples beyond it.
MIN_OPS = 100
# The report digest covers the first DIGEST_OPS operations, which every
# run executes, so that it depends on the seed only.
DIGEST_OPS = 100
SETUP_PROCESSES = 9
# Kernel time on a quiet 2-core x86 host; rescaled times read as
# wall-clock times on such a host.
REFERENCE_KERNEL_S = 0.003
PROBE_EVERY_S = 0.05

# A fresh interpreter: import logbound and complete the workload's first
# operation; prints the seconds this took and then, once warm, the host
# kernel time of this process.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import contextlib, io
from logbound import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[3:])
t = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from lbbench.harness import kernel_seconds
kernel_seconds()
print(t, kernel_seconds())
"""


def _kernel_once() -> float:
    t0 = time.perf_counter()
    with mp.workdps(65):
        acc = mpf(0)
        for i in range(1, 30):
            x = mpf(i) / 7
            acc += mpmath.atan(mpmath.sqrt(x + 1)) * mpmath.ln(1 + x) - x * x / (x + 2)
        row = [mpf(j) / 3 for j in range(1, 61)]
        pivot = [mpf(j) / 11 for j in range(1, 61)]
        for f in range(1, 13):
            fm = mpf(f) / 13
            row = [v - fm * w for v, w in zip(row, pivot)]
    return time.perf_counter() - t0


def kernel_seconds() -> float:
    """Host-speed probe: the faster of two runs of a fixed mpmath kernel
    that mixes the work logbound spends its time in, transcendental
    functions and simplex-style row updates at 65 digits."""
    return min(_kernel_once(), _kernel_once())


def execute(op):
    """Run one operation: (exit code, report text, result object)."""
    if op.kind == "witness":
        p, q, region = op.args
        w = sandwich.find_witness(sandwich.RationalFn(p, q), region)
        return 0, w.to_json(), w
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(list(op.args))
    return rc, out.getvalue(), None


@dataclass
class Pass:
    """Latencies, failures and report hashes of the operations run."""

    latencies: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    report_hashes: List[bytes] = field(default_factory=list)
    busy: float = 0.0
    rounds: int = 0

    def run_op(self, op, quiet=nullcontext):
        """Time one operation and check it with the oracle.  `quiet`
        wraps the oracle, so that a tracer can leave its calls out."""
        t0 = time.perf_counter()
        try:
            rc, text, obj = execute(op)
            err = None
        except Exception as exc:  # a failed operation is counted, not fatal
            rc, text, obj = None, "", None
            err = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        self.busy += dt
        self.latencies.append(dt)
        if err is None:
            with quiet():
                try:
                    err = oracle.check(op, rc, text, obj)
                except Exception as exc:  # unparsable output is a failure
                    err = f"oracle: {type(exc).__name__}: {exc}"
        if err is not None:
            self.failures.append(f"{' '.join(map(str, op.args))}: {err}")
        self.report_hashes.append(hashlib.sha256(text.encode()).digest())

    def run_round(self, ops):
        for op in ops:
            self.run_op(op)
        self.rounds += 1

    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.report_hashes[:DIGEST_OPS])).hexdigest()


def run_timed(rounds, seconds: float, min_ops: int = 0):
    """Whole rounds until `seconds` of timed work and `min_ops`
    operations are done.  Returns the pass, the latencies rescaled to
    the reference host speed, and the kernel times probed."""
    p = Pass()
    probes = [(0, kernel_seconds())]  # (first operation after the probe, kernel time)
    last = 0.0
    while p.busy < seconds or len(p.latencies) < min_ops:
        for op in rounds(p.rounds):
            p.run_op(op)
            if p.busy - last >= PROBE_EVERY_S:
                probes.append((len(p.latencies), kernel_seconds()))
                last = p.busy
        p.rounds += 1
    probes.append((len(p.latencies), kernel_seconds()))
    # Each stretch of operations is rescaled by the mean of the two
    # probes around it.
    scaled = []
    for (i, k0), (j, k1) in zip(probes, probes[1:]):
        f = REFERENCE_KERNEL_S / ((k0 + k1) / 2)
        scaled += [t * f for t in p.latencies[i:j]]
    return p, scaled, [k for _, k in probes]


def run_traced(rounds, seconds: float):
    """Each operation untraced, then again under the tracer, for whole
    rounds until the untraced runs hold `seconds` of timed work.
    Alternating keeps host-speed drift out of the tracing overhead."""
    plain, traced, tracer = Pass(), Pass(), Tracer()
    while plain.busy < seconds:
        for op in rounds(plain.rounds):
            plain.run_op(op)
            with tracer.installed():
                traced.run_op(op, quiet=tracer.paused)
        plain.rounds += 1
        traced.rounds += 1
    return plain, traced, tracer


def measure_setup(workload: str, src: str):
    """Median over fresh processes of import plus first operation:
    (rescaled to the reference host speed, raw wall-clock)."""
    scaled, raw = [], []
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, src, here, *FIRST_OPS[workload]],
            capture_output=True, text=True, timeout=120, check=True,
        )
        t, k = map(float, proc.stdout.split()[-2:])
        raw.append(t)
        scaled.append(t * REFERENCE_KERNEL_S / k)
    return statistics.median(scaled), statistics.median(raw)


def quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics, steadier than a single order statistic when
    the latencies of a mix spread widely.  The Beta weights are taken at
    the midpoints of the n rank intervals."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logw = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    w = [math.exp(v - top) for v in logw]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def src_lines(src: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(src, "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def _warm_up(rounds, seconds: float = 1.0):
    """Fill mpmath's caches before timing: operations of an extra round
    (index -1, never timed) until `seconds` have passed."""
    t0 = time.perf_counter()
    for op in rounds(-1):
        execute(op)
        if time.perf_counter() - t0 >= seconds:
            return


def run(workload: str, seed: int, seconds: float, trace: bool, src: str):
    """(result for the last output line, report lines, failure reasons)."""
    rounds = make_rounds(workload, seed)
    _warm_up(rounds)
    lines = [f"workload {workload}, seed {seed}: closed loop, 1 client, nproc {os.cpu_count()}"]
    if not trace:
        p, scaled, kernels = run_timed(rounds, seconds, MIN_OPS)
        n = len(scaled)
        setup, setup_raw = measure_setup(workload, src)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "ops_per_s": {"value": n / sum(scaled), "unit": "1/s"},
            "lat_p50_ms": {"value": 1000 * quantile(scaled, 0.5), "unit": "ms"},
            "lat_p90_ms": {"value": 1000 * quantile(scaled, 0.9), "unit": "ms"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        for name, m in metrics.items():
            lines.append(f"{name} {m['value']:.6g} {m['unit']}")
        lines.append(f"samples {n} operations in {p.rounds} rounds ({n - int(0.9 * n)} beyond p90)")
        lines.append(
            f"raw wall-clock: ops_per_s {n / p.busy:.6g} 1/s, "
            f"lat_p50_ms {1000 * quantile(p.latencies, 0.5):.6g}, "
            f"lat_p90_ms {1000 * quantile(p.latencies, 0.9):.6g}, "
            f"setup_s {setup_raw:.6g}; host kernel {1000 * min(kernels):.3g}-"
            f"{1000 * max(kernels):.3g} ms in {len(kernels)} probes "
            f"(reference {1000 * REFERENCE_KERNEL_S:g} ms)")
        lines.append(f"fail_frac {len(p.failures) / n:.6g} ({len(p.failures)}/{n})")
        lines.append(f"info src_lines {src_lines(src)} report_sha256 {p.digest()}")
        failures, attempted = p.failures, n
    else:
        plain, traced, tracer = run_traced(rounds, seconds / 2)
        failures = plain.failures + traced.failures
        failures += [f"operation {i}: traced report bytes differ from untraced"
                     for i, (a, b) in enumerate(zip(plain.report_hashes, traced.report_hashes))
                     if a != b]
        attempted = len(plain.latencies) + len(traced.latencies)
        overhead = 100 * (traced.busy / plain.busy - 1)
        metrics = tracer.metrics(len(traced.latencies), overhead)
        lines.append(f"traced {len(traced.latencies)} operations in {traced.rounds} rounds, "
                     f"overhead {overhead:.3g}%")
        lines.append(f"fail_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
        lines.append(f"info report_sha256 {plain.digest()}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines, failures
