"""Outside-in per-layer tracer.

The program has no spans of its own yet, so the tracer wraps public
functions from outside.  logbound modules import these functions by
name (``certifier`` holds its own ``eval_expr`` and ``f_cb``,
``sandwich`` its own ``jet`` and ``f_cb``), so every module that binds
a function gets the wrapper, not only the defining one.  ``restore``
puts the original bindings back.

Per function the tracer records calls, total time and self time: total
time minus the time of wrapped functions called underneath.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

TRACED = (
    "exprjet.parse", "exprjet.eval_expr", "exprjet.jet",
    "bounds.f_cb", "bounds.ln1p", "bounds.bound_value", "bounds.H_deriv",
    "certifier.certify", "certifier.check_case", "certifier.find_radius",
    "certifier.verify_pattern_on_grid",
    "sandwich.fit_sandwich", "sandwich.find_witness", "sandwich.check_sandwich",
    "sandwich.expr_to_poly",
    "cli.main",
)

# Counters derived at the wrapped boundaries.
DERIVED = ("exprjet.jet.order_sum", "certifier.grid_rejects", "sandwich.witness_fallback")


def _jet_order(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["order"]


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.total = dict.fromkeys(TRACED, 0.0)
        self.self_time = dict.fromkeys(TRACED, 0.0)
        self.counters = dict.fromkeys(DERIVED, 0)
        self.recording = True
        self._children = []  # per open wrapped call: time spent in wrapped children
        self._open_witness = 0
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        clock = time.perf_counter
        children = self._children

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if name == "sandwich.check_sandwich" and self._open_witness:
                self.counters["sandwich.witness_fallback"] += 1
            elif name == "sandwich.find_witness":
                self._open_witness += 1
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - children.pop()
                if children:
                    children[-1] += dt
                if name == "sandwich.find_witness":
                    self._open_witness -= 1
            if name == "exprjet.jet":
                self.counters["exprjet.jet.order_sum"] += _jet_order(args, kwargs)
            elif name == "certifier.verify_pattern_on_grid" and result is not None:
                self.counters["certifier.grid_rejects"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every logbound module that binds a traced function."""
        originals = {}
        for name in TRACED:
            mod, fn = name.rsplit(".", 1)
            originals[name] = getattr(importlib.import_module(f"logbound.{mod}"), fn)
        by_id = {id(f): (name, f) for name, f in originals.items()}
        wrappers = {name: self._wrap(name, f) for name, f in originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "logbound" and not modname.startswith("logbound."):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(module, attr, wrappers[hit[0]])
                    self._patched.append((module, attr, value))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextmanager
    def paused(self):
        """Run the oracle's own calls into logbound without recording them."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def metrics(self, ops: int, overhead_pct: float) -> dict:
        """Per-layer metrics, normalised per operation of the traced pass."""
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = {"value": self.calls[name] / ops, "unit": "1/op"}
            out[f"{name}.ms"] = {"value": 1000 * self.total[name] / ops, "unit": "ms/op"}
            out[f"{name}.self_ms"] = {"value": 1000 * self.self_time[name] / ops, "unit": "ms/op"}
        for name in DERIVED:
            out[name] = {"value": self.counters[name] / ops, "unit": "1/op"}
        out["trace_overhead_pct"] = {"value": overhead_pct, "unit": "%"}
        return out
