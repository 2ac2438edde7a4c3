"""Span tracing around polycode's public functions, from outside the package.

polycode's modules import each other's functions with ``from x import y``, so
a function is patched in every loaded ``polycode`` module that holds it, not
only where it is defined.  Each call records one span (name, start, end,
parent span, op id) into flat arrays that stay in memory until the run ends.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import array
import json
import sys
import time
from pathlib import Path

import numpy as np

# Span name -> (defining module, function names).  Names sharing a span name
# are one layer (both anchor kinds walk the same reduced candidate sets).
WRAPPED = {
    "cli.main": ("polycode.cli", ("main",)),
    "ring.new_context": ("polycode.ring", ("new_context",)),
    "gf2poly.div_rem": ("polycode.gf2poly", ("div_rem",)),
    "gf2poly.order": ("polycode.gf2poly", ("order",)),
    "gf2poly.is_irreducible": ("polycode.gf2poly", ("is_irreducible",)),
    "gf2poly.mul": ("polycode.gf2poly", ("mul",)),
    "gf2poly.power_trunc": ("polycode.gf2poly", ("power_trunc",)),
    "distance.full_profile": ("polycode.distance", ("full_distance_profile",)),
    "distance.reduced_set": ("polycode.distance", ("lower_anchor_distance", "upper_anchor_distance")),
    "distance.oracle": ("polycode.distance", ("min_distance_bruteforce",)),
    "linalg.min_weight_span": ("polycode._linalg", ("min_weight_span",)),
    "linalg.rank": ("polycode._linalg", ("rank",)),
    "linalg.rref": ("polycode._linalg", ("rref",)),
    "linalg.nullspace": ("polycode._linalg", ("nullspace",)),
    "linalg.column_kernel": ("polycode._linalg", ("column_kernel",)),
    "duality.dual_code": ("polycode.duality", ("dual_code",)),
    "duality.pow2_candidates": ("polycode.duality", ("dual_pow2_candidates",)),
    "duality.complement": ("polycode.duality", ("dual_complement_distance",)),
    "duality.dual_oracle": ("polycode.duality", ("dual_min_distance_bruteforce",)),
    "duality.closure_check": ("polycode.duality", ("sequential_closure_check",)),
    "lcd.hull_oracle": ("polycode.lcd", ("hull_dimension_oracle",)),
    "lcd.head_criterion": ("polycode.lcd", ("is_lcd_head_criterion",)),
    "lcd.tail_criterion": ("polycode.lcd", ("is_lcd_tail_criterion",)),
    "lcd.conjecture_scan": ("polycode.lcd", ("conjecture_scan",)),
}
ORDER_ID = list(WRAPPED).index("gf2poly.order")  # its result, the order e, is the number of steps taken


def _anchor_candidates(which: str):
    """Reduced-set size 2^(lam-1) from (ctx, s_or_r, cap), as the anchor functions compute it."""

    def count(args, kwargs):
        ctx, t = args[0], args[1]
        if which == "lower":
            j = 1 << (ctx.T - t)
            B = j
        else:
            B = 1 << (ctx.T - t)
            j = (1 << ctx.T) - B
        lam = -(-(ctx.m * (ctx.L - j)) // B)
        return 1 << (lam - 1)

    return count


def _span_words(args, kwargs):
    """2^rank of the rows, the number of words min_weight_span walks."""
    basis: list[int] = []
    for v in args[0]:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return 1 << len(basis)


def _gram_pairs(args, kwargs):
    c = args[0]
    return 0 if c.j == c.ctx.L else c.k * c.k


# (defining module, function) -> (counter name, counter from the call's arguments).
# Counts of candidates refused by a cap go to "distance.reduced_set.refused".
ARG_COUNTERS = {
    ("polycode.gf2poly", "div_rem"): ("gf2poly.div_rem.dividend_bits", lambda a, k: a[0].bit_length()),
    ("polycode.distance", "lower_anchor_distance"): ("distance.reduced_set.candidates", _anchor_candidates("lower")),
    ("polycode.distance", "upper_anchor_distance"): ("distance.reduced_set.candidates", _anchor_candidates("upper")),
    ("polycode._linalg", "min_weight_span"): ("linalg.min_weight_span.words", _span_words),
    ("polycode.duality", "dual_pow2_candidates"): ("duality.pow2_candidates.candidates", lambda a, k: 1 << (a[0].m - 1)),
    ("polycode.lcd", "hull_dimension_oracle"): ("lcd.hull_oracle.gram_pairs", _gram_pairs),
}


class Tracer:
    """Records spans for every call into the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = list(WRAPPED)
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.counters: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from polycode.errors import CapExceeded

        modules = [m for k, m in sys.modules.items() if k == "polycode" or k.startswith("polycode.")]
        for nid, (span_name, (modname, funcs)) in enumerate(WRAPPED.items()):
            for func in funcs:
                orig = getattr(sys.modules[modname], func)
                counter = ARG_COUNTERS.get((modname, func))
                wrapper = self._wrap(orig, nid, counter, CapExceeded if span_name == "distance.reduced_set" else None)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _bump(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, fn, nid: int, counter, refusal):
        clock = time.perf_counter
        stack = self._stack
        start, end, name, parent, op = self.start, self.end, self.name, self.parent, self.op

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[idx] = clock()
                if refusal is not None and isinstance(exc, refusal):
                    self._bump("distance.reduced_set.refused", 1)
                raise
            else:
                end[idx] = clock()
                if counter is not None:
                    self._bump(counter[0], counter[1](args, kwargs))
                if nid == ORDER_ID:
                    self._bump("gf2poly.order.steps", result)
                return result
            finally:
                stack.pop()

        return wrapper

    # -- analysis -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        children = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=dur - children, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        return {
            n: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl[i])}
            for i, n in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the raw arrays in header order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["start", "f8"], ["end", "f8"], ["name", "i4"], ["parent", "i4"], ["op", "i4"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent, self.op):
                arr.tofile(fh)

