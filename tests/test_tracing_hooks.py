"""The benchmark's tracer wraps package functions by name; every name it lists must still exist."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _literal(name: str) -> ast.expr:
    """The value assigned to a top-level name in perfbench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{name} is not assigned in {TRACING}")


def _traced() -> set[tuple[str, str]]:
    wrapped = ast.literal_eval(_literal("WRAPPED"))
    counters = _literal("ARG_COUNTERS")
    assert isinstance(counters, ast.Dict)
    pairs = {(mod, fn) for mod, fns in wrapped.values() for fn in fns}
    return pairs | {ast.literal_eval(key) for key in counters.keys}


def test_every_traced_function_resolves_in_the_package():
    pairs = _traced()
    assert ("polycode.distance", "upper_anchor_distance") in pairs
    for mod, fn in sorted(pairs):
        assert callable(getattr(importlib.import_module(mod), fn, None)), f"{mod}.{fn} is gone"


def test_anchor_counters_read_the_second_argument():
    # the reduced-set counter reads (ctx, s_or_r) from the call's positional arguments
    from polycode.distance import lower_anchor_distance, upper_anchor_distance

    assert list(inspect.signature(lower_anchor_distance).parameters)[:2] == ["ctx", "s"]
    assert list(inspect.signature(upper_anchor_distance).parameters)[:2] == ["ctx", "r"]
