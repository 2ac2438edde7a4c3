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


def _counted() -> set[tuple[str, str]]:
    counters = _literal("ARG_COUNTERS")
    assert isinstance(counters, ast.Dict)
    return {ast.literal_eval(key) for key in counters.keys}


def _traced() -> set[tuple[str, str]]:
    wrapped = ast.literal_eval(_literal("WRAPPED"))
    return {(mod, fn) for mod, fns in wrapped.values() for fn in fns} | _counted()


def test_every_traced_function_resolves_in_the_package():
    pairs = _traced()
    assert ("polycode.distance", "upper_anchor_distance") in pairs
    for mod, fn in sorted(pairs):
        assert callable(getattr(importlib.import_module(mod), fn, None)), f"{mod}.{fn} is gone"


# each counter reads the call's leading positional arguments: these are their names
COUNTER_PARAMETERS = {
    ("polycode.gf2poly", "div_rem"): ["a"],
    ("polycode.distance", "lower_anchor_distance"): ["ctx", "s"],
    ("polycode.distance", "upper_anchor_distance"): ["ctx", "r"],
    ("polycode._linalg", "min_weight_span"): ["rows"],
    ("polycode.duality", "dual_pow2_candidates"): ["ctx"],
    ("polycode.lcd", "hull_dimension_oracle"): ["c"],
}


def test_every_counter_reads_the_parameters_it_names():
    assert _counted() == set(COUNTER_PARAMETERS)
    for (mod, fn), names in COUNTER_PARAMETERS.items():
        params = list(inspect.signature(getattr(importlib.import_module(mod), fn)).parameters)
        assert params[: len(names)] == names, f"{mod}.{fn}{params}"
