"""The benchmark's tracer wraps package functions by name; every name it lists must still exist."""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import math
from pathlib import Path

import pytest

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


def _load(name: str):
    """perfbench/<name>.py as a module of its own, read from the file without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", TRACING.with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _finite_and_exact(value) -> bool:
    return math.isfinite(value) and abs(value) < 2**53


def test_a_traced_run_of_every_command_serializes_finite_metrics():
    # the benchmark's tracer, installed in-process as its traced runs install it, around the first op of each
    # command in each workload (seed 1; survey's dual at j = 3L/4 too) and whole analyze chains on
    # x^6+x^3+1 = Q(x^3), L = 11..16
    pytest.importorskip("numpy")
    import polycode._linalg, polycode.cli, polycode.distance, polycode.duality, polycode.lcd  # noqa: E401, F401

    gen, tracing = _load("gen"), _load("tracing")
    ops = {}
    for workload in gen.WORKLOADS:
        for op in gen.make_ops(workload, 1):
            ops.setdefault((workload, op.command, op.j == 1), op)
    argvs = [op.argv() for op in ops.values()]
    argvs += [gen.Op("analyze-chain", 0b1001001, L).argv() for L in range(11, 17)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                assert polycode.cli.main(argv) == 0, (argv, err.getvalue())
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["cli.main"]["calls"] == len(argvs) == 16
    json.dumps({"totals": totals, "counters": tracer.counters}, allow_nan=False)
    values = [v for stats in totals.values() for v in stats.values()] + list(tracer.counters.values())
    assert all(_finite_and_exact(v) for v in values), {k: v for k, v in tracer.counters.items() if not _finite_and_exact(v)}
