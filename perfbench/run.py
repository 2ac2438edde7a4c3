"""polycode benchmark: seeded CLI workloads timed in-process, with a traced mode.

    python3 perfbench/run.py --workload chain-sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from the root of a polycode checkout; the package is imported from src/.
Each op is one ``polycode`` command run through ``polycode.cli.main(argv)``
with stdout and stderr captured and the exit code checked.  The load is a
closed loop: one client in one process, one op at a time.  The timed phase
runs the workload's seeded op list (see gen.py) and stops early when
--seconds have passed; the lists are sized to finish well inside the run
length, so every seed measures the same amount of work.  A run cut short
by the deadline measured less work than the others and reports
``correct`` false.

After the timed phase every output is checked (check.py) and the embedded
fixtures are replayed; ``correct`` is false if any op failed or any fixture
check mismatched.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of tracing.py with --trace 1.

Host speed.  On a shared machine the speed of this process drifts by tens of
percent over seconds to minutes, which no run length averages away.  So every
op is bracketed by two runs of a fixed calibration loop (pure-Python int work
like polycode's), and its wall time is scaled by the loop's reference duration
over the mean of the two: times are reported as they would read on the
reference host.  The raw wall-clock figures are printed alongside.

End-to-end metrics (untraced runs only; times scaled as above):
  ops_per_s    ops completed per second of op time
  op_p50_ms    median time of one op
  op_p90_ms    90th percentile time of one op (lists hold >= 100 ops)
  exact_share  exact distance slots over returned distance slots (analyze
               reports and dual distances); on lcd-scan, which returns no
               distance, the share of hull slots with a hull dimension
  setup_s      median over fresh processes of the main thread's CPU time from
               spawn until the first op could run: interpreter, ``import
               polycode`` (numpy) and input generation, scaled by the
               calibration loop run in that process right after.  CPU time of
               the main thread leaves out the wait for a core and numpy's
               worker threads, which move from spawn to spawn.
  peak_rss_mb  the benchmark process's maximum resident set size
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

SETUP_PROBES = 11

# Duration of the calibration loop on the reference host (the 2-core Xeon the
# baseline was measured on, in its fast phases); reported times are scaled to it.
CAL_REF_S = 0.0006
_CAL_MASK = (1 << 256) - 1


def calibrate() -> float:
    """Seconds taken by a fixed loop of 256-bit int shifts, XORs and popcounts."""
    t0 = time.perf_counter()
    x, acc = 0x9E3779B97F4A7C15F39CC0605CEDC834, 0
    for _ in range(3000):
        x = (x ^ (x << 13)) & _CAL_MASK
        x ^= x >> 7
        acc += x.bit_count()
    return time.perf_counter() - t0


def scaled(run, *args):
    """Run a timed call between two calibrations: (its result, the scale to apply to its time)."""
    before = calibrate()
    result = run(*args)
    return result, 2 * CAL_REF_S / (before + calibrate())


# One op per command on a ring no workload uses (degree 2; the conjecture scan
# covers x^2+x+1 only at powers of two), run before timing so that numpy's
# and the interpreter's first-call costs stay out of the measured ops.
WARMUP = [gen.Op(command, 0b111, 3) for command in ("analyze-chain", "lcd-chain", *gen.COMMANDS)]

# The layer each workload is built to stress, and the layers compared with it.
EXPECTED_LAYER = {
    "chain-sweep": "distance.oracle",
    "survey": "distance.reduced_set",
    "lcd-scan": "lcd.hull_oracle",
    "wide-ring": "ring.new_context",
}
SHARE_LAYERS = {
    "ring.new_context": ("ring.new_context",),
    "distance.reduced_set": ("distance.reduced_set",),
    "distance.oracle": ("distance.oracle",),
    "lcd.hull_oracle": ("lcd.hull_oracle",),
    "lcd.criteria": ("lcd.head_criterion", "lcd.tail_criterion"),
    "duality.dual_code": ("duality.dual_code",),
    "duality.candidates": ("duality.pow2_candidates", "duality.complement"),
    "duality.dual_oracle": ("duality.dual_oracle",),
}


def import_cli():
    """Import polycode.cli from src/ with every cap-related variable removed from the environment."""
    if not (SRC / "polycode" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polycode sources under {SRC}; run from the root of a polycode checkout")
    os.environ.pop("POLYCODE_ORACLE_CAP", None)
    sys.path.insert(0, str(SRC))
    import polycode.cli

    return polycode.cli


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Scaled CPU and raw wall times from spawn to ready of fresh processes that import polycode and build the inputs."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().split()
            wall.append(time.perf_counter() - t0)
            _, err = proc.communicate(timeout=120)
        if len(line) != 3 or line[0] != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {err.strip()[-500:]}")
        cpu.append(float(line[1]) * CAL_REF_S / float(line[2]))
    return cpu, wall


def run_op(cli, argv: list[str]) -> tuple[int | None, str, str, float]:
    """One CLI invocation with captured output: (exit code or None if it raised, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def replay_fixtures(cli) -> tuple[int, list[str]]:
    """Replay the embedded fixtures: (checks run, mismatches)."""
    rc, out, err, _ = run_op(cli, ["fixtures", "--json"])
    if rc not in (0, 1):
        return 0, [f"fixtures exited {rc}: {err.strip()[-200:]}"]
    groups = json.loads(out)
    bad = [f"{g['key']}: {f['label']}" for g in groups for f in g["failures"]]
    return sum(g["checks"] for g in groups), bad


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) * N samples lie at or beyond it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(tracer, workload: str, n_ops: int, op_seconds: float, open_slots: int) -> tuple[dict, list[str]]:
    totals = tracer.layer_totals()
    values: dict[str, float] = {"distance.open_slots": open_slots}
    for name, stats in totals.items():
        values[f"{name}.calls"] = stats["calls"]
        values[f"{name}.self_s"] = stats["self_s"]
    values.update(tracer.counters)
    op_time = totals["cli.main"]["incl_s"]
    shares = {
        layer: sum(totals[n]["incl_s"] for n in names) / op_time for layer, names in SHARE_LAYERS.items()
    }
    expected = EXPECTED_LAYER[workload]
    top = max(shares, key=shares.get)
    values.update({f"share.{k}": v for k, v in shares.items()})
    values["share.expected"] = shares[expected]
    values["trace.ops_per_s"] = n_ops / op_seconds
    values["trace.spans"] = len(tracer.start)
    ranked = ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
    verdict = "dominant" if top == expected else f"NOT dominant (top: {top})"
    notes = [f"expected layer {expected}: share {shares[expected]:.3f} of op time, {verdict}", f"layer shares: {ranked}"]
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in per_layer}, notes


def run_workload(args) -> int:
    cli = import_cli()
    ops = gen.make_ops(args.workload, args.seed)
    if args.setup_probe:
        cpu = time.thread_time()
        print("ready", cpu, statistics.median(calibrate() for _ in range(7)), flush=True)
        return 0

    setup, setup_wall = measure_setup(args.workload, args.seed)
    ring_text = "".join(f"{op.command}\t{gen.poly_text(op.P)}\t{op.L}\t{op.j}\n" for op in ops)

    for op in WARMUP:
        run_op(cli, op.argv())

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    results = []
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        (rc, out, err, seconds), scale = scaled(run_op, cli, op.argv())
        results.append((op, rc, out, err, seconds, scale))
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - t_start
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, problems = 0, []
    slots = exact = hull_slots = hull_exact = open_slots = 0
    digest = hashlib.sha256()
    for op, rc, out, err, _, _ in results:
        bad, ans = check.check(op, rc, out, err)
        if bad:
            failed += 1
            problems.append(f"{' '.join(op.argv())}: {'; '.join(bad[:3])}")
        slots, exact, open_slots = slots + ans.slots, exact + ans.exact, open_slots + ans.open
        hull_slots, hull_exact = hull_slots + ans.hull_slots, hull_exact + ans.hull_exact
        digest.update(json.dumps([op.argv(), ans.values]).encode())
    fixture_checks, fixture_bad = replay_fixtures(cli)

    OUT.mkdir(exist_ok=True)
    rings_path = OUT / f"ops-{args.workload}-{args.seed}.tsv"
    seconds = [f"{r[4]:.6f}\t{r[5]:.4f}" for r in results] + [""] * (len(ops) - len(results))
    rings_path.write_text("".join(f"{line}\t{t}\n" for line, t in zip(ring_text.splitlines(), seconds)))

    n = len(results)
    if n < len(ops):
        problems.insert(0, f"deadline: the timed phase was cut after {n} of {len(ops)} ops")
    raw = sorted(r[4] for r in results)
    times = sorted(r[4] * r[5] for r in results)
    speed = statistics.median(r[5] for r in results)
    exact_share = exact / slots if slots else hull_exact / max(hull_slots, 1)
    lines = [
        f"workload {args.workload}, seed {args.seed}: {n} of {len(ops)} ops in {elapsed:.2f} s "
        f"(closed loop, 1 client{', traced' if tracer else ''})",
        f"ring list sha256 {hashlib.sha256(ring_text.encode()).hexdigest()[:16]}; "
        f"per-op times in {rings_path.relative_to(ROOT)}",
        f"answers digest: sha256 {digest.hexdigest()}",
        f"fail_share = {failed / max(n, 1):.4f} ({failed} of {n} ops failed)",
        f"fixtures: {fixture_checks - len(fixture_bad)}/{fixture_checks} checks passed",
        f"host speed: times scaled by {speed:.3f} (median); raw: {n / sum(raw):.6g} ops/s, "
        f"p50 {statistics.median(raw) * 1000:.6g} ms, p90 {percentile(raw, 0.9) * 1000:.6g} ms, "
        f"setup {statistics.median(setup_wall):.6g} s wall",
    ]
    lines += [f"FAIL {p}" for p in problems[:10]] + [f"FIXTURE MISMATCH {b}" for b in fixture_bad[:10]]

    if tracer is None:
        samples = {
            "ops_per_s": (n / sum(times), "1/s", f"{n} ops over {sum(times):.2f} s of op time"),
            "op_p50_ms": (statistics.median(times) * 1000, "ms", f"{n} ops"),
            "op_p90_ms": (percentile(times, 0.9) * 1000, "ms", f"{n} ops, {n - math.ceil(0.9 * n)} beyond"),
            "exact_share": (exact_share, "share", f"{exact if slots else hull_exact} of {slots or hull_slots} slots"),
            "setup_s": (statistics.median(setup), "s", f"median CPU time of {len(setup)} fresh processes"),
            "peak_rss_mb": (peak_rss_mb, "MB", "1 process"),
        }
        lines += [f"{k} = {v:.6g} {u} ({note})" for k, (v, u, note) in samples.items()]
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in samples.items()}
    else:
        spans_path = OUT / f"trace-{args.workload}.spans"
        tracer.write(spans_path)
        metrics, notes = layer_metrics(tracer, args.workload, n, sum(times), open_slots)
        lines += notes + [f"spans: {len(tracer.start)} written to {spans_path.relative_to(ROOT)}"]
        lines += [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]

    print("\n".join(lines))
    correct = failed == 0 and n == len(ops) and not fixture_bad and fixture_checks > 0
    result = {"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's report, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
