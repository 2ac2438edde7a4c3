"""Repeat the benchmark over several seeds and record a baseline.

    python3 perfbench/baseline.py --commit <sha> [--repeats 10] [--out perfbench/baseline.json]

For every workload it makes --repeats untraced runs, seeds 1..repeats, and
one traced run on seed 1, each in a fresh process.  It records the median
and quartiles of every end-to-end metric, their spread (interquartile range
over median) against the bound in BENCHMARK.json, the traced run's per-layer
metrics and layer shares, and the tracing overhead (the untraced median
ops_per_s over the traced one).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit the numbers belong to")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=list(gen.WORKLOADS), choices=gen.WORKLOADS)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "commit": args.commit,
        "machine": {"cores": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "repeats": args.repeats,
        "seeds": list(range(1, args.repeats + 1)),
        "run_seconds": seconds,
        "caps": {"--oracle-cap": gen.ORACLE_CAP, "--candidate-cap": gen.CANDIDATE_CAP, "--dim-cap": gen.DIM_CAP,
                 "--workers": "unset", "POLYCODE_ORACLE_CAP": "removed from the environment"},
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in report["seeds"]:
            result, lines = run(workload, seed, seconds, 0)
            runs.append(result)
            print(workload, seed, " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        stats = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            stats[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                           "spread": spread, "bound": bound, "values": values}
            print(f"  {name}: median {med:.4g}, quartiles {q1:.4g}..{q3:.4g}, spread {spread:.3f} (bound {bound})")
        traced, lines = run(workload, 1, seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = {
            "correct_runs": sum(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": stats,
            "traced_seed_1": {
                "correct": traced["correct"],
                "notes": [ln for ln in lines if ln.startswith(("expected layer", "layer shares", "fixtures", "answers"))],
                "tracing_overhead": stats["ops_per_s"]["median"] / layers["trace.ops_per_s"],
                "per_layer": layers,
            },
        }
        print("  " + "\n  ".join(report["workloads"][workload]["traced_seed_1"]["notes"]), flush=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
