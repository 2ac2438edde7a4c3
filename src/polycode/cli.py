"""Command line front end.

Subcommands: analyze (distance bounds along the chain of codes), dual
(parity-check side summary), lcd (hull/LCD verdicts), fixtures (replay the
embedded regression fixtures), conjecture (LCD scan over the trinomial
family).  Exit codes: 0 success, 1 fixture mismatch, 2 bad input or a cap
refusing work, 3 an internal cross-check tripping.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .distance import full_distance_profile, single_distance_report
from .duality import dual_summary
from .errors import CapExceeded, InternalConsistencyError, ValidationError
from .fixtures import FIXTURE_KEYS, dump_fixture, run_fixture
from .gf2poly import parse
from .lcd import conjecture_scan, lcd_verdict
from .ring import new_context
from .codes import code


def _context(args: argparse.Namespace):
    return new_context(parse(args.poly), args.power)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    ctx = _context(args)
    if args.j is not None:
        reports = [
            single_distance_report(ctx, args.j, oracle_cap=args.oracle_cap, candidate_cap=args.candidate_cap)
        ]
    else:
        reports = full_distance_profile(ctx, oracle_cap=args.oracle_cap, candidate_cap=args.candidate_cap)
    if args.json:
        payload = [rep.to_json_dict() for rep in reports]
        print(json.dumps(payload[0] if args.j is not None else payload, indent=2))
    elif args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["j", "lower", "upper", "exact", "provenance"])
        for rep in reports:
            writer.writerow([rep.j, rep.lower, rep.upper, rep.exact, ";".join(rep.provenance)])
    else:
        print(f"# n={ctx.n} m={ctx.m} L={ctx.L} regime={ctx.regime} order={ctx.e}")
        for rep in reports:
            mid = f"d = {rep.lower}" if rep.exact else f"d in [{rep.lower}, {rep.upper}]"
            print(f"j={rep.j:>3}  {mid:<18}  {', '.join(rep.provenance)}")
    return 0


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------


def _cmd_dual(args: argparse.Namespace) -> int:
    ctx = _context(args)
    summary = dual_summary(ctx, args.j, oracle_cap=args.oracle_cap, samples=args.samples)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        for key in ("j", "n", "k_dual", "d_dual"):
            value = summary[key]
            print(f"{key} = {'unresolved' if value is None else value}")
        print(f"provenance = {', '.join(summary['provenance']) or 'none'}")
    return 0


# ---------------------------------------------------------------------------
# lcd
# ---------------------------------------------------------------------------


def _cmd_lcd(args: argparse.Namespace) -> int:
    ctx = _context(args)
    if args.j is not None:
        js = [args.j]
    elif args.methods == "theorem":
        js = list(range(1, ctx.L))  # the structural tests cover proper nonzero ideals only
    else:
        js = list(range(0, ctx.L + 1))
    verdicts = [lcd_verdict(code(ctx, j), args.methods) for j in js]
    if args.json:
        payload = [v.to_json_dict() for v in verdicts]
        print(json.dumps(payload[0] if args.j is not None else payload, indent=2))
    else:
        for v in verdicts:
            hull = "?" if v.hull_dim is None else v.hull_dim
            flag = "LCD" if v.is_lcd else "not LCD"
            print(f"j={v.j:>3}  {flag:<8}  hull={hull:<4}  methods={','.join(v.methods)}")
    return 0


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def _cmd_fixtures(args: argparse.Namespace) -> int:
    keys = FIXTURE_KEYS if args.which == "all" else (args.which,)
    if args.dump:
        for key in keys:
            for label, expected in dump_fixture(key):
                print(f"{key}: {label} = {expected}")
        return 0
    failed = False
    payload = []
    for key in keys:
        result = run_fixture(key)
        bad = [row for row in result.rows if not row.ok]
        if args.json:
            payload.append(
                {
                    "key": key,
                    "passed": result.passed,
                    "checks": len(result.rows),
                    "failures": [
                        {"label": row.label, "expected": row.expected, "got": row.got} for row in bad
                    ],
                }
            )
        elif result.passed:
            print(f"{key}: PASS ({len(result.rows)} checks)")
        else:
            print(f"{key}: FAIL ({len(bad)} of {len(result.rows)} checks)")
            for row in bad:
                print(f"  {row.label}: expected {row.expected}, got {row.got}")
        failed = failed or bad
    if args.json:
        print(json.dumps(payload, indent=2))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# conjecture
# ---------------------------------------------------------------------------


def _cmd_conjecture(args: argparse.Namespace) -> int:
    rows = conjecture_scan(args.vmax, args.tmax, dim_cap=args.dim_cap, workers=args.workers)
    writer = csv.writer(sys.stdout)
    writer.writerow(["v", "T", "j", "n", "k", "is_lcd", "hull_dim"])
    for row in rows:
        writer.writerow([row["v"], row["T"], row["j"], row["n"], row["k"], row["is_lcd"], row["hull_dim"]])
    bad = sum(1 for row in rows if not row["is_lcd"])
    note = "all LCD" if bad == 0 else f"{bad} with nonzero hull"
    print(f"scanned {len(rows)} codes: {note}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_ring_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--poly", required=True, help="base polynomial, e.g. 'x^4+x+1', '0b10011', or '19'")
    p.add_argument("--power", required=True, type=int, metavar="L", help="modulus exponent (chain length)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polycode", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="distance bounds for the chain of codes")
    _add_ring_args(p)
    p.add_argument("--j", type=int, default=None, help="single index instead of the whole chain")
    p.add_argument("--oracle-cap", type=int, default=None, help="max dimension handed to brute force")
    p.add_argument("--candidate-cap", type=int, default=None, help="max candidates per reduced set")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("dual", help="dual code summary for one index")
    _add_ring_args(p)
    p.add_argument("--j", required=True, type=int)
    p.add_argument("--oracle-cap", type=int, default=None)
    p.add_argument("--samples", type=int, default=0, help="extra random words for the closure check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("lcd", help="hull dimensions and LCD verdicts")
    _add_ring_args(p)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--methods", choices=("all", "oracle", "theorem"), default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lcd)

    p = sub.add_parser("fixtures", help="replay the embedded regression fixtures")
    p.add_argument("--which", choices=("all",) + FIXTURE_KEYS, default="all")
    p.add_argument("--dump", action="store_true", help="print the reference rows without checking")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("conjecture", help="LCD scan over the reversible trinomial family")
    p.add_argument("--vmax", type=int, default=1)
    p.add_argument("--tmax", type=int, default=3)
    p.add_argument("--dim-cap", type=int, default=4096, help="skip rings with more than this many bits")
    p.add_argument("--workers", type=int, default=None, help="worker processes, 1..CPU count (default: serial)")
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
