"""Command line front end.

Subcommands: analyze (distance bounds along the chain of codes), dual
(parity-check side summary), lcd (hull/LCD verdicts), fixtures (replay the
embedded regression fixtures), conjecture (LCD scan over the trinomial family).
Exit codes: 0 success, 1 fixture mismatch, 2 bad input or a cap refusing work,
3 an internal cross-check tripping.  Every --json answer is one line from the
C encoder: an indent would route json.dumps through its pure-Python encoder.

Each call to main that starts with a command builds one parser, that command's
(one options function per command, all named in one table, _COMMANDS), and
parses the rest of argv with it.  The whole parser, every command registered
with its help line and its options, is built only for what that parser cannot
answer alone: argv that does not start with a command (--help, bare polycode,
an unknown command) and arguments left over after the command, whose
"unrecognized arguments" error names the whole parser.  No parser is cached
across calls: the polycode script makes one call per process, so a cache would
save nothing, while a smaller build saves in every process.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .codes import DEFAULT_CANDIDATE_CAP, DEFAULT_ENUM_CAP, code
from .distance import full_distance_profile, single_distance_report
from .duality import dual_summary
from .errors import CapExceeded, InternalConsistencyError, ValidationError
from .gf2poly import order, parse
from .lcd import conjecture_scan, lcd_chain, lcd_verdict
from .ring import new_context


def _context(args: argparse.Namespace):
    return new_context(parse(args.poly), args.power)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    ctx = _context(args)
    if args.j is not None:
        reports = [single_distance_report(ctx, args.j, oracle_cap=args.oracle_cap)]
    else:
        reports = full_distance_profile(ctx, oracle_cap=args.oracle_cap)
    if args.json:
        payload = [rep.to_json_dict() for rep in reports]
        print(json.dumps(payload[0] if args.j is not None else payload))
    elif args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["j", "lower", "upper", "exact", "provenance"])
        for rep in reports:
            writer.writerow([rep.j, rep.lower, rep.upper, rep.exact, ";".join(rep.provenance)])
    else:
        e = order(ctx.P, ctx.n)  # min(order, n): the header reports the order only below n, never factoring 2^m - 1
        print(f"# n={ctx.n} m={ctx.m} L={ctx.L} order{'=' if e < ctx.n else '>='}{e}")
        for rep in reports:
            mid = f"d = {rep.lower}" if rep.exact else f"d in [{rep.lower}, {rep.upper}]"
            print(f"j={rep.j:>3}  {mid:<18}  {', '.join(rep.provenance)}")
    return 0


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------


def _cmd_dual(args: argparse.Namespace) -> int:
    ctx = _context(args)
    summary = dual_summary(ctx, args.j, oracle_cap=args.oracle_cap)
    if args.json:
        print(json.dumps(summary))
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
        verdicts = [lcd_verdict(code(ctx, args.j))]
    else:
        verdicts = lcd_chain(ctx)
    if args.json:
        payload = [v._asdict() for v in verdicts]
        print(json.dumps(payload[0] if args.j is not None else payload))
    else:
        for v in verdicts:
            flag = "LCD" if v.is_lcd else "not LCD"
            print(f"j={v.j:>3}  {flag:<8}  hull={v.hull_dim:<4}  methods={','.join(v.methods)}")
    return 0


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def _cmd_fixtures(args: argparse.Namespace) -> int:
    from .fixtures import FIXTURES, dump_fixture, run_fixture

    keys = FIXTURES if args.which == "all" else (args.which,)
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
                    "passed": not bad,
                    "checks": len(result.rows),
                    "failures": [
                        {"label": row.label, "expected": row.expected, "got": row.got} for row in bad
                    ],
                }
            )
        elif not bad:
            print(f"{key}: PASS ({len(result.rows)} checks)")
        else:
            print(f"{key}: FAIL ({len(bad)} of {len(result.rows)} checks)")
            for row in bad:
                print(f"  {row.label}: expected {row.expected}, got {row.got}")
        failed = failed or bad
    if args.json:
        print(json.dumps(payload))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# conjecture
# ---------------------------------------------------------------------------


def _cmd_conjecture(args: argparse.Namespace) -> int:
    rows = conjecture_scan(args.vmax, args.tmax, dim_cap=args.dim_cap)
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))  # dim_cap >= 4 admits the v = 0, T = 1 ring
    writer.writeheader()
    writer.writerows(rows)
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


def _analyze_options(p: argparse.ArgumentParser) -> None:
    _add_ring_args(p)
    p.add_argument("--j", type=int, default=None, help="single index instead of the whole chain")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ENUM_CAP, help="max dimension handed to the exact oracle")
    p.add_argument("--candidate-cap", type=int, choices=(DEFAULT_CANDIDATE_CAP,), default=DEFAULT_CANDIDATE_CAP,
                   help="accepted for compatibility: every reduced set refuses above the fixed 2^20 candidates")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_analyze)


def _dual_options(p: argparse.ArgumentParser) -> None:
    _add_ring_args(p)
    p.add_argument("--j", required=True, type=int)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ENUM_CAP, help="max dual dimension handed to the exact oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dual)


def _lcd_options(p: argparse.ArgumentParser) -> None:
    _add_ring_args(p)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--methods", choices=("all",), default="all", help="accepted for compatibility: every code runs the same routes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lcd)


def _fixtures_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--which", default="all", help="one fixture key, or all")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dump", action="store_true", help="list each check's label and reference value; compute nothing")
    fmt.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fixtures)


def _conjecture_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vmax", type=int, default=1)
    p.add_argument("--tmax", type=int, default=3)
    p.add_argument("--dim-cap", type=int, default=4096, help="skip rings with more than this many bits")
    p.set_defaults(func=_cmd_conjecture)


# each command's help line and the function that adds its options, in the order --help lists them
_COMMANDS = {
    "analyze": ("distance bounds for the chain of codes", _analyze_options),
    "dual": ("dual code summary for one index", _dual_options),
    "lcd": ("hull dimensions and LCD verdicts", _lcd_options),
    "fixtures": ("replay the embedded regression fixtures", _fixtures_options),
    "conjecture": ("LCD scan over the reversible trinomial family", _conjecture_options),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole parser, every command registered with its help line and its options: main's for help and errors."""
    parser = argparse.ArgumentParser(prog="polycode", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_options) in _COMMANDS.items():
        add_options(sub.add_parser(name, help=help_line))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one polycode command on argv (sys.argv[1:] when None) and return its exit code.

    When argv[0] names a command, that command's parser alone parses the rest, built as the whole
    parser's add_parser builds it (prog "polycode <command>"), so its help, usage and errors read the
    same; the whole parser parses argv that starts with no command or leaves arguments over.
    """
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"polycode {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:])
    if not argv or argv[0] not in _COMMANDS or rest:
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
