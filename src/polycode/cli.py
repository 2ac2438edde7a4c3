"""Command line front end.

Subcommands: analyze (distance bounds along the chain of codes), dual
(parity-check side summary), lcd (hull/LCD verdicts), fixtures (replay the
embedded regression fixtures), conjecture (LCD scan over the trinomial family).
Exit codes: 0 success, 1 fixture mismatch, 2 bad input or a cap refusing work,
3 an internal cross-check tripping.  Every --json answer is one line from the
C encoder: an indent would route json.dumps through its pure-Python encoder.

Every command's options are declared once, as data, in one table (_COMMANDS:
each command's help line, handler and options, and its pair of switches that
exclude each other).  main reads argv on one of two paths.  A well-formed call,
the command followed by exact option names each given once with its value, is
read off the table by a plain reader, and argparse is never imported.  Whatever
the reader declines (help, a missing command, abbreviations, --opt=value,
repeats, values starting with "-", bad values, leftovers) goes to the whole
argparse parser, which build_parser builds from the same table: argparse stays
the one authority on what is refused and on how its help, usage and errors
read.  No parser is cached across calls: the polycode script makes one call per
process, so a cache would save nothing.
"""

from __future__ import annotations

import csv
import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from .codes import DEFAULT_CANDIDATE_CAP, DEFAULT_ENUM_CAP, code
from .distance import full_distance_profile, single_distance_report
from .duality import dual_summary
from .errors import CapExceeded, InternalConsistencyError, ValidationError
from .gf2poly import order, parse
from .lcd import conjecture_scan, lcd_chain, lcd_verdict
from .ring import new_context

if TYPE_CHECKING:
    import argparse

    Args = argparse.Namespace | SimpleNamespace


def _context(args: Args):
    return new_context(parse(args.poly), args.power)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _cmd_analyze(args: Args) -> int:
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


def _cmd_dual(args: Args) -> int:
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


def _cmd_lcd(args: Args) -> int:
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


def _cmd_fixtures(args: Args) -> int:
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


def _cmd_conjecture(args: Args) -> int:
    rows = conjecture_scan(args.vmax, args.tmax, dim_cap=args.dim_cap)
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))  # dim_cap >= 4 admits the v = 0, T = 1 ring
    writer.writeheader()
    writer.writerows(rows)
    bad = sum(1 for row in rows if not row["is_lcd"])
    note = "all LCD" if bad == 0 else f"{bad} with nonzero hull"
    print(f"scanned {len(rows)} codes: {note}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# the option table, the plain reader and the whole parser
# ---------------------------------------------------------------------------


class _Option:
    """One option: a value converted by kind (str or int), or a switch (kind bool, argparse's store_true)."""

    def __init__(self, flag: str, kind: type = str, default: object = None, required: bool = False,
                 choices: tuple | None = None, help: str | None = None, metavar: str | None = None):
        self.flag, self.kind, self.default, self.required = flag, kind, default, required
        self.choices, self.help, self.metavar = choices, help, metavar
        self.dest = flag[2:].replace("-", "_")


class _Command:
    """One command: its help line, its handler, its options and the switches that exclude each other."""

    def __init__(self, help: str, func: Callable[[Args], int], options: tuple[_Option, ...],
                 exclusive: tuple[str, ...] = ()):
        self.help, self.func, self.options, self.exclusive = help, func, options, exclusive
        self.by_flag = {o.flag: o for o in options}


_RING = (
    _Option("--poly", required=True, help="base polynomial, e.g. 'x^4+x+1', '0b10011', or '19'"),
    _Option("--power", int, required=True, metavar="L", help="modulus exponent (chain length)"),
)

# every command and its options, in the order --help lists them
_COMMANDS = {
    "analyze": _Command("distance bounds for the chain of codes", _cmd_analyze, (
        *_RING,
        _Option("--j", int, help="single index instead of the whole chain"),
        _Option("--oracle-cap", int, DEFAULT_ENUM_CAP, help="max dimension handed to the exact oracle"),
        _Option("--candidate-cap", int, DEFAULT_CANDIDATE_CAP, choices=(DEFAULT_CANDIDATE_CAP,),
                help="accepted for compatibility: every reduced set refuses above the fixed 2^20 candidates"),
        _Option("--json", bool, False),
        _Option("--csv", bool, False),
    ), exclusive=("--json", "--csv")),
    "dual": _Command("dual code summary for one index", _cmd_dual, (
        *_RING,
        _Option("--j", int, required=True),
        _Option("--oracle-cap", int, DEFAULT_ENUM_CAP, help="max dual dimension handed to the exact oracle"),
        _Option("--json", bool, False),
    )),
    "lcd": _Command("hull dimensions and LCD verdicts", _cmd_lcd, (
        *_RING,
        _Option("--j", int),
        _Option("--methods", str, "all", choices=("all",), help="accepted for compatibility: every code runs the same routes"),
        _Option("--json", bool, False),
    )),
    "fixtures": _Command("replay the embedded regression fixtures", _cmd_fixtures, (
        _Option("--which", str, "all", help="one fixture key, or all"),
        _Option("--dump", bool, False, help="list each check's label and reference value; compute nothing"),
        _Option("--json", bool, False),
    ), exclusive=("--dump", "--json")),
    "conjecture": _Command("LCD scan over the reversible trinomial family", _cmd_conjecture, (
        _Option("--vmax", int, 1),
        _Option("--tmax", int, 3),
        _Option("--dim-cap", int, 4096, help="skip rings with more than this many bits"),
    )),
}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """argv read as the whole parser reads it, or None where that parser must read it.

    Reads only ``<command> (--option value | --switch)*`` with every name exact and given once, every
    value present, not starting with "-", converted by its kind and within its choices, every required
    option present and no exclusive pair given together: the namespace the whole parser would return,
    less its ``command``.  Help, abbreviations, --opt=value, repeats, values starting with "-" (such as
    negative numbers), bad values, leftovers and a missing command return None.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        option = command.by_flag.get(token)
        if option is None or option.flag in values:
            return None
        if option.kind is bool:
            values[option.flag] = True
            continue
        text = next(tokens, "-")  # a missing value is declined as one starting with "-"
        if text.startswith("-"):
            return None
        try:
            values[option.flag] = value = option.kind(text)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
    if any(o.required and o.flag not in values for o in command.options):
        return None
    if command.exclusive and all(flag in values for flag in command.exclusive):
        return None
    return SimpleNamespace(**{o.dest: values.get(o.flag, o.default) for o in command.options}, func=command.func)


def build_parser() -> argparse.ArgumentParser:
    """The whole argparse parser, every command of _COMMANDS with its help line and options: main's for
    what the plain reader leaves (help, errors and every other form argparse accepts)."""
    import argparse

    parser = argparse.ArgumentParser(prog="polycode", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        group = p.add_mutually_exclusive_group() if command.exclusive else None
        for o in command.options:
            target = group if o.flag in command.exclusive else p
            if o.kind is bool:
                target.add_argument(o.flag, action="store_true", default=o.default, help=o.help)
            else:
                target.add_argument(o.flag, type=o.kind, default=o.default, required=o.required,
                                    choices=o.choices, help=o.help, metavar=o.metavar)
        p.set_defaults(func=command.func)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one polycode command on argv (sys.argv[1:] when None) and return its exit code.

    The plain reader reads a well-formed call off _COMMANDS without argparse; whatever it declines
    the whole parser parses, so help, usage and every refusal read exactly as argparse writes them.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
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
