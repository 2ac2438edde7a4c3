"""Exit codes and output shapes of the command line front end."""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polycode
from polycode import cli, duality, fixtures, gf2poly, lcd
from polycode.cli import main
from polycode.codes import code
from polycode.distance import full_distance_profile, single_distance_report
from polycode.duality import dual_summary
from polycode.errors import InternalConsistencyError
from polycode.lcd import lcd_chain, lcd_verdict
from polycode.ring import new_context


def test_analyze_json_single_index(capsys):
    assert main(["analyze", "--poly", "x^4+x+1", "--power", "16", "--j", "9", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"j", "lower", "upper", "exact", "provenance"}
    assert payload["j"] == 9 and payload["lower"] == 6 and payload["exact"] is True


def test_analyze_closes_an_odd_j_through_the_spread(capsys):
    # x^12+x^3+1 = Q(x^3): C_5 (k = 36, over the default cap) is weighed as D_0 over Q, k0 = 12
    assert main(["analyze", "--poly", "x^12+x^3+1", "--power", "8", "--j", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["lower"], payload["upper"], payload["exact"]) == (6, 6, True)
    assert "spread-t3" in payload["provenance"]


def test_analyze_json_whole_chain(capsys):
    assert main(["analyze", "--poly", "x^3+x+1", "--power", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["j"] for row in payload] == list(range(5))
    assert payload[0]["lower"] == 1 and payload[4]["lower"] == 12


def test_analyze_csv_parses(capsys):
    assert main(["analyze", "--poly", "x^5+x^4+x^2+x+1", "--power", "5", "--csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 6
    assert rows[0]["j"] == "0" and rows[3]["lower"] == "4"
    assert "oracle" in rows[3]["provenance"].split(";")


def test_analyze_text_mentions_ring_shape(capsys):
    assert main(["analyze", "--poly", "x^3+x+1", "--power", "2"]) == 0
    out = capsys.readouterr().out
    assert "n=6" in out and "j=  1" in out


def test_reducible_poly_is_a_usage_error(capsys):
    assert main(["analyze", "--poly", "x^4+1", "--power", "3"]) == 2
    assert "irreducible" in capsys.readouterr().err


def test_bad_index_is_a_usage_error():
    assert main(["analyze", "--poly", "x^3+x+1", "--power", "4", "--j", "9"]) == 2


def test_dual_text_and_json(capsys):
    assert main(["dual", "--poly", "x^3+x+1", "--power", "9", "--j", "2"]) == 0
    out = capsys.readouterr().out
    assert "d_dual = 7" in out and "dual-reduced-set" in out
    assert main(["dual", "--poly", "x^3+x+1", "--power", "9", "--j", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k_dual"] == 6 and payload["d_dual"] == 7


def test_dual_unresolved_prints_placeholder(capsys):
    assert main(["dual", "--poly", "x^5+x^4+x^2+x+1", "--power", "12", "--j", "5",
                 "--oracle-cap", "0"]) == 0
    assert "unresolved" in capsys.readouterr().out


ANALYZE_M3 = ["analyze", "--poly", "x^3+x+1", "--power", "4"]


@pytest.mark.parametrize(
    "argv, cap, value",
    [
        (ANALYZE_M3, "--oracle-cap", "-5"),
        ([*ANALYZE_M3, "--j", "2"], "--oracle-cap", "-1"),
        (["dual", "--poly", "x^3+x+1", "--power", "4", "--j", "2"], "--oracle-cap", "-1"),
    ],
    ids=["analyze-oracle", "analyze-single", "dual"],
)
def test_a_negative_cap_exits_2(capsys, argv, cap, value):
    assert main([*argv, cap, value]) == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert main([*argv, cap, "0"]) == 0  # cap 0 stays legal: it only turns the search off


@pytest.mark.parametrize("value", ["0", "-1", "1024"])
def test_analyze_refuses_a_candidate_cap_but_its_default(capsys, value):
    # every reduced set refuses above the fixed 2^20 candidates; the option takes that value alone
    with pytest.raises(SystemExit) as exc:
        main([*ANALYZE_M3, "--candidate-cap", value])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", [[], ["--json"], ["--csv"]], ids=["text", "json", "csv"])
@pytest.mark.parametrize("j", [[], ["--j", "9"]], ids=["chain", "single"])
def test_analyze_candidate_cap_default_is_accepted_and_changes_nothing(capsys, fmt, j):
    argv = ["analyze", "--poly", "x^4+x+1", "--power", "16", *j, *fmt]
    assert main(argv) == 0
    want = capsys.readouterr()
    assert main([*argv, "--candidate-cap", "1048576"]) == 0
    assert capsys.readouterr() == want


def test_lcd_single_and_sweep(capsys):
    assert main(["lcd", "--poly", "x^3+x+1", "--power", "8", "--j", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"j": 1, "is_lcd": True, "hull_dim": 0, "methods": ["oracle", "head-criterion"]}
    assert main(["lcd", "--poly", "x^3+x+1", "--power", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 5  # j = 0..4


def test_lcd_theorem_sweep_skips_trivial_ideals(capsys):
    # no rank criterion covers j = 0 or L: there the hull's oracle alone decides, at every k
    for power in ("4", "90"):  # k = n = 270 at j = 0 of the second ring
        assert main(["lcd", "--poly", "x^3+x+1", "--power", power]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [("criterion" in line) for line in lines] == [False] + [True] * (int(power) - 1) + [False]
        assert lines[0] == "j=  0  LCD       hull=0     methods=oracle"
        assert lines[-1] == f"j={int(power):3d}  LCD       hull=0     methods=oracle"


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("j", [[], ["--j", "3"]], ids=["chain", "single"])
def test_lcd_methods_all_is_accepted_and_changes_nothing(capsys, fmt, j):
    argv = ["lcd", "--poly", "x^4+x+1", "--power", "8", *j, *fmt]
    assert main(argv) == 0
    want = capsys.readouterr()
    assert main([*argv, "--methods", "all"]) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("methods", ["oracle", "theorem"])
def test_lcd_refuses_the_retired_methods(capsys, methods):
    with pytest.raises(SystemExit) as exc:
        main(["lcd", "--poly", "x^3+x+1", "--power", "4", "--methods", methods])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_fixtures_single_pass_line(capsys):
    assert main(["fixtures", "--which", "head-survey"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("head-survey: PASS")


def test_fixtures_json_shape(capsys):
    assert main(["fixtures", "--which", "profile-m5L5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["key"] == "profile-m5L5" and payload[0]["passed"] is True
    assert payload[0]["failures"] == []


_LIBRARY_ANSWERS = {
    "analyze": lambda ctx, j: [r.to_json_dict() for r in full_distance_profile(ctx)],
    "analyze --j": lambda ctx, j: single_distance_report(ctx, j).to_json_dict(),
    "dual --j": lambda ctx, j: dual_summary(ctx, j),
    "lcd": lambda ctx, j: [v._asdict() for v in lcd_chain(ctx)],
    "lcd --j": lambda ctx, j: lcd_verdict(code(ctx, j))._asdict(),
}
# (poly, L, j); x^6+x^3+1 = Q(x^3) has s = 3
_JSON_RINGS = [("x^3+x+1", 4, 2), ("x^2+x+1", 6, 3), ("x^6+x^3+1", 3, 2)]


@pytest.mark.parametrize(
    "command, ring",
    [pytest.param(c, r, id=f"{c}-{r[0]}") for c in _LIBRARY_ANSWERS for r in _JSON_RINGS]
    + [pytest.param("fixtures", None, id="fixtures")],
)
def test_every_json_answer_is_one_line_holding_the_librarys_value(capsys, command, ring):
    if ring is None:
        argv = ["fixtures", "--which", "profile-m5L5", "--json"]
        checks = len(fixtures.run_fixture("profile-m5L5").rows)
        expected = [{"key": "profile-m5L5", "passed": True, "checks": checks, "failures": []}]
    else:
        poly, L, j = ring
        name, *index = command.split()
        argv = [name, "--poly", poly, "--power", str(L), *(["--j", str(j)] if index else []), "--json"]
        expected = _LIBRARY_ANSWERS[command](new_context(gf2poly.parse(poly), L), j)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    assert json.loads(out) == json.loads(json.dumps(expected))


def test_fixtures_dump_prints_reference_rows(capsys):
    assert main(["fixtures", "--which", "dual-weights-m3L9", "--dump"]) == 0
    out = capsys.readouterr().out
    assert "s=1" in out and out.count("\n") == 16


def test_fixtures_rejects_unknown_key(capsys):
    assert main(["fixtures", "--which", "nope"]) == 2
    assert "lcd-survey" in capsys.readouterr().err


def test_fixtures_dump_and_json_exclude_each_other():
    with pytest.raises(SystemExit) as err:
        main(["fixtures", "--which", "profile-m5L5", "--dump", "--json"])
    assert err.value.code == 2


@pytest.mark.parametrize("key", list(fixtures.FIXTURES))
def test_the_dump_lists_the_replayed_checks_without_computing(key, monkeypatch):
    replayed = [row.label for row in fixtures.run_fixture(key).rows]

    def refuse(*args):
        raise AssertionError("the dump built a ring")

    monkeypatch.setattr(fixtures, "new_context", refuse)
    assert [label for label, _ in fixtures.dump_fixture(key)] == replayed


def test_every_check_but_the_reducibility_pin_computes_from_its_ring(monkeypatch):
    # a check that never builds its ring can only compare the reference tables with themselves
    def refuse(*args):
        raise LookupError("the check built its ring")

    monkeypatch.setattr(fixtures, "new_context", refuse)
    ringless = []
    for key in fixtures.FIXTURES:
        for check in fixtures._checks(key):
            try:
                check.compute()
            except LookupError:
                continue
            ringless.append(check.label)
    assert ringless == [f"{fixtures.REJECTED_DUAL_SURVEY_ROW[0]} L=13 rejected (reducible)"]


def test_conjecture_csv(capsys):
    assert main(["conjecture", "--vmax", "0", "--tmax", "2"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert set(rows[0]) == {"v", "T", "j", "n", "k", "is_lcd", "hull_dim"}
    assert all(row["is_lcd"] == "True" for row in rows)
    assert "all LCD" in captured.err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


HELP_LINES = {
    "analyze": "distance bounds for the chain of codes",
    "dual": "dual code summary for one index",
    "lcd": "hull dimensions and LCD verdicts",
    "fixtures": "replay the embedded regression fixtures",
    "conjecture": "LCD scan over the reversible trinomial family",
}
OPTIONS = {
    "analyze": ["--poly", "--power", "--j", "--oracle-cap", "--candidate-cap", "--json", "--csv"],
    "dual": ["--poly", "--power", "--j", "--oracle-cap", "--json"],
    "lcd": ["--poly", "--power", "--j", "--methods", "--json"],
    "fixtures": ["--which", "--dump", "--json"],
    "conjecture": ["--vmax", "--tmax", "--dim-cap"],
}


def _help(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 0
    return capsys.readouterr().out


def test_help_names_every_command_with_its_help_line(capsys):
    out = _help(capsys, ["--help"])
    assert "{analyze,dual,lcd,fixtures,conjecture}" in out
    for name, line in HELP_LINES.items():
        assert re.search(rf"^ +{name} +{line}$", out, re.M), name
    assert _help(capsys, ["-h", "analyze"]) == out


@pytest.mark.parametrize("command", list(OPTIONS))
def test_each_command_help_lists_every_one_of_its_options(capsys, command):
    out = _help(capsys, [command, "--help"])
    assert out.startswith(f"usage: polycode {command} [-h]")
    assert sorted(set(re.findall(r"--[a-z-]+", out))) == sorted(["--help", *OPTIONS[command]])


def test_an_option_before_the_command_is_refused(capsys):
    # argv that does not start with a command goes to the whole parser, which refuses --json before the command
    with pytest.raises(SystemExit) as err:
        main(["--json", "analyze", "--poly", "x^3+x+1", "--power", "4"])
    assert err.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith("unrecognized arguments: --json")


def test_a_call_adds_only_the_options_of_the_command_it_runs(capsys, monkeypatch):
    # a well-formed call is read off the option table; the whole parser is built for what it declines
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    assert main(["lcd", "--poly", "x^3+x+1", "--power", "4", "--j", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["j"] == 2
    assert built == []
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert built == [1] and "invalid choice: 'bogus'" in capsys.readouterr().err


def _outcome(capsys, run, argv):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


def test_no_parser_outlives_a_call(capsys, monkeypatch):
    built, real = [], argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(weakref.ref(self))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    ring = ["--poly", "x^3+x+1", "--power", "9"]
    # a well-formed call builds no parser; the whole parser (its own and the five commands') is built
    # for help and errors
    for argv, code, parsers in (
        (["dual", *ring, "--j", "2"], 0, 0),
        (["dual", "--help"], 0, 6),
        (["analyze", *ring, "extra"], 2, 6),
        (["--help"], 0, 6),
    ):
        built.clear()
        assert _outcome(capsys, main, argv)[0] == code, argv
        gc.collect()
        assert len(built) == parsers and all(ref() is None for ref in built), argv


RING = ["--poly", "x^3+x+1", "--power", "4"]
PARITY_ARGVS = [
    [], ["--help"], ["-h"], ["-h", "analyze"], ["bogus"], ["--json", "analyze", *RING],
    ["-1", "analyze"], ["--", "analyze", *RING],
    *([command, "--help"] for command in OPTIONS), ["analyze", *RING, "-h"],
    ["analyze"], ["analyze", "--power", "4"], ["dual", *RING], ["dual", *RING, "--j", "x"], ["dual", *RING, "--j"],
    ["analyze", "--pol", "x^3+x+1", "--power", "4", "--js"], ["dual", *RING, "--j", "2", "--js"],
    ["analyze", *RING, "--json", "--csv"], ["fixtures", "--dump", "--json"],
    ["analyze", *RING, "--candidate-cap", "0"], ["lcd", *RING, "--methods", "theorem"],
    ["analyze", *RING, "extra"], ["analyze", *RING, "dual"], ["analyze", "--", *RING], ["analyze", *RING, "--bogus"],
    ["analyze", *RING, "--j", "2"], ["dual", *RING, "--j", "2", "--json"], ["lcd", *RING],
    ["fixtures", "--which", "dual-weights-m3L9", "--dump"], ["conjecture", "--vmax", "0", "--tmax", "2"],
    ["--json", "dual", "lcd"], ["-x", "lcd", "--j"], ["lcd", "dual", "--j", "1"],
]


def _whole_parser_main(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=" ".join)
def test_a_call_reads_as_if_the_whole_parser_parsed_it(capsys, monkeypatch, argv):
    # help, usage and error text are byte for byte those of the whole parser, whichever path reads argv
    monkeypatch.setenv("COLUMNS", "80")
    assert _outcome(capsys, main, argv) == _outcome(capsys, _whole_parser_main, argv)


# (exit code, stdout, stderr) of every PARITY_ARGVS call at COLUMNS=80, recorded with Python 3.11 from the
# front end that parsed every call with argparse; later versions word argparse's help and errors differently
RECORDED = json.loads((Path(__file__).parent / "cli_outcomes_py311.json").read_text())


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the outcomes were recorded with Python 3.11's argparse")
@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=" ".join)
def test_a_call_reads_as_the_argparse_front_end_read_it(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert list(_outcome(capsys, main, argv)) == RECORDED[" ".join(argv)]


_FLAGS = sorted({o.flag for command in cli._COMMANDS.values() for o in command.options})
_TOKENS = [*cli._COMMANDS, *_FLAGS, "--pol", "--js", "--power=4", "-h", "--help", "--"]
_VALUES = ["3", "-1", "0", "x", "", "x^3+x+1", "all", "theorem", "1048576"]


def _value(option):
    """A value of _VALUES that option's kind converts, half the time one within its choices."""
    converts = [v for v in _VALUES if not v.startswith("-") and (option.kind is str or v.isdigit())]
    chosen = [v for v in converts if option.choices is None or option.kind(v) in option.choices]
    return st.one_of(st.sampled_from(chosen), st.sampled_from(converts))


@st.composite
def _argvs(draw):
    """argv over a small alphabet: a token, most often a command, then most of that command's options
    (each with a value of its kind), in a drawn order, and one time in two a token of the alphabet put in at a
    drawn place or in place of a drawn token."""
    name = draw(st.one_of(st.sampled_from(list(cli._COMMANDS)), st.sampled_from(_TOKENS)))
    parts = [
        [o.flag] if o.kind is bool else [o.flag, draw(_value(o))]
        for o in (cli._COMMANDS[name].options if name in cli._COMMANDS else ())
        if draw(st.integers(0, 3))
    ]
    argv = [name, *(token for part in draw(st.permutations(parts)) for token in part)]
    edit = draw(st.sampled_from(["none", "none", "insert", "replace"]))
    if edit != "none":
        at = draw(st.integers(0, len(argv) - (edit == "replace")))
        argv[at:at + (edit == "replace")] = [draw(st.sampled_from(_TOKENS + _VALUES))]
    return argv


@settings(max_examples=500, deadline=None)
@given(_argvs())
@example(["lcd", "--poly", "--json", "--power", "4"])  # a value starting with "-"
@example(["analyze", *RING, "--candidate-cap", "0"])  # a value outside its choices
@example(["fixtures", "--dump", "--json"])  # an exclusive pair
@example(["dual", *RING])  # a required option missing
def test_the_plain_reader_reads_as_the_whole_parser_or_declines(argv):
    read = cli._read(argv)
    if read is None:
        return
    # the reader read argv, so the whole parser must accept it: a refusal or help exits here
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        parsed = vars(cli.build_parser().parse_args(argv))
    assert parsed.pop("command") == argv[0]
    assert vars(read) == parsed


@pytest.mark.parametrize("dim_cap", ["3", "0", "-1"])
def test_conjecture_refuses_a_dim_cap_below_the_smallest_ring(capsys, dim_cap):
    # a scan of no ring would report "scanned 0 codes: all LCD"
    assert main(["conjecture", "--dim-cap", dim_cap]) == 2
    assert "dim_cap" in capsys.readouterr().err


def test_analyze_on_a_degree_32_primitive_ring(capsys):
    # the order of x is 2^32 - 1 (test_ring asserts it); the header steps only up to n = 64
    assert main(["analyze", "--poly", "x^32+x^22+x^2+x+1", "--power", "2", "--j", "1"]) == 0
    assert "order>=64" in capsys.readouterr().out


def test_no_command_needs_the_full_order_of_x(capsys):
    # no command factors 2^97 - 1: only the analyze text header reads the order of x, and only below n = 194
    ring = ["--poly", "x^97+x^6+1", "--power", "2", "--j", "1"]
    assert main(["lcd", *ring, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["is_lcd"] is True
    assert main(["dual", *ring, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["d_dual"] is None
    assert main(["analyze", *ring, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["lower"], report["upper"], report["exact"]) == (3, 3, True)
    assert report["provenance"] == ["weight-witness", "weight-3"]


def test_many_calls_in_one_process_do_not_leak_options(capsys):
    ring = ["--poly", "x^4+x+1", "--power", "16"]
    assert main(["analyze", *ring, "--j", "9", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["j"] == 9
    assert main(["analyze", *ring, "--json"]) == 0  # --j from the call before must not stick
    assert [row["j"] for row in json.loads(capsys.readouterr().out)] == list(range(17))
    assert main(["lcd", *ring]) == 0
    assert capsys.readouterr().out.count("\n") == 17  # j = 0..16
    assert main(["lcd", *ring, "--j", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["methods"] == ["oracle", "head-criterion"]
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--help"])
    assert err.value.code == 0 and "--candidate-cap" in capsys.readouterr().out
    with pytest.raises(SystemExit) as err:
        main(["dual", *ring, "--json"])  # refused: --j is required
    assert err.value.code == 2 and "--j" in capsys.readouterr().err
    assert main(["lcd", *ring, "--j", "3", "--json"]) == 0  # neither call before leaves anything behind
    assert json.loads(capsys.readouterr().out)["methods"] == ["oracle", "head-criterion"]
    assert main(["dual", *ring, "--j", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["j"] == 2
    assert main(["analyze", "--poly", "x^3+x+1", "--power", "4", "--csv"]) == 0
    assert capsys.readouterr().out.startswith("j,lower,upper,exact,provenance")
    assert main(["analyze", "--poly", "x^3+x+1", "--power", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "# n=12 m=3 L=4 order=7"


def test_a_failing_hull_cross_check_exits_3(capsys, monkeypatch):
    # a flipped bit in g_star moves q = g * g_star mod x^n, and with it W = q^-1: the hull and the
    # criterion's kernel move alike, but q's Gram band no longer reads the same both ways
    real = lcd.reciprocal
    monkeypatch.setattr(lcd, "reciprocal", lambda a: real(a) ^ 2)
    assert main(["lcd", "--poly", "x^3+x+1", "--power", "4", "--j", "2"]) == 3
    assert "not a palindrome" in capsys.readouterr().err


@pytest.mark.parametrize(("j", "err"), [("5", "dimension 0, the hull 1"), ("10", "dimension 1, the hull 0")])
def test_an_inverted_euclid_past_k_256_exits_3(capsys, monkeypatch, j, err):
    # k = 285 and 270 on x^3+x+1 at L = 100, and m*j > 12: the meet-in-the-middle check does not run, and the
    # hull by Berlekamp-Massey is the check on the criterion's Euclid
    real = lcd._reconstruction_dim
    monkeypatch.setattr(lcd, "_reconstruction_dim", lambda q, n, a: 0 if real(q, n, a) else 1)
    assert main(["lcd", "--poly", "x^3+x+1", "--power", "100", "--j", j]) == 3
    assert f"kernel has {err}, at j={j}" in capsys.readouterr().err


@pytest.mark.parametrize("poly,j", [("x^3+x+1", 2), ("x^3+x+1", 3), ("x^2+x+1", 1), ("x^2+x+1", 3)])
def test_a_wrong_criterion_kernel_exits_3(capsys, monkeypatch, poly, j):
    # a Euclid that reports a kernel where there is none, or none where there is one, in either
    # regime (j = 3 is a tail code in both rings); x^3+x+1 has no LCD code at L = 4, x^2+x+1 no other.
    # The hull, replaced by the same wrong Euclid on q, agrees with the criterion's kernel, so the
    # criterion's meet-in-the-middle check is what trips
    real = lcd._reconstruction_dim
    monkeypatch.setattr(lcd, "_reconstruction_dim", lambda q, n, a: 0 if real(q, n, a) else 1)
    monkeypatch.setattr(lcd, "hull_dimension_oracle", lambda c, q: lcd._reconstruction_dim(q, c.ctx.n, c.k))
    assert main(["lcd", "--poly", poly, "--power", "4", "--j", str(j)]) == 3
    assert "disagrees with direct sweep" in capsys.readouterr().err


def test_a_dual_word_off_the_dual_exits_3(capsys, monkeypatch):
    # h* with its low, a middle or its top bit flipped (n = 27); the top bit meets only the last generator row
    real = duality.inverse_trunc
    for bit in (lambda nbits: 0, lambda nbits: nbits // 2, lambda nbits: nbits - 1):
        monkeypatch.setattr(duality, "inverse_trunc", lambda a, nbits, bit=bit: real(a, nbits) ^ 1 << bit(nbits))
        assert main(["dual", "--poly", "x^3+x+1", "--power", "9", "--j", "2"]) == 3
        assert "not orthogonal" in capsys.readouterr().err


def test_a_wrong_power_series_inverse_raises_and_exits_3(capsys, monkeypatch):
    # a square over GF(2) has no odd-degree term, so flipping bit 1 always corrupts it; every
    # inverse checks its product, and the dual word of C_2 is one
    real = gf2poly.square
    monkeypatch.setattr(gf2poly, "square", lambda a: real(a) ^ 2)
    with pytest.raises(InternalConsistencyError, match="power-series inverse"):
        gf2poly.inverse_trunc(0b111, 16)
    assert main(["dual", "--poly", "x^3+x+1", "--power", "9", "--j", "2"]) == 3
    assert "power-series inverse" in capsys.readouterr().err


def _python(*args, timeout):
    """Run a fresh interpreter on the package; a run past timeout fails the test instead of hanging it."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(polycode.__file__))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def test_an_oversized_ring_is_refused_within_a_second():
    # P^0..P^L would need ~2.5 GB at L = 100000
    start = time.perf_counter()
    run = _python("-m", "polycode.cli", "analyze", "--poly", "x^4+x+1", "--power", "100000", timeout=5)
    assert run.returncode == 2 and "budget" in run.stderr
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "poly",
    [
        "x^100000000+x+1",  # parse refuses the term before building its 10^8-bit mask
        "x^30000000+x+1",  # parses, but P^0..P^2 needs 9*10^7 bits: refused before the irreducibility test
        "x^1000000+x+1",  # within the ring budget: Rabin's test refuses a step past its work budget
    ],
    ids=["parse", "ring", "rabin"],
)
def test_a_huge_degree_is_refused_within_a_second(poly):
    # the child's CPU time, not wall time: load from other processes on the machine does not count
    import resource

    def cpu_s():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    start = cpu_s()
    run = _python("-m", "polycode.cli", "analyze", "--poly", poly, "--power", "2", timeout=5)
    assert run.returncode == 2 and "budget" in run.stderr
    assert cpu_s() - start < 1.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak resident set from /proc")
def test_a_dual_near_the_top_of_the_chain_holds_one_word():
    # the dual is its word h* and the closure test reads only h*: no m*j rows of n bits.  The peak
    # is VmHWM, not ru_maxrss, which keeps across exec the size of the forked test process.
    script = (
        "import contextlib, io, json; from polycode.cli import main; out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    rc = main(['dual', '--poly', 'x^16+x^5+x^3+x+1', '--power', '2000', '--j', '1999', '--json'])\n"
        "peak = int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        "print(json.dumps([rc, json.loads(out.getvalue()), peak]))"
    )
    run = _python("-c", script, timeout=60)
    assert run.returncode == 0, run.stderr
    rc, report, peak_kb = json.loads(run.stdout)
    assert rc == 0 and report["k_dual"] == 31984 and report["d_dual"] is None
    assert report["provenance"] == ["sequential-closure"]
    assert peak_kb < 64 * 1024


def test_a_dual_at_the_foot_of_a_wide_chain_walks_its_words():
    # j = 1 on n = 46 320: the anchor's lead coset, 2^15 words over 15 rows, is the oracle's too, so it is
    # weighed once, by the Gray-code walk, where the information-set search over ~3 000 sets had not finished in 60 s
    script = (
        "import contextlib, io, json; from polycode.cli import main; out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    rc = main(['dual', '--poly', 'x^16+x^5+x^3+x+1', '--power', '2895', '--j', '1', '--json'])\n"
        "peak = int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        "print(json.dumps([rc, json.loads(out.getvalue()), peak]))"
    )
    run = _python("-c", script, timeout=60)
    assert run.returncode == 0, run.stderr
    rc, report, peak_kb = json.loads(run.stdout)
    assert rc == 0 and report["k_dual"] == 16 and report["d_dual"] == 23022
    assert report["provenance"] == ["dual-reduced-set", "sequential-closure"]
    assert peak_kb < 64 * 1024


@pytest.mark.skipif(sys.platform == "win32", reason="sets RLIMIT_AS through the resource module")
def test_a_raised_oracle_cap_on_a_wide_ring_runs_within_1_gb():
    # x^2+x+1, L = 8191, j = 7425: the oracle's search on k = 1 532 rows of 16 382 bits finds d = 21
    # at level 2, whose table of pair XORs alone would take about 2.4 GB
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(polycode.__file__))}
    argv = ["analyze", "--poly", "x^2+x+1", "--power", "8191", "--j", "7425", "--oracle-cap", "2000", "--json"]
    run = subprocess.run(
        [sys.executable, "-m", "polycode.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=cap_address_space,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["exact"] is True and report["lower"] == 21 and "oracle" in report["provenance"]


def test_the_dual_closure_takes_no_sample_count():
    # the dual word h* decides closure for the whole dual, so --samples is gone
    with pytest.raises(SystemExit) as exc:
        main(["dual", "--poly", "x^3+x+1", "--power", "4", "--j", "1", "--samples", "5"])
    assert exc.value.code == 2


def test_conjecture_reaches_v5():
    # ring set-up at v = 5 (m = 486) finds no order of x
    run = _python("-m", "polycode.cli", "conjecture", "--vmax", "5", "--tmax", "1", "--dim-cap", "1000", timeout=30)
    assert run.returncode == 0 and run.stderr == "scanned 6 codes: all LCD\n"
    assert run.stdout.splitlines()[-1] == "5,1,1,972,486,True,0"


@pytest.mark.parametrize("huge, small", [(["--vmax", "1", "--tmax", "3000000"], ["--vmax", "1", "--tmax", "5"]),
                                         (["--vmax", "200000", "--tmax", "2"], ["--vmax", "2", "--tmax", "2"])],
                         ids=["tmax", "vmax"])
def test_conjecture_ranges_stop_at_the_dim_cap(huge, small):
    # rings past --dim-cap are never built, however far --vmax or --tmax reach
    want = _python("-m", "polycode.cli", "conjecture", "--dim-cap", "64", *small, timeout=10)
    got = _python("-m", "polycode.cli", "conjecture", "--dim-cap", "64", *huge, timeout=5)
    assert want.returncode == got.returncode == 0
    assert (got.stdout, got.stderr) == (want.stdout, want.stderr)


def test_the_cli_loads_only_what_every_command_needs():
    # a set difference, since what the interpreter loads before the script (site, .pth files) varies
    script = (
        "import sys; before = set(sys.modules); import polycode, polycode.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    run = _python("-c", script, timeout=30)
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert "polycode.cli" in loaded
    assert not loaded & {"argparse", "dataclasses", "gettext", "inspect", "multiprocessing", "polycode.fixtures"}


def test_the_lazily_loaded_commands_run_from_a_fresh_process():
    run = _python("-m", "polycode.cli", "fixtures", "--which", "profile-m5L5", timeout=30)
    assert run.returncode == 0 and run.stdout.startswith("profile-m5L5: PASS"), run.stderr
    run = _python("-m", "polycode.cli", "conjecture", "--vmax", "1", "--tmax", "3", timeout=30)
    assert run.returncode == 0 and run.stderr == "scanned 22 codes: all LCD\n", run.stderr


def test_the_runtime_imports_no_numpy():
    # the package and its CLI load on the standard library alone
    run = _python("-c", "import sys, polycode, polycode.cli; print('numpy' in sys.modules)", timeout=30)
    assert run.stdout.strip() == "False", run.stderr
