"""Exit codes and output shapes of the command line front end."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import time

import pytest

import polycode
from polycode import cli, duality, fixtures, lcd
from polycode.cli import main


def test_analyze_json_single_index(capsys):
    assert main(["analyze", "--poly", "x^4+x+1", "--power", "16", "--j", "9", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"j", "lower", "upper", "exact", "provenance"}
    assert payload["j"] == 9 and payload["lower"] == 6 and payload["exact"] is True


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
    assert main(["dual", "--poly", "x^5+x^4+x^2+x+1", "--power", "12", "--j", "3",
                 "--oracle-cap", "0"]) == 0
    assert "unresolved" in capsys.readouterr().out


ANALYZE_M3 = ["analyze", "--poly", "x^3+x+1", "--power", "4"]


@pytest.mark.parametrize(
    "argv, cap, value",
    [
        (ANALYZE_M3, "--oracle-cap", "-5"),
        (ANALYZE_M3, "--candidate-cap", "-1"),
        ([*ANALYZE_M3, "--j", "2"], "--oracle-cap", "-1"),
        (["dual", "--poly", "x^3+x+1", "--power", "4", "--j", "2"], "--oracle-cap", "-1"),
    ],
    ids=["analyze-oracle", "analyze-candidate", "analyze-single", "dual"],
)
def test_a_negative_cap_exits_2(capsys, argv, cap, value):
    assert main([*argv, cap, value]) == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert main([*argv, cap, "0"]) == 0  # cap 0 stays legal: it only turns the search off


def test_lcd_single_and_sweep(capsys):
    assert main(["lcd", "--poly", "x^3+x+1", "--power", "8", "--j", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"j": 1, "is_lcd": True, "hull_dim": 0, "methods": ["oracle", "head-criterion"]}
    assert main(["lcd", "--poly", "x^3+x+1", "--power", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 5  # j = 0..4


def test_lcd_theorem_sweep_skips_trivial_ideals(capsys):
    assert main(["lcd", "--poly", "x^3+x+1", "--power", "4", "--methods", "theorem"]) == 0
    assert capsys.readouterr().out.count("\n") == 3  # j = 1..3


def test_fixtures_single_pass_line(capsys):
    assert main(["fixtures", "--which", "head-survey"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("head-survey: PASS")


def test_fixtures_json_shape(capsys):
    assert main(["fixtures", "--which", "profile-m5L5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["key"] == "profile-m5L5" and payload[0]["passed"] is True
    assert payload[0]["failures"] == []


def test_fixtures_dump_prints_reference_rows(capsys):
    assert main(["fixtures", "--which", "dual-weights-m3L9", "--dump"]) == 0
    out = capsys.readouterr().out
    assert "s=1" in out and out.count("\n") == 16


def test_fixtures_rejects_unknown_key():
    with pytest.raises(SystemExit) as err:
        main(["fixtures", "--which", "nope"])
    assert err.value.code == 2


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


@pytest.mark.parametrize("dim_cap", ["3", "0", "-1"])
def test_conjecture_refuses_a_dim_cap_below_the_smallest_ring(capsys, dim_cap):
    # a scan of no ring would report "scanned 0 codes: all LCD"
    assert main(["conjecture", "--dim-cap", dim_cap]) == 2
    assert "dim_cap" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3", str((os.cpu_count() or 1) + 1)])
def test_conjecture_refuses_worker_counts_outside_the_cpu_range(capsys, workers):
    # each value is refused before any worker process starts
    assert main(["conjecture", "--vmax", "0", "--tmax", "1", "--workers", workers]) == 2
    assert "workers" in capsys.readouterr().err


def test_analyze_on_a_degree_32_primitive_ring(capsys):
    assert main(["analyze", "--poly", "x^32+x^22+x^2+x+1", "--power", "2", "--j", "1"]) == 0
    assert "order=4294967295" in capsys.readouterr().out


def test_many_calls_in_one_process_do_not_leak_options(capsys):
    ring = ["--poly", "x^4+x+1", "--power", "16"]
    assert main(["analyze", *ring, "--j", "9", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["j"] == 9
    assert main(["analyze", *ring, "--json"]) == 0  # --j from the call before must not stick
    assert [row["j"] for row in json.loads(capsys.readouterr().out)] == list(range(17))
    assert main(["lcd", *ring, "--methods", "theorem"]) == 0
    assert capsys.readouterr().out.count("\n") == 15  # j = 1..15
    assert main(["lcd", *ring, "--j", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["methods"] == ["oracle", "head-criterion"]
    assert main(["dual", *ring, "--j", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["j"] == 2
    assert main(["analyze", "--poly", "x^3+x+1", "--power", "4", "--csv"]) == 0
    assert capsys.readouterr().out.startswith("j,lower,upper,exact,provenance")
    assert main(["analyze", "--poly", "x^3+x+1", "--power", "4"]) == 0
    assert capsys.readouterr().out.startswith("# n=12")


def test_a_failing_hull_cross_check_exits_3(capsys, monkeypatch):
    # a flipped bit in q = (P * P_star)^j moves the reconstruction's hull off the Gram rank's
    real = lcd.power_trunc
    monkeypatch.setattr(lcd, "power_trunc", lambda a, e, nbits: real(a, e, nbits) ^ 2)
    assert main(["lcd", "--poly", "x^3+x+1", "--power", "4", "--j", "2", "--methods", "oracle"]) == 3
    assert "hull dimension mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("poly,j", [("x^3+x+1", 2), ("x^3+x+1", 3), ("x^2+x+1", 1), ("x^2+x+1", 3)])
def test_a_wrong_criterion_kernel_exits_3(capsys, monkeypatch, poly, j):
    # a Euclid that reports a kernel where there is none, or none where there is one, in either
    # regime (j = 3 is a tail code in both rings); x^3+x+1 has no LCD code at L = 4, x^2+x+1 no other
    real = lcd._reconstruction_dim
    monkeypatch.setattr(lcd, "_reconstruction_dim", lambda q, n, a: 0 if real(q, n, a) else 1)
    assert main(["lcd", "--poly", poly, "--power", "4", "--j", str(j), "--methods", "theorem"]) == 3
    assert "internal consistency failure" in capsys.readouterr().err


def test_a_dual_word_off_the_dual_exits_3(capsys, monkeypatch):
    real = duality.power_trunc
    monkeypatch.setattr(duality, "power_trunc", lambda a, e, nbits: real(a, e, nbits) ^ 1)
    assert main(["dual", "--poly", "x^3+x+1", "--power", "9", "--j", "2"]) == 3
    assert "not orthogonal" in capsys.readouterr().err


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
    ],
    ids=["parse", "ring"],
)
def test_a_huge_degree_is_refused_within_a_second(poly):
    start = time.perf_counter()
    run = _python("-m", "polycode.cli", "analyze", "--poly", poly, "--power", "2", timeout=5)
    assert run.returncode == 2 and "budget" in run.stderr
    assert time.perf_counter() - start < 1.0


def test_the_dual_closure_takes_no_sample_count():
    # the rows decide closure for every dual word, so --samples is gone
    with pytest.raises(SystemExit) as exc:
        main(["dual", "--poly", "x^3+x+1", "--power", "4", "--j", "1", "--samples", "5"])
    assert exc.value.code == 2


def test_conjecture_reaches_v5():
    # ring set-up at v = 5 orders x^486 + x^243 + 1 although 2^486 - 1 does not factor within the rho budget
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


def test_the_parser_offers_every_fixture_key():
    assert cli.FIXTURE_KEYS == tuple(fixtures.FIXTURES)


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
    assert not loaded & {"dataclasses", "inspect", "multiprocessing", "polycode.fixtures"}


def test_the_lazily_loaded_commands_run_from_a_fresh_process():
    run = _python("-m", "polycode.cli", "fixtures", "--which", "lcd-m3L8", timeout=30)
    assert run.returncode == 0 and run.stdout.startswith("lcd-m3L8: PASS"), run.stderr
    serial = _python("-m", "polycode.cli", "conjecture", "--vmax", "1", "--tmax", "3", timeout=30)
    pooled = _python("-m", "polycode.cli", "conjecture", "--vmax", "1", "--tmax", "3", "--workers", "2", timeout=30)
    assert serial.returncode == pooled.returncode == 0, pooled.stderr
    assert (pooled.stdout, pooled.stderr) == (serial.stdout, serial.stderr)
    assert pooled.stderr == "scanned 22 codes: all LCD\n"


def test_the_runtime_imports_no_numpy():
    # the package and its CLI load on the standard library alone
    run = _python("-c", "import sys, polycode, polycode.cli; print('numpy' in sys.modules)", timeout=30)
    assert run.stdout.strip() == "False", run.stderr
