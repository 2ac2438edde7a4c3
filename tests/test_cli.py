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
from polycode import _linalg, duality
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


def test_a_failing_nullspace_check_exits_3(capsys, monkeypatch):
    good = _linalg.rref

    def corrupted(rows):
        (c, b), *rest = good(rows)
        return [(c, b ^ 1), *rest]

    monkeypatch.setattr(_linalg, "rref", corrupted)
    assert main(["lcd", "--poly", "x^3+x+1", "--power", "4", "--j", "2", "--methods", "oracle"]) == 3
    assert "nullspace" in capsys.readouterr().err


def test_a_dual_word_off_the_dual_exits_3(capsys, monkeypatch):
    real = duality.mul_trunc
    monkeypatch.setattr(duality, "mul_trunc", lambda a, b, nbits: real(a, b, nbits) ^ 1)
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


SMALL_DUAL = ["--poly", "x^3+x+1", "--power", "4", "--j", "1"]  # dual dimension 3
WIDE_DUAL = ["--poly", "x^8+x^4+x^3+x^2+1", "--power", "24", "--j", "20"]  # dual dimension 160


@pytest.mark.parametrize(
    "ring, samples, message",
    [
        (SMALL_DUAL, "-3", ">= 0"),
        (SMALL_DUAL, "100000000", "over the cap"),
        # 2^20 samples pass the plain count cap, but at dimension 160 they would run about a minute
        (WIDE_DUAL, "1048576", "over the cap"),
    ],
    ids=["negative", "over-cap", "over-cap-at-wide-dual"],
)
def test_a_bad_sample_count_is_refused_within_a_second(ring, samples, message):
    argv = ["dual", *ring, "--samples", samples]
    start = time.perf_counter()
    run = _python("-m", "polycode.cli", *argv, timeout=5)
    assert run.returncode == 2 and message in run.stderr
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("huge, small", [(["--vmax", "1", "--tmax", "3000000"], ["--vmax", "1", "--tmax", "5"]),
                                         (["--vmax", "200000", "--tmax", "2"], ["--vmax", "2", "--tmax", "2"])],
                         ids=["tmax", "vmax"])
def test_conjecture_ranges_stop_at_the_dim_cap(huge, small):
    # rings past --dim-cap are never built, however far --vmax or --tmax reach
    want = _python("-m", "polycode.cli", "conjecture", "--dim-cap", "64", *small, timeout=10)
    got = _python("-m", "polycode.cli", "conjecture", "--dim-cap", "64", *huge, timeout=5)
    assert want.returncode == got.returncode == 0
    assert (got.stdout, got.stderr) == (want.stdout, want.stderr)


def test_the_runtime_imports_no_numpy():
    # the package and its CLI load on the standard library alone
    run = _python("-c", "import sys, polycode, polycode.cli; print('numpy' in sys.modules)", timeout=30)
    assert run.stdout.strip() == "False", run.stderr
