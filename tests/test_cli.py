"""Exit codes and output shapes of the command line front end."""

from __future__ import annotations

import csv
import io
import json
import os

import pytest

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


def test_malformed_oracle_cap_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("POLYCODE_ORACLE_CAP", "abc")
    assert main(["analyze", "--poly", "x^3+x+1", "--power", "4"]) == 2
    assert "POLYCODE_ORACLE_CAP" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3", str((os.cpu_count() or 1) + 1)])
def test_conjecture_refuses_worker_counts_outside_the_cpu_range(capsys, workers):
    # each value is refused before any worker process starts
    assert main(["conjecture", "--vmax", "0", "--tmax", "1", "--workers", workers]) == 2
    assert "workers" in capsys.readouterr().err


def test_analyze_on_a_degree_32_primitive_ring(capsys):
    assert main(["analyze", "--poly", "x^32+x^22+x^2+x+1", "--power", "2", "--j", "1"]) == 0
    assert "order=4294967295" in capsys.readouterr().out
