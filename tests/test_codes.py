"""Code objects: generators, membership, reversal."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycode import codes
from polycode._linalg import rank
from polycode.cli import main
from polycode.codes import chain, code
from polycode.distance import min_distance_bruteforce
from polycode.errors import ValidationError
from polycode.gf2poly import div_rem, is_irreducible, mul, parse, power, reciprocal, weight
from polycode.lcd import conjecture_scan, family_poly, lcd_verdict
from polycode.ring import new_context
from _reference import contains, generator_rows

P2 = parse("x^2+x+1")
P3 = parse("x^3+x+1")
IRREDUCIBLE_2_TO_6 = [f for f in range(4, 128) if is_irreducible(f)]


def reverse_word(word, n):
    """The length-n coordinate reversal of a word."""
    return int(format(word, f"0{n}b")[::-1], 2) if word else 0


def reversible_by_rows(c):
    """Reference: coordinate reversal maps every generator row back into C_j."""
    return all(contains(c, reverse_word(row, c.n)) for row in generator_rows(c))


def test_dimensions_along_the_chain():
    ctx = new_context(P3, 5)
    for j in range(6):
        c = code(ctx, j)
        assert c.n == 15 and c.k == 3 * (5 - j)
    with pytest.raises(ValidationError):
        code(ctx, 6)
    with pytest.raises(ValidationError):
        code(ctx, -1)


def test_generator_matrix_shape_and_rank():
    # the generator matrix is generator_rows: k rows of n bits, full rank; the zero code has none
    ctx = new_context(P3, 4)
    for j in range(4):
        rows = generator_rows(code(ctx, j))
        assert len(rows) == ctx.m * (4 - j) and max(rows).bit_length() == ctx.n
        assert rank(rows) == len(rows)
    assert generator_rows(code(ctx, 4)) == []


@given(st.integers(min_value=0, max_value=(1 << 9) - 1))
def test_encode_then_contains(msg):
    ctx = new_context(P3, 3)
    c = code(ctx, 1)  # k = 6
    msg &= (1 << c.k) - 1
    word = mul(msg, c.generator)  # a k-bit message encodes as msg(x) * P^j
    assert contains(c, word)
    if msg:
        assert word != 0


def test_zero_code_membership_and_enumeration():
    ctx = new_context(P2, 2)
    z = code(ctx, 2)
    assert contains(z, 0)
    assert not contains(z, 1)
    assert generator_rows(z) == []  # so its only codeword is 0


def test_polycyclic_closure_of_generator_rows():
    """shifting any codeword by the ring's feedback keeps it in the code."""
    for poly, L in ((P2, 4), (P3, 3), (parse("x^4+x+1"), 2)):
        ctx = new_context(poly, L)
        for j in range(L):
            c = code(ctx, j)
            for row in generator_rows(c):
                assert contains(c, div_rem(row << 1, power(ctx.P, L))[1])  # x * row in the ring


def test_reverse_word():
    assert reverse_word(0b001, 3) == 0b100
    assert reverse_word(0b110, 3) == 0b011
    assert weight(reverse_word(0xDEAD, 16)) == weight(0xDEAD)


def test_reversibility_frozen_values():
    assert reversible_by_rows(code(new_context(P3, 2), 1)) is False
    for v, L in ((0, 4), (1, 3), (2, 2)):  # self-reciprocal trinomials: whole chains reversible
        ctx = new_context(family_poly(v), L)
        for j in range(L + 1):
            assert reversible_by_rows(code(ctx, j)) is True


def test_reversibility_matches_the_row_by_row_reference():
    # C_j (0 < j < L) is reversible iff P^j is self-reciprocal, iff P is: every irreducible P of degree 2-6, L <= 6
    checked = 0
    for P in IRREDUCIBLE_2_TO_6:
        for L in range(2, 7):
            ctx = new_context(P, L)
            for j in range(L + 1):
                assert reversible_by_rows(code(ctx, j)) == (j in (0, L) or reciprocal(P) == P), (P, L, j)
                checked += 1
    assert checked == sum(L + 1 for L in range(2, 7)) * len(IRREDUCIBLE_2_TO_6) == 525


def test_the_chain_walk_matches_power_and_code():
    # every irreducible P of degree 2-6, L <= 10, every 0 <= start <= stop <= L + 1
    for P in IRREDUCIBLE_2_TO_6:
        for L in range(2, 11):
            ctx = new_context(P, L)
            pows = [power(P, j) for j in range(L + 1)]
            assert [code(ctx, j).generator for j in range(L + 1)] == pows
            for start in range(L + 2):
                for stop in range(start, L + 2):
                    walk = list(chain(ctx, start, stop))
                    assert [c.j for c in walk] == list(range(start, stop))
                    assert [c.generator for c in walk] == pows[start:stop], (P, L, start, stop)


def test_each_code_takes_at_most_one_power(monkeypatch, capsys):
    # P^j comes from one power per code() call, and a walk along the chain takes one in all
    calls = []
    real = codes.power
    monkeypatch.setattr(codes, "power", lambda a, e: calls.append(e) or real(a, e))
    ctx = new_context(P3, 8)
    c = code(ctx, 6)
    assert calls == [6]
    min_distance_bruteforce(c)
    lcd_verdict(c)
    assert calls == [6]
    calls.clear()
    assert main(["lcd", "--poly", "x^3+x+1", "--power", "8"]) == 0
    assert len(calls) <= 1
    calls.clear()
    rows = conjecture_scan(0, 5)
    assert len(rows) == 57  # j = 1..2^T - 1 over T = 1..5
    assert len(calls) <= len({(row["v"], row["T"]) for row in rows})
    capsys.readouterr()
