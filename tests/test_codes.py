"""Code objects: generators, encoding, membership, enumeration, reversal."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycode._linalg import rank
from polycode.codes import (
    code,
    contains,
    encode,
    enumerate_codewords,
    generator_rows,
    is_reversible,
    reverse_word,
)
from polycode.errors import CapExceeded, ValidationError
from polycode.gf2poly import parse, weight
from polycode.ring import new_context, shift_word

P2 = parse("x^2+x+1")
P3 = parse("x^3+x+1")


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
    word = encode(c, msg)
    assert contains(c, word)
    if msg:
        assert word != 0


def test_encode_rejects_oversized_messages():
    ctx = new_context(P3, 3)
    c = code(ctx, 2)
    with pytest.raises(ValidationError):
        encode(c, 1 << c.k)


def test_enumeration_is_the_whole_span_in_gray_order():
    ctx = new_context(P2, 3)
    c = code(ctx, 1)
    words = list(enumerate_codewords(c))
    assert words[0] == 0
    assert len(words) == 1 << c.k
    assert len(set(words)) == len(words)
    rows = set(generator_rows(c))
    for prev, cur in zip(words, words[1:]):
        assert prev ^ cur in rows  # Gray order: consecutive words differ by one row
    assert set(words) == {encode(c, msg) for msg in range(1 << c.k)}


def test_enumeration_refuses_oversized_codes():
    ctx = new_context(P3, 12)
    with pytest.raises(CapExceeded, match="cap"):
        list(enumerate_codewords(code(ctx, 0), cap=20))


def test_zero_code_membership_and_enumeration():
    ctx = new_context(P2, 2)
    z = code(ctx, 2)
    assert contains(z, 0)
    assert not contains(z, 1)
    assert list(enumerate_codewords(z)) == [0]


def test_polycyclic_closure_of_generator_rows():
    """shifting any codeword by the ring's feedback keeps it in the code."""
    for poly, L in ((P2, 4), (P3, 3), (parse("x^4+x+1"), 2)):
        ctx = new_context(poly, L)
        for j in range(L):
            c = code(ctx, j)
            for row in generator_rows(c):
                assert contains(c, shift_word(ctx, row))


def test_reverse_word():
    assert reverse_word(0b001, 3) == 0b100
    assert reverse_word(0b110, 3) == 0b011
    assert weight(reverse_word(0xDEAD, 16)) == weight(0xDEAD)


def test_reversibility_frozen_values():
    assert is_reversible(code(new_context(P3, 2), 1)) is False
    ctx = new_context(P2, 4)  # self-reciprocal trinomial: whole chain reversible
    for j in range(5):
        assert is_reversible(code(ctx, j)) is True
