"""Algebraic laws and parsing for the bit-packed GF(2)[x] arithmetic."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycode.errors import CapExceeded, ValidationError
from polycode.gf2poly import (
    IRREDUCIBLE_WORK,
    RING_TABLE_BITS,
    degree,
    div_rem,
    format_poly,
    gcd,
    inverse_trunc,
    is_irreducible,
    mul,
    mul_trunc,
    order,
    parse,
    power,
    power_trunc,
    reciprocal,
    square,
    weight,
)
from _reference import substitute_power

polys = st.integers(min_value=0, max_value=(1 << 256) - 1)
nonzero = st.integers(min_value=1, max_value=(1 << 256) - 1)
small = st.integers(min_value=0, max_value=(1 << 24) - 1)


@given(polys, polys)
def test_mul_commutes(a, b):
    assert mul(a, b) == mul(b, a)


@given(small, small, small)
def test_mul_associates(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(polys, polys, polys)
def test_mul_distributes_over_add(a, b, c):
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)  # addition is XOR


@given(polys, nonzero)
def test_div_rem_roundtrip(a, b):
    q, r = div_rem(a, b)
    assert mul(q, b) ^ r == a
    assert r == 0 or degree(r) < degree(b)


def test_div_by_zero_refused():
    with pytest.raises(ValidationError):
        div_rem(5, 0)


@given(polys, polys)
def test_gcd_divides_both(a, b):
    g = gcd(a, b)
    if g:
        assert div_rem(a, g)[1] == 0
        assert div_rem(b, g)[1] == 0


@given(nonzero, nonzero)
def test_reciprocal_is_multiplicative(a, b):
    assert reciprocal(mul(a, b)) == mul(reciprocal(a), reciprocal(b))


@given(nonzero)
def test_reciprocal_involutive_on_odd_polys(a):
    a |= 1  # nonzero constant term, so no trailing zeros are dropped
    assert reciprocal(reciprocal(a)) == a
    assert weight(reciprocal(a)) == weight(a)


@given(polys)
def test_substitute_square_is_frobenius(a):
    assert substitute_power(a, 2) == mul(a, a)


@given(small, small, st.integers(min_value=1, max_value=7))
def test_substitute_power_is_multiplicative(a, b, t):
    assert substitute_power(mul(a, b), t) == mul(substitute_power(a, t), substitute_power(b, t))


@given(small, st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_power_adds_exponents(a, i, j):
    assert power(a, i + j) == mul(power(a, i), power(a, j))


@given(polys, polys, st.integers(min_value=1, max_value=200))
def test_mul_trunc_matches_masked_mul(a, b, nbits):
    assert mul_trunc(a, b, nbits) == mul(a, b) & ((1 << nbits) - 1)


@given(polys)
def test_square_matches_mul(a):
    assert square(a) == mul(a, a)


def test_square_spreads_every_byte_across_byte_edges():
    # each byte value alone, at each offset of a 24-bit word, and a word of 10^4 bits
    for b in range(256):
        for shift in range(0, 17, 4):
            assert square(b << shift) == mul(b << shift, b << shift)
    a = int("1101" * 2500, 2)
    assert square(a) == mul(a, a) and square(0) == 0


@given(small, st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=120))
def test_power_trunc_matches_masked_power(a, e, nbits):
    assert power_trunc(a, e, nbits) == power(a, e) & ((1 << nbits) - 1)


def x_power_mod(e, f):
    """x^e mod f, squaring left to right so that each multiply by x is one shift; for exponents like 2^61 - 1."""
    out = 1
    for i in range(e.bit_length() - 1, -1, -1):
        out = div_rem(square(out), f)[1]
        if e >> i & 1:
            out = div_rem(out << 1, f)[1]
    return out


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=2, max_value=(1 << 16)))
def test_x_power_mod_matches_div_rem(e, f):
    f |= 1 << 15  # keep the modulus degree positive
    assert x_power_mod(e, f) == div_rem(1 << e, f)[1]


# --- irreducibility and order ------------------------------------------------

# number of monic irreducible polynomials over GF(2) by degree (necklace counts)
IRREDUCIBLE_COUNTS = {2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30, 9: 56, 10: 99, 11: 186, 12: 335, 13: 630}


@pytest.mark.parametrize("deg,count", sorted(IRREDUCIBLE_COUNTS.items()))
def test_irreducible_counts_by_degree(deg, count):
    got = sum(
        1 for f in range((1 << deg) | 1, 1 << (deg + 1), 2) if is_irreducible(f)
    )
    assert got == count


def _irreducible_by_gcds(f):
    """The m/2-gcd reference: a reducible f has a factor of degree d <= m/2, which divides x^(2^d) - x."""
    m = degree(f)
    if m == 1:
        return True
    if not f & 1:
        return False
    t = 2
    for _ in range(m // 2):
        t = div_rem(square(t), f)[1]
        if gcd(f, t ^ 2) != 1:
            return False
    return True


def test_rabin_agrees_with_the_gcd_test_on_every_polynomial_below_2_to_the_12():
    assert all(is_irreducible(f) == _irreducible_by_gcds(f) for f in range(2, 1 << 12))


def test_rabin_agrees_with_the_gcd_test_on_random_polynomials():
    # degree 13-64; every other f has a tail of degree <= m/2, so both reductions run
    rng = random.Random(19)
    irreducible = 0
    for i in range(200):
        m = rng.randint(13, 64)
        f = 1 << m | rng.getrandbits(m if i % 2 else m // 2 + 1) | 1
        assert is_irreducible(f) == _irreducible_by_gcds(f), format_poly(f)
        irreducible += is_irreducible(f)
    assert irreducible == 11


def test_rabin_on_large_trinomials():
    f = parse("x^1279+x^216+1")  # folded through x^216 + 1
    assert is_irreducible(f)
    assert not is_irreducible(mul(f, parse("x+1")))  # a dense tail, reduced by division
    assert not is_irreducible(parse("x^1280+x^216+1"))  # (x^640 + x^108 + 1)^2
    assert not is_irreducible(parse("x^1279+x^217+x^216+1"))  # x + 1 divides every f with an even weight


def test_rabin_refuses_to_pass_its_work_budget():
    # deciding x^19937+x^9842+1 takes 8 s (2-core x86 VM); the paper's family ring at v = 7 (m = 4374), which
    # folds, stays within the budget
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"budget of {IRREDUCIBLE_WORK}"):
        is_irreducible(parse("x^19937+x^9842+1"))
    with pytest.raises(CapExceeded, match="budget"):
        is_irreducible(mul(parse("x^4374+x^2187+1"), parse("x+1")))  # a dense tail, reduced by division
    assert time.perf_counter() - start < 2.0
    assert is_irreducible(parse("x^4374+x^2187+1"))


def test_known_orders():
    assert order(parse("x^2+x+1"), 1 << 2) == 3
    assert order(parse("x^3+x+1"), 1 << 3) == 7
    assert order(parse("x^4+x^3+x^2+x+1"), 1 << 4) == 5  # irreducible but not primitive
    assert order(parse("x^4+x+1"), 1 << 4) == 15


def test_order_divides_field_multiplicative_order():
    for deg in range(2, 9):
        for f in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if is_irreducible(f):
                assert (2**deg - 1) % order(f, 1 << deg) == 0


def _order_by_stepping(f):
    """The defining walk: multiply by x mod f until the power returns to 1."""
    m, cur, e = degree(f), 2, 1
    while cur != 1:
        cur <<= 1
        if cur >> m:
            cur ^= f
        e += 1
    return e


def test_order_matches_stepping_for_every_irreducible_up_to_degree_12():
    for deg in range(2, 13):
        for f in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if is_irreducible(f):
                e = _order_by_stepping(f)
                for cap in (e - 1, e, e + 1, 1 << deg):
                    assert order(f, cap) == min(e, cap), (format_poly(f), cap)


def test_order_refuses_f_without_x_in_its_unit_group():
    assert order(parse("x^2+1"), 8) == 2  # x^2 == 1 mod x^2 + 1: a constant term makes x a unit
    with pytest.raises(ValidationError):
        order(parse("x^3+x"), 8)


@given(st.integers(min_value=0, max_value=(1 << 200) - 1), st.integers(min_value=1, max_value=300))
def test_inverse_trunc_is_the_power_series_inverse(a, nbits):
    a |= 1
    inv = inverse_trunc(a, nbits)
    assert inv < 1 << nbits
    assert mul_trunc(a, inv, nbits) == 1


def test_inverse_trunc_refuses_non_units():
    with pytest.raises(ValidationError):
        inverse_trunc(parse("x^3+x"), 8)


# --- text form ----------------------------------------------------------------


@given(polys)
def test_parse_format_roundtrip(a):
    assert parse(format_poly(a)) == a


def test_parse_accepts_literals():
    assert parse("0b10011") == 0b10011
    assert parse("19") == 19
    assert parse("x^4 + x + 1") == 0b10011
    assert parse("1+x+x^4") == 0b10011
    assert parse("x^2+x^2") == 0  # repeated terms cancel


def test_format_small_cases():
    assert format_poly(0) == "0"
    assert format_poly(1) == "1"
    assert format_poly(2) == "x"
    assert format_poly(0b1011) == "x^3 + x + 1"


@pytest.mark.parametrize("bad", ["x^", "y+1", "x^-1", "x**3", "", "x^3 + + 1", "2x"])
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(ValidationError):
        parse(bad)


def test_parse_refuses_a_term_past_the_ring_budget():
    assert parse(f"x^{RING_TABLE_BITS}") == 1 << RING_TABLE_BITS
    with pytest.raises(ValidationError, match="budget"):
        parse(f"x^{RING_TABLE_BITS + 1}")  # refused before its 2^26-bit mask is built


@pytest.mark.parametrize("text", ["1" * 5000, "x^" + "1" * 5000 + " + 1"], ids=["mask", "exponent"])
def test_parse_refuses_numbers_int_cannot_convert(text):
    with pytest.raises(ValidationError, match="digits"):
        parse(text)


def test_parse_error_names_byte_offset():
    with pytest.raises(ValidationError) as err:
        parse("x^3 + y + 1")
    assert "6" in str(err.value)
