"""Algebraic laws and parsing for the bit-packed GF(2)[x] arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycode.errors import CapExceeded, ValidationError
from polycode.gf2poly import (
    _prime_factors,
    add,
    coeff_weight,
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
    power_mod,
    power_trunc,
    reciprocal,
    square,
    substitute_power,
    weight,
)

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
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(polys, nonzero)
def test_div_rem_roundtrip(a, b):
    q, r = div_rem(a, b)
    assert add(mul(q, b), r) == a
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


@given(small, st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=120))
def test_power_trunc_matches_masked_power(a, e, nbits):
    assert power_trunc(a, e, nbits) == power(a, e) & ((1 << nbits) - 1)


@given(small, st.integers(min_value=0, max_value=30), st.integers(min_value=2, max_value=(1 << 16)))
def test_power_mod_matches_div_rem(a, e, f):
    f |= 1 << 15  # keep the modulus degree positive
    assert power_mod(a, e, f) == div_rem(power(a, e), f)[1]


# --- irreducibility and order ------------------------------------------------

# number of monic irreducible polynomials over GF(2) by degree (necklace counts)
IRREDUCIBLE_COUNTS = {2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30, 9: 56, 10: 99}


@pytest.mark.parametrize("deg,count", sorted(IRREDUCIBLE_COUNTS.items()))
def test_irreducible_counts_by_degree(deg, count):
    got = sum(
        1 for f in range((1 << deg) | 1, 1 << (deg + 1), 2) if is_irreducible(f)
    )
    assert got == count


def test_known_orders():
    assert order(parse("x^2+x+1")) == 3
    assert order(parse("x^3+x+1")) == 7
    assert order(parse("x^4+x^3+x^2+x+1")) == 5  # irreducible but not primitive
    assert order(parse("x^4+x+1")) == 15


def test_order_divides_field_multiplicative_order():
    for deg in range(2, 9):
        for f in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if is_irreducible(f):
                assert (2**deg - 1) % order(f) == 0


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
                assert order(f) == _order_by_stepping(f), format_poly(f)


def test_order_refuses_f_without_x_in_its_unit_group():
    with pytest.raises(ValidationError):
        order(parse("x^2+1"))  # x^3 == x mod x^2 + 1
    with pytest.raises(ValidationError):
        order(parse("x^3+x"))


def test_order_refuses_rather_than_guesses_an_unproven_cofactor():
    # 2^89 - 1 is prime but above the exact range of the Miller-Rabin bases
    with pytest.raises(CapExceeded, match="unproven"):
        order(parse("x^89+x^38+1"))


@given(st.integers(min_value=1, max_value=10**10))
def test_prime_factors_match_trial_division(n):
    expected, rest, p = set(), n, 2
    while p * p <= rest:
        while rest % p == 0:
            expected.add(p)
            rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        expected.add(rest)
    assert _prime_factors(n) == expected


def test_prime_factors_split_mersenne_cofactors_by_rho():
    assert _prime_factors(2**67 - 1) == {193707721, 761838257287}
    assert _prime_factors(2**62 - 1) == {3, 715827883, 2147483647}


@given(st.integers(min_value=0, max_value=(1 << 200) - 1), st.integers(min_value=1, max_value=300))
def test_inverse_trunc_is_the_power_series_inverse(a, nbits):
    a |= 1
    inv = inverse_trunc(a, nbits)
    assert inv < 1 << nbits
    assert mul_trunc(a, inv, nbits) == 1


def test_inverse_trunc_refuses_non_units():
    with pytest.raises(ValidationError):
        inverse_trunc(parse("x^3+x"), 8)


def test_coeff_weight_examples():
    assert coeff_weight(0) == 0
    assert coeff_weight(1) == 0
    assert coeff_weight(parse("x^5")) == 0
    assert coeff_weight(parse("x^3+1")) == 3
    assert coeff_weight(parse("x^5+x^3+1")) == 2
    assert coeff_weight(parse("x^7+x^6+x^3+x+1")) == 1


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


def test_parse_error_names_byte_offset():
    with pytest.raises(ValidationError) as err:
        parse("x^3 + y + 1")
    assert "6" in str(err.value)
