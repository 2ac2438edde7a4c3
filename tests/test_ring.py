"""Ring context construction, classification, and the ideal chain."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycode.codes import code, contains
from polycode.errors import ValidationError
from polycode.gf2poly import div_rem, is_irreducible, mul, mul_trunc, parse, power, reciprocal
from polycode.ring import classify, ideal_generator, new_context, reduce_mod, shift_word

P2 = parse("x^2+x+1")
P3 = parse("x^3+x+1")
P4 = parse("x^4+x+1")


def test_context_basic_quantities():
    ctx = new_context(P4, 16)
    assert (ctx.m, ctx.L, ctx.n, ctx.T, ctx.e) == (4, 16, 64, 4, 15)
    assert mul(ctx.P, ctx.U) == ctx.x_e_1
    assert ctx.P_pows[0] == 1 and ctx.P_pows[1] == P4
    assert ctx.associate == power(P4, 16) ^ (1 << 64)


@pytest.mark.parametrize(
    "L,regime,R,L_prime",
    [(16, "pow2", None, None), (12, "low", None, 4), (9, "low", None, 1)],
)
def test_regime_classification_m4(L, regime, R, L_prime):
    ctx = new_context(P4, L)
    assert ctx.regime == regime
    assert ctx.R == R
    assert ctx.L_prime == L_prime


def test_regime_high():
    ctx = new_context(parse("x^6+x^5+x^3+x^2+1"), 25)
    assert (ctx.regime, ctx.T, ctx.R, ctx.L_prime) == ("high", 5, 2, 1)
    ctx = new_context(P2, 7)
    assert (ctx.regime, ctx.T, ctx.R, ctx.L_prime) == ("high", 3, 2, 1)


def test_validation_messages():
    with pytest.raises(ValidationError, match="irreducible"):
        new_context(parse("x^4+1"), 3)
    with pytest.raises(ValidationError, match="degree"):
        new_context(parse("x+1"), 3)
    with pytest.raises(ValidationError, match="L"):
        new_context(P3, 1)
    with pytest.raises(ValidationError):
        new_context(-3, 2)
    with pytest.raises(ValidationError):
        new_context(P3, "4")  # type: ignore[arg-type]


def test_classify_by_exhaustion():
    ctx = new_context(P3, 2)
    for w in range(1, 1 << ctx.n):
        c = classify(ctx, w)
        # recompute the P-adic valuation directly
        val = 0
        cur = w
        while True:
            from polycode.gf2poly import div_rem

            q, r = div_rem(cur, ctx.P)
            if r:
                break
            val += 1
            cur = q
        val = min(val, ctx.L)
        if val == 0:
            assert c == ("unit", None)
        else:
            assert c == ("nilpotent", val)
    assert classify(ctx, 0) == ("zero", None)


def test_classify_rejects_out_of_ring_words():
    ctx = new_context(P3, 2)
    with pytest.raises(ValidationError):
        classify(ctx, 1 << ctx.n)


@pytest.mark.parametrize("poly,L", [(P2, 4), (P2, 8), (P3, 4), (P4, 4), (P3, 5)])
def test_ideal_lattice_exhaustive(poly, L):
    """Membership in C_j is exactly 'P-adic valuation >= j', for every ring word."""
    ctx = new_context(poly, L)
    if ctx.n > 16:
        pytest.skip("exhaustive sweep kept small")
    codes = [code(ctx, j) for j in range(L + 1)]
    for w in range(1 << ctx.n):
        c = classify(ctx, w)
        v = L if c.kind == "zero" else (c.index or 0)
        for j in range(L + 1):
            assert contains(codes[j], w) == (v >= j)


def test_ideal_generators_are_powers():
    ctx = new_context(P4, 7)
    for j in range(8):
        assert ideal_generator(ctx, j) == (ctx.P_pows[j] if j < 7 else 0)
    with pytest.raises(ValidationError):
        ideal_generator(ctx, 8)


@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_shift_word_is_multiplication_by_x(w):
    ctx = new_context(P3, 4)
    w &= (1 << ctx.n) - 1
    assert shift_word(ctx, w) == reduce_mod(ctx, w << 1)


@given(st.integers(min_value=0, max_value=(1 << 30) - 1))
def test_reduce_mod_is_remainder(w):
    ctx = new_context(P2, 5)
    from polycode.gf2poly import div_rem

    assert reduce_mod(ctx, w) == div_rem(w, power(ctx.P, ctx.L))[1]


def _assert_low_cofactors(ctx):
    """U and U* are the low min(n, e - m + 1) bits of the exact cofactors of x^e + 1."""
    U, rem = div_rem((1 << ctx.e) | 1, ctx.P)
    assert rem == 0
    mask = (1 << min(ctx.n, ctx.e - ctx.m + 1)) - 1
    assert ctx.U == U & mask
    assert ctx.U_star == reciprocal(U) & mask


def test_every_small_irreducible_context_builds():
    for deg in (2, 3, 4, 5):
        for f in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if is_irreducible(f):
                ctx = new_context(f, 3)
                _assert_low_cofactors(ctx)
                assert (2**deg - 1) % ctx.e == 0


IRREDUCIBLE_UP_TO_10 = [
    f for deg in range(2, 11) for f in range((1 << deg) | 1, 1 << (deg + 1), 2) if is_irreducible(f)
]


@given(st.sampled_from(IRREDUCIBLE_UP_TO_10), st.integers(min_value=2, max_value=40))
def test_cofactors_are_low_bits_of_exact_division(P, L):
    _assert_low_cofactors(new_context(P, L))


def test_context_builds_on_wide_primitive_rings():
    ctx = new_context(parse("x^32+x^22+x^2+x+1"), 2)
    assert ctx.e == 2**32 - 1
    assert mul_trunc(ctx.P, ctx.U, ctx.n) == 1  # b = n here: the cofactor's low n bits
    assert ctx.x_e_1 == 1  # x^e + 1 mod x^n
    # 2^61 - 1 is prime, so every irreducible of degree 61 is primitive
    P61 = next(f for f in range((1 << 61) | 3, (1 << 61) | (1 << 12), 2) if is_irreducible(f))
    ctx = new_context(P61, 2)
    assert ctx.e == 2**61 - 1
    assert mul_trunc(reciprocal(P61), ctx.U_star, ctx.n) == 1
