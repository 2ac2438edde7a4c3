"""Ring context construction, classification, and the ideal chain."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycode.codes import code, contains
from polycode.errors import CapExceeded, ValidationError
from polycode.gf2poly import div_rem, is_irreducible, mul, mul_trunc, parse, power, reciprocal
from polycode.ring import RING_TABLE_BITS, classify, ideal_generator, new_context, reduce_mod, shift_word
from polycode.trinomial_family import family_context

P2 = parse("x^2+x+1")
P3 = parse("x^3+x+1")
P4 = parse("x^4+x+1")


def test_context_basic_quantities():
    ctx = new_context(P4, 16)
    assert (ctx.m, ctx.L, ctx.n, ctx.T, ctx.e) == (4, 16, 64, 4, 15)
    assert mul(ctx.P, ctx.U) == ctx.x_e_1
    assert ctx.P_pows[0] == 1 and ctx.P_pows[1] == P4
    assert ctx.associate == power(P4, 16) ^ (1 << 64)


def _old_regime(L):
    """The pre-lattice classification, kept as the reference: (regime, R, L_prime)."""
    T = (L - 1).bit_length()
    if L == 1 << T:
        return "pow2", None, None
    if L <= 3 << (T - 2):
        return "low", None, L - (1 << (T - 1))
    D = (1 << T) - L
    R = T - D.bit_length()
    return "high", R, (1 << (T - R)) - D


@pytest.mark.parametrize(
    "L,regime,R,L_prime",
    [(16, "pow2", None, None), (12, "low", None, 4), (9, "low", None, 1)],
)
def test_regime_classification_m4(L, regime, R, L_prime):
    ctx = new_context(P4, L)
    assert ctx.regime == regime
    assert _old_regime(L) == (regime, R, L_prime)
    assert ctx.tops == {16: (8, 12, 14, 15), 12: (8,), 9: (8,)}[L]
    assert L - ctx.tops[-1] == (L_prime or 1)


def test_regime_high():
    ctx = new_context(parse("x^6+x^5+x^3+x^2+1"), 25)
    assert (ctx.regime, ctx.T, ctx.tops) == ("high", 5, (16, 24))
    ctx = new_context(P2, 7)
    assert (ctx.regime, ctx.T, ctx.tops) == ("high", 3, (4, 6))


def test_tops_match_the_old_regime_formulas():
    # one anchor per r = 1..T in "pow2", R of them in "high", only 2^(T-1) in "low";
    # the tail past the last one is L' long (1 in "pow2")
    for L in range(2, 301):
        ctx = new_context(P2, L)
        T = ctx.T
        regime, R, L_prime = _old_regime(L)
        count = {"pow2": T, "low": 1, "high": R}[regime]
        assert ctx.tops == tuple((1 << T) - (1 << (T - r)) for r in range(1, count + 1)), L
        assert ctx.tops[0] == 1 << (T - 1)
        assert L - ctx.tops[-1] == (L_prime or 1), L
        assert ctx.regime == regime, L


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


def test_the_power_table_budget_refuses_before_building():
    # m*L*(L+1)/2 bits for P^0..P^L: L = 8191 fits 2^26 at m = 2, L = 8192 does not
    assert sum(p.bit_length() for p in new_context(P2, 8191).P_pows) <= RING_TABLE_BITS
    with pytest.raises(CapExceeded, match="budget"):
        new_context(P2, 8192)
    with pytest.raises(CapExceeded, match="budget"):
        new_context(P4, 100000)


def test_every_conjecture_scan_ring_fits_the_power_table_budget():
    # every family ring of the default --dim-cap 4096: m = 2*3^v, L = 2^T, n = m*L <= 4096
    rings = [(2 * 3**v, 1 << T) for v in range(7) for T in range(1, 13) if 2 * 3**v << T <= 4096]
    assert len(rings) == 41
    assert all(m * L * (L + 1) // 2 <= RING_TABLE_BITS for m, L in rings)
    for v, T in ((0, 11), (1, 9), (2, 7), (3, 6)):  # the largest L at each of the four smallest m
        assert family_context(v, 1 << T).n == 2 * 3**v << T
