"""Ring context construction and the ideal chain."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycode.codes import code, contains
from polycode.duality import dual_code
from polycode.errors import CapExceeded, ValidationError
from polycode.gf2poly import div_rem, inverse_trunc, is_irreducible, mul, mul_trunc, parse, power, power_trunc, reciprocal
from polycode import ring
from polycode.ring import RING_TABLE_BITS, new_context
from polycode.trinomial_family import family_context

P2 = parse("x^2+x+1")
P3 = parse("x^3+x+1")
P4 = parse("x^4+x+1")


def valuation(ctx, w):
    """Reference P-adic valuation of a ring word by repeated division, capped at L (the zero word)."""
    v = 0
    while v < ctx.L:
        q, r = div_rem(w, ctx.P)
        if r:
            break
        w, v = q, v + 1
    return v


def test_context_basic_quantities():
    ctx = new_context(P4, 16)
    assert (ctx.m, ctx.L, ctx.n, ctx.T, ctx.e) == (4, 16, 64, 4, 15)
    _assert_inverses(ctx)
    assert ctx.P_pows[0] == 1 and ctx.P_pows[1] == P4
    assert ctx.P_pows[16] == power(P4, 16)


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


@pytest.mark.parametrize("poly,L", [(P2, 4), (P2, 8), (P3, 4), (P4, 4), (P3, 5)])
def test_ideal_lattice_exhaustive(poly, L):
    """Membership in C_j is exactly 'P-adic valuation >= j', for every ring word."""
    ctx = new_context(poly, L)
    if ctx.n > 16:
        pytest.skip("exhaustive sweep kept small")
    codes = [code(ctx, j) for j in range(L + 1)]
    for w in range(1 << ctx.n):
        v = valuation(ctx, w)
        for j in range(L + 1):
            assert contains(codes[j], w) == (v >= j)


def test_ideal_generators_are_powers():
    ctx = new_context(P4, 7)
    for j in range(8):
        assert code(ctx, j).generator == power(P4, j)
    with pytest.raises(ValidationError):
        code(ctx, 8)


def _assert_inverses(ctx):
    """P_star_inv and PP_star_inv are the power-series inverses of P* and P * P* mod x^n."""
    n, P_star = ctx.n, reciprocal(ctx.P)
    assert ctx.P_star_inv < 1 << n and ctx.PP_star_inv < 1 << n
    assert mul_trunc(P_star, ctx.P_star_inv, n) == mul_trunc(mul(ctx.P, P_star), ctx.PP_star_inv, n) == 1
    # so (P * P*)^-1 is the product of the two inverses, P^-1 computed here
    assert ctx.PP_star_inv == mul_trunc(inverse_trunc(ctx.P, n), ctx.P_star_inv, n)


def test_every_small_irreducible_context_builds():
    for deg in (2, 3, 4, 5):
        for f in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if is_irreducible(f):
                ctx = new_context(f, 3)
                _assert_inverses(ctx)
                assert (2**deg - 1) % ctx.e == 0


IRREDUCIBLE_UP_TO_10 = [
    f for deg in range(2, 11) for f in range((1 << deg) | 1, 1 << (deg + 1), 2) if is_irreducible(f)
]


def cofactor_forms(ctx):
    """The paper's cofactors, as the reference: (x^e + 1, U = (x^e + 1)/P, U* = (x^e + 1)/P*) by exact division."""
    x_e_1 = (1 << ctx.e) | 1
    U, rem = div_rem(x_e_1, ctx.P)
    assert rem == 0
    return x_e_1, U, reciprocal(U)


@settings(deadline=None)
@given(st.sampled_from(IRREDUCIBLE_UP_TO_10), st.integers(min_value=2, max_value=40), st.data())
def test_cofactors_are_low_bits_of_exact_division(P, L, data):
    # each word the paper builds from x^e + 1 and the cofactors is a power of P^-1 and P*^-1
    ctx = new_context(P, L)
    n, T = ctx.n, ctx.T
    P_inv = inverse_trunc(P, n)  # the ring keeps only P*^-1 and (P * P*)^-1
    x_e_1, U, U_star = cofactor_forms(ctx)
    low = (1 << min(n, ctx.e)) - 1  # P*U = x^e + 1 == 1 mod x^e
    assert P_inv & low == U & low and ctx.P_star_inv & low == U_star & low

    def form(x_exp, u_exp, us_exp, nbits):
        """(x^e + 1)^x_exp * U^u_exp * U*^us_exp mod x^nbits."""
        out = mul_trunc(power_trunc(x_e_1, x_exp, nbits), power_trunc(U, u_exp, nbits), nbits)
        return mul_trunc(out, power_trunc(U_star, us_exp, nbits), nbits)

    j = data.draw(st.integers(1, L - 1))
    assert dual_code(code(ctx, j)).h_star == form((1 << T) - j, 0, j, n)
    W = power_trunc(ctx.PP_star_inv, j, n)
    if j <= 1 << (T - 1):  # the head criterion's W
        assert W == form((1 << T) - 2 * j, j, j, n)
    else:  # the tail criterion's Q, and Q * A^-1 = W, on which the tail criterion rests
        Q = mul_trunc(power_trunc(P_inv, (1 << T) - j, n), power_trunc(ctx.P_star_inv, j, n), n)
        assert Q == form(0, (1 << T) - j, j, n)
        assert mul_trunc(Q, inverse_trunc(power_trunc(P, 2 * j - (1 << T), n), n), n) == W
    # the spread bases, mod x^tbits with tbits = ceil(n / 2^(T-t))
    s = data.draw(st.integers(1, T))
    tbits = -(-n // (1 << (T - s)))
    assert ctx.P_star_inv & ((1 << tbits) - 1) == form((1 << s) - 1, 0, 1, tbits)
    r = data.draw(st.integers(1, len(ctx.tops)))
    tbits = -(-n // (1 << (T - r)))
    assert power_trunc(ctx.P_star_inv, (1 << r) - 1, tbits) == form(1, 0, (1 << r) - 1, tbits)


def test_context_builds_on_wide_primitive_rings():
    ctx = new_context(parse("x^32+x^22+x^2+x+1"), 2)
    assert ctx.e == 2**32 - 1
    _assert_inverses(ctx)
    # 2^61 - 1 is prime, so every irreducible of degree 61 is primitive
    P61 = next(f for f in range((1 << 61) | 3, (1 << 61) | (1 << 12), 2) if is_irreducible(f))
    ctx = new_context(P61, 2)
    assert ctx.e == 2**61 - 1
    _assert_inverses(ctx)


def test_the_power_table_budget_refuses_before_the_irreducibility_test(monkeypatch):
    def unreachable(f):
        raise AssertionError("is_irreducible ran on a ring over the budget")

    monkeypatch.setattr(ring, "is_irreducible", unreachable)
    with pytest.raises(CapExceeded, match="budget"):
        new_context((1 << 30_000_000) | 3, 2)  # 3m bits for P^0..P^2, m = 3*10^7


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
