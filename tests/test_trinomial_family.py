"""The self-reciprocal trinomial family: closed forms against generic machinery."""

from __future__ import annotations

import pytest

from polycode.codes import code, is_reversible
from polycode.duality import dual_code, dual_min_distance_bruteforce
from polycode import ring, trinomial_family
from polycode.errors import InternalConsistencyError, ValidationError
from polycode.gf2poly import is_irreducible, mul, order, parse, power, reciprocal, weight
from polycode.lcd import lcd_verdict
from polycode.trinomial_family import (
    complement_anchor_value,
    expansion_pow_2r_minus_1,
    family_context,
    family_distance_profile,
    family_dual_d1,
    family_parameters,
    family_poly,
    is_irreducible_trinomial,
    weight_formulas,
)


def test_family_polys_are_the_irreducible_trinomials():
    for s in range(1, 82):
        f = (1 << (2 * s)) | (1 << s) | 1
        assert is_irreducible_trinomial(s) == is_irreducible(f), s
    # the predicate is exactly 's is a power of 3'
    assert [s for s in range(1, 100) if is_irreducible_trinomial(s)] == [1, 3, 9, 27, 81]


def test_family_context_invariants():
    for v in (0, 1, 2):
        ctx = family_context(v, 4)
        s = 3**v
        assert ctx.P == family_poly(v)
        assert ctx.e == 3 * s
        assert mul(ctx.P, (1 << s) | 1) == (1 << (3 * s)) | 1
        assert reciprocal(ctx.P) == ctx.P


@pytest.mark.parametrize("s", [1, 3, 9])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_expansion_equals_generic_power(s, r):
    P = (1 << (2 * s)) | (1 << s) | 1
    assert expansion_pow_2r_minus_1(s, r) == power(P, (1 << r) - 1)


@pytest.mark.parametrize("v", [0, 1, 2])
@pytest.mark.parametrize("r", range(1, 11))
def test_weight_formulas_match_popcounts(v, r):
    s = 3**v
    w_plain, w_shifted = weight_formulas(v, r)
    exp = expansion_pow_2r_minus_1(s, r)
    assert weight(exp) == w_plain
    assert weight(mul((1 << s) | 1, exp)) == w_shifted


def test_anchor_weight_decomposition_all_multipliers():
    """wt(g * P^(2^r-1)) splits by how g's two halves overlap, for every ring unit shape."""
    for v in (0, 1):
        s = 3**v
        for r in (2, 3, 4, 5):
            w_plain, w_shifted = weight_formulas(v, r)
            exp = expansion_pow_2r_minus_1(s, r)
            for g in range(1, 1 << (2 * s)):
                lo, hi = g & ((1 << s) - 1), g >> s
                alpha = bin(lo ^ hi).count("1")
                beta = bin(lo & hi).count("1")
                assert weight(mul(g, exp)) == alpha * w_plain + beta * w_shifted


def test_complement_anchor_values():
    assert [complement_anchor_value(r) for r in range(2, 7)] == [5, 10, 21, 42, 85]


FROZEN_PROFILES = {
    (0, 2): [2],
    (0, 3): [2, 3],
    (0, 4): [2, 2, 5],
    (0, 5): [2, 2, 3, 3],
    (0, 6): [2, 2, 3, 3, 6],
    (0, 7): [2, 2, 2, 2, 5, 5],
    (0, 8): [2, 2, 2, 2, 4, 5, 10],
    (0, 16): [2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 5, 5, 10, 10, 21],
    (1, 2): [2],
    (1, 3): [2, 3],
    (1, 4): [2, 2, 5],
    (1, 8): [2, 2, 2, 2, 4, 5, 10],
}


@pytest.mark.parametrize("v,L", sorted(FROZEN_PROFILES))
def test_family_profile_contains_frozen_truth(v, L):
    profile = family_distance_profile(v, L)
    truth = FROZEN_PROFILES[(v, L)]
    assert len(profile) == L + 1
    assert profile[0].lower == 1 and profile[L].lower == 2 * (3**v) * L
    for j, d in enumerate(truth, start=1):
        rep = profile[j]
        assert rep.lower <= d <= rep.upper, (v, L, j)
    lows = [rep.lower for rep in profile]
    assert lows == sorted(lows)


def test_family_profile_exact_slots_v0_L16():
    profile = family_distance_profile(0, 16)
    exact = {j: d for j, d in zip(range(1, 16), FROZEN_PROFILES[(0, 16)])}
    open_slots = {9, 10, 11}  # the odd plateau leaves one-unit gaps here
    for j, d in exact.items():
        if j in open_slots:
            continue
        assert profile[j].exact and profile[j].lower == d, (j, profile[j])


@pytest.mark.parametrize(
    "v,T,want", [(0, 1, 2), (0, 2, 5), (0, 3, 10), (0, 4, 21), (1, 1, 2), (1, 2, 5), (1, 3, 10)]
)
def test_family_dual_first_distance(v, T, want):
    assert family_dual_d1(v, T) == want
    if 2 * 3**v <= 12:
        ctx = family_context(v, 1 << T)
        assert dual_min_distance_bruteforce(dual_code(code(ctx, 1)), cap=24) == want


def test_family_parameters_identities():
    for v in (0, 1):
        for T in (2, 3):
            for which, r in (("power-of-two", 1), ("complement", 2), ("first-power", None)):
                row = family_parameters(v, T, which, r=r)
                m, L = 2 * 3**v, 1 << T
                assert row["n"] == m * L
                assert row["k"] == m * (L - row["j"])
                assert row["k"] + row["k_dual"] == row["n"]
                assert row["reversible"] is True


def test_family_codes_are_reversible_and_lcd_spot_checks():
    for v, L in ((0, 4), (0, 8), (1, 4)):
        ctx = family_context(v, L)
        for j in range(L + 1):
            assert is_reversible(code(ctx, j))
        verdict = lcd_verdict(code(ctx, 1), "all")
        assert verdict.is_lcd and verdict.hull_dim == 0


def test_family_order_is_proven_not_factored(monkeypatch):
    # the generic order, which factors 2^m - 1, agrees with the proven 3^(v+1)
    for v in range(5):
        assert order(family_poly(v)) == 3 ** (v + 1) == family_context(v, 2).e

    def unreachable(f):
        raise AssertionError("family_context factored 2^m - 1")

    monkeypatch.setattr(ring, "order", unreachable)
    assert family_context(5, 2).e == 729  # m = 486, where factoring took ~0.5 s


@pytest.mark.parametrize("poly, match", [("x^2+x+1", "not 3\\^2"), ("x^3+x+1", "exact multiple")], ids=["x^3=1", "x^9!=1"])
def test_family_context_refuses_a_polynomial_of_the_wrong_order(monkeypatch, poly, match):
    # x^2+x+1 has order 3, a proper divisor of 9; x^3+x+1 has order 7, so x^9 != 1
    monkeypatch.setattr(trinomial_family, "family_poly", lambda v: parse(poly))
    with pytest.raises(InternalConsistencyError, match=match):
        family_context(1, 4)


def test_family_rejects_bad_indices():
    with pytest.raises(ValidationError):
        family_context(-1, 4)
    with pytest.raises(ValidationError):
        family_distance_profile(0, 1)
    with pytest.raises(ValidationError):
        family_parameters(0, 3, "nope")


def test_family_profile_agrees_with_the_generic_profile_on_every_ring_shape():
    # short rings (L < 2^T) end on their own closed forms: an odd last anchor one
    # above complement_anchor_value and a widened last plateau.  The intervals
    # must overlap, so an exact value on either side lies inside the other's.
    from polycode.distance import full_distance_profile

    for v, Ls in ((0, range(2, 36)), (1, range(2, 10))):
        for L in Ls:
            generic = full_distance_profile(family_context(v, L), oracle_cap=24)
            for fam, gen in zip(family_distance_profile(v, L), generic):
                assert max(fam.lower, gen.lower) <= min(fam.upper, gen.upper), (v, L, fam, gen)
