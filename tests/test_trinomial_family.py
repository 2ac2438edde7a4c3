"""The self-reciprocal trinomial family x^(2s) + x^s + 1, s = 3^v: the paper's formulas against generic machinery.

The paper gives closed forms for this family: the expansion and weights of
P^(2^r - 1), the distance of every chain code over P^L and the dual distance
of C_1.  Each is a one-line expected value here, asserted against the
generic profile, the reduced sets, plain powers and the dual oracle.
"""

from __future__ import annotations

import pytest

from polycode.codes import code
from polycode.distance import full_distance_profile, upper_anchor_distance
from polycode.duality import dual_code, dual_component_distance, dual_min_distance_bruteforce
from polycode.errors import ValidationError
from polycode.gf2poly import is_irreducible, mul, order, power, reciprocal, weight
from polycode.lcd import family_poly, lcd_chain, lcd_verdict
from polycode.ring import new_context
from test_codes import reversible_by_rows
from test_distance import head_zone_split
from test_gf2poly import x_power_mod


def anchor_value(r: int) -> int:
    """The paper's d(C_j) at the upper anchor j = 2^T - 2^(T-r), r >= 2, when L = 2^T."""
    return ((1 << (r + 2)) - 1) // 3 if r % 2 == 0 else ((1 << (r + 2)) - 2) // 3


def plateau_bounds(r: int) -> tuple[int, int]:
    """The paper's bounds on d(C_j) between the anchors r and r + 1 when L = 2^T: exact for even r, a 2-gap else."""
    if r % 2 == 0:
        return ((1 << (r + 3)) - 2) // 3, ((1 << (r + 3)) - 2) // 3
    return ((1 << (r + 3)) - 4) // 3, ((1 << (r + 3)) - 1) // 3


def weights(r: int) -> tuple[int, int]:
    """The paper's weights of P^(2^r - 1) and of (x^s + 1) * P^(2^r - 1)."""
    four = 1 << (r + 2)
    return ((four - 1) // 3, (four + 2) // 3) if r % 2 == 0 else ((four + 1) // 3, (four - 2) // 3)


def dual_d1(T: int) -> int:
    """The paper's dual distance of C_1 when L = 2^T."""
    return ((1 << (T + 2)) - 2) // 3 if T % 2 == 1 else ((1 << (T + 2)) - 1) // 3


def expansion(s: int, r: int) -> int:
    """The paper's explicit exponent set of P^(2^r - 1), every exponent a multiple of s."""
    two_r = 1 << r
    if r % 2 == 0:
        q = (two_r - 1) // 3
        exps = [e for i in range(q) for e in (3 * i, 3 * i + 1)] + [two_r - 1]
        exps += [e for i in range(q, 2 * q) for e in (3 * i + 2, 3 * i + 3)]
    else:
        q = (two_r - 2) // 3
        exps = [e for i in range(q) for e in (3 * i, 3 * i + 1)] + [two_r - 2, two_r - 1, two_r]
        exps += [e for i in range(q + 1, 2 * q + 1) for e in (3 * i + 1, 3 * i + 2)]
    return sum(1 << (s * e) for e in exps)


def test_family_polys_are_the_irreducible_trinomials():
    # x^(2s) + x^s + 1 is irreducible exactly when s is a power of 3
    assert [s for s in range(1, 100) if is_irreducible((1 << (2 * s)) | (1 << s) | 1)] == [1, 3, 9, 27, 81]
    assert [family_poly(v) for v in range(3)] == [0b111, 0b1001001, (1 << 18) | (1 << 9) | 1]


def test_family_context_invariants():
    for v in (0, 1, 2):
        ctx = new_context(family_poly(v), 4)
        s = 3**v
        assert order(ctx.P, 1 << ctx.m) == 3 * s
        assert mul(ctx.P, (1 << s) | 1) == (1 << (3 * s)) | 1
        assert reciprocal(ctx.P) == ctx.P


@pytest.mark.parametrize("s", [1, 3, 9])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_expansion_equals_generic_power(s, r):
    P = (1 << (2 * s)) | (1 << s) | 1
    assert expansion(s, r) == power(P, (1 << r) - 1)


@pytest.mark.parametrize("v", [0, 1, 2])
@pytest.mark.parametrize("r", range(1, 11))
def test_weight_formulas_match_popcounts(v, r):
    s = 3**v
    pw = power(family_poly(v), (1 << r) - 1)
    assert (weight(pw), weight(mul((1 << s) | 1, pw))) == weights(r)


def test_anchor_weight_decomposition_all_multipliers():
    """wt(g * P^(2^r-1)) splits by how g's two halves overlap, for every ring unit shape."""
    for v in (0, 1):
        s = 3**v
        for r in (2, 3, 4, 5):
            w_plain, w_shifted = weights(r)
            pw = power(family_poly(v), (1 << r) - 1)
            for g in range(1, 1 << (2 * s)):
                lo, hi = g & ((1 << s) - 1), g >> s
                alpha = bin(lo ^ hi).count("1")
                beta = bin(lo & hi).count("1")
                assert weight(mul(g, pw)) == alpha * w_plain + beta * w_shifted


def test_complement_anchor_values():
    ctx = new_context(family_poly(0), 64)
    assert [upper_anchor_distance(ctx, r) for r in range(2, 7)] == [anchor_value(r) for r in range(2, 7)] == [5, 10, 21, 42, 85]


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
    profile = full_distance_profile(new_context(family_poly(v), L))
    truth = FROZEN_PROFILES[(v, L)]
    assert len(profile) == L + 1
    assert profile[0].lower == 1 and profile[L].lower == 2 * (3**v) * L
    for j, d in enumerate(truth, start=1):
        rep = profile[j]
        assert rep.lower <= d <= rep.upper, (v, L, j)
    lows = [rep.lower for rep in profile]
    assert lows == sorted(lows)


def test_family_profile_exact_slots_v0_L16():
    # the paper's odd plateau r = 3 leaves one-unit gaps at j = 9, 10, 11; the generic profile closes them
    profile = full_distance_profile(new_context(family_poly(0), 16))
    assert [(rep.lower, rep.upper) for rep in profile[1:16]] == [(d, d) for d in FROZEN_PROFILES[(0, 16)]]


@pytest.mark.parametrize(
    "v,T,want", [(0, 1, 2), (0, 2, 5), (0, 3, 10), (0, 4, 21), (1, 1, 2), (1, 2, 5), (1, 3, 10)]
)
def test_family_dual_first_distance(v, T, want):
    ctx = new_context(family_poly(v), 1 << T)
    assert dual_d1(T) == dual_component_distance(ctx, 1) == want  # j = 1 = 2^(T-s) at s = T
    if ctx.m <= 12:
        assert dual_min_distance_bruteforce(dual_code(code(ctx, 1)), cap=24) == want


def test_family_parameters_identities():
    # [n, k] of the paper's three named families over L = 2^T, and d where the paper gives it
    for v in (0, 1):
        s = 3**v
        for T in (2, 3, 4):
            ctx = new_context(family_poly(v), 1 << T)
            profile = full_distance_profile(ctx)
            rows = [(1 << r, s * (1 << (r + 1)) * ((1 << (T - r)) - 1), s * (1 << (r + 1)), 2) for r in range(T)]
            rows += [((1 << T) - (1 << (T - r)), s * (1 << (T - r + 1)), None, anchor_value(r)) for r in range(2, T + 1)]
            rows += [(1, s * ((1 << (T + 1)) - 2), ctx.m, 2)]
            for j, k, k_dual, d in rows:
                c = code(ctx, j)
                assert c.k == k and c.n == ctx.m << T
                assert dual_code(c).dim == (ctx.n - k if k_dual is None else k_dual)
                assert profile[j].exact and profile[j].lower == d, (v, T, j)


def test_family_codes_are_reversible_and_lcd_spot_checks():
    for v, L in ((0, 4), (0, 8), (1, 4), (2, 2)):
        ctx = new_context(family_poly(v), L)
        for j in range(L + 1):
            assert reversible_by_rows(code(ctx, j))
        verdict = lcd_verdict(code(ctx, 1))
        assert verdict.is_lcd and verdict.hull_dim == 0


def test_family_rejects_bad_indices():
    with pytest.raises(ValidationError):
        family_poly(-1)
    with pytest.raises(ValidationError):
        new_context(family_poly(0), 1)


# v = 0 over every ring shape up to L = 40 (short rings L < 2^T included) and L = 512, fewer L as m grows
FAMILY_RINGS = [(0, [*range(2, 41), 512]), (1, range(2, 21)), (2, range(2, 11)), (3, range(2, 7))]


def paper_profile(ctx) -> dict[int, tuple[int, int]]:
    """The paper's interval for d(C_j), j = 1..L-1, on a family ring: exact where the two ends meet."""
    L, tops, short = ctx.L, ctx.tops, ctx.L < 1 << ctx.T
    want = {}
    # head zone: weight-2 words x^N + 1 with N = 3s * 2^ceil(log2 j) < n, else wt(P) = 3
    for j in range(1, tops[0] + 1):
        d = 2 if 3 << (j - 1).bit_length() < 2 * L else 3
        want[j] = (d, d)
    # anchors; a short ring's last anchor, when odd, sits one above
    for r, j in enumerate(tops[1:], 2):
        d = ((1 << (r + 2)) + 1) // 3 if short and r == len(tops) and r % 2 else anchor_value(r)
        want[j] = (d, d)
    # plateaus; a short ring's last one widens to a 2-gap in both parities
    for r, (a, b) in enumerate(zip(tops, tops[1:]), 1):
        lo, hi = plateau_bounds(r)
        hi = lo + 1 if short and b == tops[-1] else hi
        for j in range(a + 1, b):
            want[j] = (lo, hi)
    # the tail past the last anchor doubles it
    for j in range(tops[-1] + 1, L):
        want[j] = (2 * want[tops[-1]][0], ctx.n)
    return want


def test_paper_family_formulas_hold_on_the_generic_profile():
    for v, Ls in FAMILY_RINGS:
        P, s = family_poly(v), 3**v
        assert order(P, 1 << (2 * s)) == 3 * s and x_power_mod(s, P) != 1
        for r in range(1, 11):
            pw = power(P, (1 << r) - 1)
            assert (weight(pw), weight(mul((1 << s) | 1, pw))) == weights(r), (v, r)
        for L in Ls:
            ctx = new_context(P, L)
            profile = full_distance_profile(ctx)
            for j, (lo, hi) in paper_profile(ctx).items():
                if lo == hi:
                    assert (profile[j].lower, profile[j].upper) == (lo, lo), (v, L, j)
                assert max(lo, profile[j].lower) <= min(hi, profile[j].upper), (v, L, j)
            if L >= 1 << ctx.T:  # the dual component at j = 1 is Q*^-1 with 2 shifts on n // 3^v bits
                assert dual_component_distance(ctx, 1) == dual_d1(ctx.T), (v, L)
                dual = dual_code(code(ctx, 1))
                if dual.dim <= 24:
                    assert dual_min_distance_bruteforce(dual, cap=24) == dual_d1(ctx.T), (v, L)
    # m = 486: the order 729 is below n = 972, so the head j = 1 has its weight-2 word 1 + x^729
    assert order(family_poly(5), 1 << 486) == 729
    assert full_distance_profile(new_context(family_poly(5), 2))[1].lower == 2


def test_family_order_is_proven_not_factored():
    # the generic order steps x^i mod P, so it meets the paper's 3^(v+1) even at
    # v = 5 (m = 486), where 2^m - 1 is far past factoring; the paper's d = 2 split reads it there
    for v in range(6):
        P, s = family_poly(v), 3**v
        assert order(P, 1 << (2 * s)) == 3 ** (v + 1) and x_power_mod(s, P) != 1, v
    assert head_zone_split(new_context(family_poly(5), 2)) == 1  # 729 < n = 972


def test_family_profile_agrees_with_the_generic_profile_on_every_ring_shape():
    # below the default oracle cap the oracle closes fewer slots; short rings
    # (L < 2^T) included, the profile must still meet the paper's intervals
    for v, Ls in ((0, range(2, 36)), (1, range(2, 10))):
        for L in Ls:
            ctx = new_context(family_poly(v), L)
            profile = full_distance_profile(ctx, oracle_cap=24)
            for j, (lo, hi) in paper_profile(ctx).items():
                assert max(lo, profile[j].lower) <= min(hi, profile[j].upper), (v, L, j, profile[j])


def test_family_hulls_are_3v_times_the_v0_hulls():
    # x^(2s) + x^s + 1 = Q(x^s), Q = x^2+x+1 and s = 3^v: C_j over its L-th power is the s-fold
    # interleave of C_j over Q^L, and the hull of an interleave is the sum of its components' hulls
    codes = with_hull = 0
    for v, Ls in ((1, range(2, 40)), (2, range(2, 8))):
        for L in Ls:
            base = lcd_chain(new_context(family_poly(0), L))
            for verdict in lcd_chain(new_context(family_poly(v), L)):
                assert verdict.hull_dim == 3**v * base[verdict.j].hull_dim, (v, L, verdict.j)
                codes += 1
                with_hull += verdict.hull_dim > 0
    assert (codes, with_hull) == (850, 362)
